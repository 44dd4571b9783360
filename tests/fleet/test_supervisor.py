"""Supervision-tree tests: worker processes, failover, verified respawn.

Every test drives a real multi-process fleet
(:class:`~repro.fleet.supervisor.SupervisedFleetService`), kills or
wedges real workers, and holds the recovered service to the same
standard as the in-process recovery tests: the rebuilt state must be
**bit-identical** to an uninterrupted oracle, failover answers must be
ANALYTIC, and the service must never raise.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.errors import RecoveryError
from repro.experiments.journal import EventLog
from repro.fleet import (
    AdmissionController,
    FleetService,
    PlacementQuery,
    ShardPolicy,
    SupervisedFleetService,
    SupervisorPolicy,
    TenantQuota,
    synthetic_feed,
)
from repro.fleet.worker import WorkerHandle
from repro.parallel.containment import FailurePolicy
from repro.reliability.degrade import Confidence

MACHINES = 16
SHARDS = 4


def admission() -> AdmissionController:
    return AdmissionController(default=TenantQuota(max_apps=10**9))


def make_supervised(tmp_path, name="fleet.jsonl", **overrides) -> SupervisedFleetService:
    supervisor = overrides.pop(
        "supervisor",
        SupervisorPolicy(
            heartbeat_interval=0.3,
            heartbeat_timeout=2.0,
            containment=FailurePolicy(deadline=1.5),
        ),
    )
    return SupervisedFleetService(
        machines=MACHINES,
        num_shards=SHARDS,
        admission=admission(),
        policy=ShardPolicy(failure_threshold=1, recovery_time=0.1),
        log=EventLog(tmp_path / name, sync=False),
        supervisor=supervisor,
        **overrides,
    )


def oracle_hash(tmp_path, seed: int, events: int) -> str:
    service = FleetService(
        machines=MACHINES,
        num_shards=SHARDS,
        admission=admission(),
        log=EventLog(tmp_path / "oracle.jsonl", sync=False),
    )
    for event in synthetic_feed(seed=seed, events=events, machines=MACHINES):
        service.apply(event)
    return service.state_hash()


def feed_through(service, seed: int, events: int, hooks=None) -> None:
    hooks = dict(hooks or {})
    for i, event in enumerate(synthetic_feed(seed=seed, events=events, machines=MACHINES)):
        if not service.submit(event):
            service.pump()
            service.submit(event)
        service.pump()
        if i in hooks:
            hooks.pop(i)(service)
    service.pump()


class TestSupervisedParity:
    def test_requires_a_durable_log(self):
        with pytest.raises(ValueError, match="EventLog"):
            SupervisedFleetService(machines=MACHINES, num_shards=SHARDS)

    def test_clean_run_matches_in_process_oracle(self, tmp_path):
        expected = oracle_hash(tmp_path, seed=21, events=300)
        with make_supervised(tmp_path) as service:
            feed_through(service, seed=21, events=300)
            assert service.state_hash() == expected
            assert service.counters()["respawns"] == 0

    def test_close_reaps_every_worker(self, tmp_path):
        service = make_supervised(tmp_path)
        pids = [service.worker_pid(sid) for sid in range(SHARDS)]
        service.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(service._workers[s].process.is_alive() is False for s in range(SHARDS)):
                break
            time.sleep(0.05)
        for sid, pid in enumerate(pids):
            assert pid is not None
            assert not service._workers[sid].process.is_alive()


class TestFailover:
    def _kill(self, sid):
        def hook(service):
            os.kill(service.worker_pid(sid), signal.SIGKILL)

        return hook

    def test_sigkilled_worker_respawns_bit_identical(self, tmp_path):
        expected = oracle_hash(tmp_path, seed=31, events=300)
        with make_supervised(tmp_path) as service:
            feed_through(service, seed=31, events=300, hooks={100: self._kill(1)})
            assert service.await_recovery(timeout=60.0)
            counters = service.counters()
            assert counters["respawns"] >= 1
            assert counters["worker_failures"] >= 1
            assert counters["recovery_mismatches"] == 0
            assert service.state_hash() == expected

    @pytest.mark.parametrize("kind", ["exit", "raise", "hang"])
    def test_injected_faults_respawn_bit_identical(self, tmp_path, kind):
        expected = oracle_hash(tmp_path, seed=37, events=260)
        with make_supervised(tmp_path) as service:
            feed_through(
                service,
                seed=37,
                events=260,
                hooks={90: lambda s: s.inject_fault(2, kind, after=1)},
            )
            assert service.await_recovery(timeout=60.0)
            assert service.counters()["respawns"] >= 1
            assert service.state_hash() == expected

    def test_quarantined_shard_answers_analytic_never_blocks(self, tmp_path):
        with make_supervised(tmp_path) as service:
            feed_through(service, seed=41, events=120)
            os.kill(service.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while 1 not in service.quarantined and time.monotonic() < deadline:
                service.tick(force=True)
                time.sleep(0.01)
            assert 1 in service.quarantined
            before = service.counters()["failover_answers"]
            start = time.monotonic()
            answer = service.query(
                "t0",
                PlacementQuery(dcomp_frontend=1.0, candidates=(1, 5, 9, 13)),
            )
            assert time.monotonic() - start < 5.0  # no blocking on the dead worker
            assert answer.confidence is Confidence.ANALYTIC
            assert service.counters()["failover_answers"] == before + 1
            assert service.await_recovery(timeout=60.0)

    def test_hang_past_heartbeat_deadline_counts_missed_heartbeat(self, tmp_path):
        # The apply deadline is generous (5s) but heartbeats are strict:
        # the queued ping expires first, so the hang is detected *as* a
        # missed heartbeat, not an apply timeout.
        supervisor = SupervisorPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
            containment=FailurePolicy(deadline=5.0),
        )
        with make_supervised(tmp_path, supervisor=supervisor) as service:
            feed_through(service, seed=43, events=80)
            service.inject_fault(0, "hang", after=1)
            # One apply to shard 0's slice trips the hang.
            victim = next(
                e
                for e in synthetic_feed(seed=44, events=40, machines=MACHINES)
                if e["op"] == "arrive" and e["machine"] % SHARDS == 0
            )
            service.apply(victim)
            deadline = time.monotonic() + 30.0
            while service.counters()["heartbeats_missed"] == 0:
                assert time.monotonic() < deadline, "hang never detected"
                service.tick(force=True)
                time.sleep(0.02)
            assert 0 in service.quarantined
            assert service.await_recovery(timeout=60.0)


class TestChaosProof:
    def test_seeded_kill_schedule_never_raises_and_stays_bit_identical(self, tmp_path):
        expected = oracle_hash(tmp_path, seed=53, events=1200)
        hooks = {
            300: lambda s: os.kill(s.worker_pid(0), signal.SIGKILL),
            600: lambda s: s.inject_fault(1, "raise", after=1),
            900: lambda s: s.inject_fault(2, "exit", after=1),
        }
        probed = []
        with make_supervised(tmp_path) as service:
            for i, event in enumerate(
                synthetic_feed(seed=53, events=1200, machines=MACHINES)
            ):
                if not service.submit(event):
                    service.pump()
                    service.submit(event)
                service.pump()
                if i in hooks:
                    hooks.pop(i)(service)
                for sid in sorted(service.quarantined - set(probed)):
                    answer = service.query(
                        "chaos",
                        PlacementQuery(
                            dcomp_frontend=1.0,
                            candidates=tuple(range(sid, MACHINES, SHARDS)),
                        ),
                    )
                    assert answer.confidence is Confidence.ANALYTIC
                    probed.append(sid)
            service.pump()
            assert service.await_recovery(timeout=120.0)
            counters = service.counters()
            assert counters["respawns"] >= 3
            assert counters["worker_failures"] >= 3
            assert counters["recovery_mismatches"] == 0
            assert probed  # at least one quarantine was observed and probed
            assert service.state_hash() == expected


class TestRecoveryVerification:
    def test_corrupted_journal_line_keeps_shard_quarantined(self, tmp_path):
        with make_supervised(tmp_path, name="corrupt.jsonl") as service:
            feed_through(service, seed=61, events=200)
            path = service.log.path
            lines = path.read_text(encoding="utf-8").splitlines()
            victim = next(
                i
                for i, line in enumerate(lines)
                if i > 10 and json.loads(line).get("machine", 0) % SHARDS == 1
            )
            lines[victim] = lines[victim][:-2] + 'XX}'
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.kill(service.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while service.counters()["recovery_mismatches"] == 0:
                assert time.monotonic() < deadline, "mismatch never surfaced"
                service.tick(force=True)
                time.sleep(0.01)
            assert 1 in service.quarantined
            error = service.last_recovery_error
            assert isinstance(error, RecoveryError)
            assert error.shard_id == 1
            assert error.replayed_events < error.expected_events
            # The quarantined slice still answers, analytically.
            answer = service.query(
                "t0", PlacementQuery(dcomp_frontend=1.0, candidates=(1, 5, 9, 13))
            )
            assert answer.confidence is Confidence.ANALYTIC


class TestCatchUp:
    """Respawn replay rounds end under load, and every round verifies.

    The deterministic tests freeze automatic supervision
    (``tick_interval`` of an hour) so each replay round is handled by
    an explicit ``tick(force=True)`` at a known point of the feed.
    """

    MANUAL = SupervisorPolicy(
        heartbeat_interval=0.3,
        heartbeat_timeout=2.0,
        tick_interval=3600.0,
        containment=FailurePolicy(deadline=1.5),
    )

    @staticmethod
    def _respawn_and_await_first_round(service, sid) -> int:
        """SIGKILL *sid*'s worker, tick until it respawns, and wait for
        its first replay round to be answered (the answer is left in
        the pipe, unhandled). Returns the journal seq the round covers
        up to."""
        os.kill(service.worker_pid(sid), signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while service.worker_state(sid) != WorkerHandle.REPLAYING:
            assert time.monotonic() < deadline, "worker never respawned"
            service.tick(force=True)
            time.sleep(0.01)
        upto = service.log.next_seq
        assert service._workers[sid].conn.poll(30.0), "first round never answered"
        return upto

    @staticmethod
    def _feed_until(service, events, done) -> None:
        while not done():
            service.apply(next(events))

    @staticmethod
    def _corrupt_owned_line(path, sid, lo) -> tuple[int, str]:
        """Corrupt the first journal line at or past seq *lo* that shard
        *sid* owns; returns its index and original text. The line keeps
        its length, so the live log's later appends stay intact."""
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["seq"] >= lo and event["machine"] % SHARDS == sid:
                lines[i] = line[:-1] + "X"
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                return i, line
        raise AssertionError(f"no journal line at seq >= {lo} owned by shard {sid}")

    def test_respawn_goes_live_under_a_steady_feed(self, tmp_path):
        history, paced, interval = 3000, 1500, 0.004
        expected = oracle_hash(tmp_path, seed=83, events=history + paced)
        feed = list(synthetic_feed(seed=83, events=history + paced, machines=MACHINES))
        with make_supervised(tmp_path) as service:
            for event in feed[:history]:
                service.apply(event)
            os.kill(service.worker_pid(1), signal.SIGKILL)
            start = time.monotonic()
            live_after = None
            for i, event in enumerate(feed[history:]):
                service.apply(event)
                if live_after is None and service.rebuilds:
                    live_after = time.monotonic() - start
                    assert service.worker_state(1) == WorkerHandle.LIVE
                time.sleep(max(0.0, start + (i + 1) * interval - time.monotonic()))
            # The feed never paused, yet the respawned worker went live
            # while it ran (it takes ~6 s; a catch-up takes well under 1 s).
            assert live_after is not None, "respawn never caught up with the feed"
            assert live_after < 4.0
            assert service.await_recovery(timeout=60.0)
            assert service.recovery_mismatches == 0
            assert service.state_hash() == expected

    def test_corrupt_line_in_a_delta_round_keeps_shard_quarantined(self, tmp_path):
        feed = synthetic_feed(seed=61, events=400, machines=MACHINES)
        with make_supervised(tmp_path, supervisor=self.MANUAL) as service:
            self._feed_until(service, feed, lambda: service.log.next_seq >= 200)
            upto = self._respawn_and_await_first_round(service, 1)
            # A delta round smaller than the first one: not a handover.
            self._feed_until(service, feed, lambda: service.log.next_seq >= upto + 60)
            self._corrupt_owned_line(service.log.path, 1, upto)
            first_round = sum(
                1
                for event in EventLog.replay(service.log.path)
                if event["seq"] < upto and event["machine"] % SHARDS == 1
            )
            deadline = time.monotonic() + 30.0
            while service.recovery_mismatches == 0:
                assert time.monotonic() < deadline, "delta-round mismatch never surfaced"
                service.tick(force=True)
                time.sleep(0.01)
            # The first round verified; the delta round after it failed.
            assert service.worker_state(1) == WorkerHandle.DEAD
            assert not service._workers[1].handover
            assert 1 in service.quarantined
            error = service.last_recovery_error
            assert isinstance(error, RecoveryError)
            assert error.shard_id == 1
            assert first_round <= error.replayed_events < error.expected_events
            answer = service.query(
                "t0", PlacementQuery(dcomp_frontend=1.0, candidates=(1, 5, 9, 13))
            )
            assert answer.confidence is Confidence.ANALYTIC

    def test_failed_handover_drops_queued_frames_and_recovers(self, tmp_path):
        events = 900
        expected = oracle_hash(tmp_path, seed=67, events=events)
        feed = synthetic_feed(seed=67, events=events, machines=MACHINES)
        with make_supervised(tmp_path, supervisor=self.MANUAL) as service:
            self._feed_until(service, feed, lambda: service.log.next_seq >= 200)
            upto = self._respawn_and_await_first_round(service, 1)
            # A delta at least as large as the first round: the handover.
            self._feed_until(service, feed, lambda: service.log.next_seq >= 2 * upto)
            path = service.log.path
            index, original = self._corrupt_owned_line(path, 1, upto)
            pid = service.worker_pid(1)
            os.kill(pid, signal.SIGSTOP)  # hold the handover round unread
            try:
                service.tick(force=True)
                assert service._workers[1].handover
                assert service.worker_state(1) == WorkerHandle.REPLAYING
                assert 1 in service.quarantined
                # Events admitted now are framed behind the handover round.
                depth = service.worker_depth(1)
                self._feed_until(
                    service, feed, lambda: service.worker_depth(1) >= depth + 3
                )
                answer = service.query(
                    "t0", PlacementQuery(dcomp_frontend=1.0, candidates=(1, 5, 9, 13))
                )
                assert answer.confidence is Confidence.ANALYTIC
            finally:
                os.kill(pid, signal.SIGCONT)
            deadline = time.monotonic() + 30.0
            while service.recovery_mismatches == 0:
                assert time.monotonic() < deadline, "handover mismatch never surfaced"
                service.tick(force=True)
                time.sleep(0.01)
            assert service.worker_state(1) == WorkerHandle.DEAD
            assert 1 in service.quarantined
            # Repair the journal; the respawn replays the dropped frames.
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[index] = original
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            for event in feed:
                service.apply(event)
            assert service.await_recovery(timeout=60.0)
            assert service.recovery_mismatches == 1
            assert service.respawns >= 2
            assert service.state_hash() == expected


class TestBackpressureAccounting:
    def test_worker_depth_and_states_exposed(self, tmp_path):
        with make_supervised(tmp_path) as service:
            feed_through(service, seed=71, events=60)
            for sid in range(SHARDS):
                assert service.worker_state(sid) == WorkerHandle.LIVE
                assert service.worker_depth(sid) >= 0
                assert isinstance(service.worker_pid(sid), int)

    def test_send_to_wedged_worker_stalls_out_instead_of_deadlocking(self):
        """A worker that stops reading must not wedge the supervisor.

        Once the kernel pipe buffer fills behind a hung worker, a plain
        ``Connection.send`` blocks forever inside ``write(2)`` — before
        any tick can enforce the apply deadline that would have failed
        the worker (batched frames fill the buffer in a handful of
        sends). ``WorkerHandle`` must instead surface the stall as
        ``WorkerUnavailable`` within the request deadline.
        """
        import multiprocessing

        from repro.fleet.worker import WorkerUnavailable

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        handle = WorkerHandle(
            ctx, 0, range(4), (None, None, None), None, max_inflight=256, now=0.0
        )
        try:
            # Wedge the worker on its next applied event.
            assert handle.request(("inject", "hang", 1), "inject", 5.0, 0.0)
            event = {
                "op": "arrive",
                "app": "a0",
                "tenant": "t",
                "machine": 0,
                "comm_fraction": 0.3,
                "message_size": 64.0,
            }
            assert handle.request(("apply", [event]), "apply", 5.0, 0.0)
            # Flood the pipe with frames the sleeping worker never
            # reads. Far more than any kernel pipe buffer holds; with a
            # blocking send this loop never returns.
            frame = [dict(event, app=f"a{i}") for i in range(2000)]
            start = time.monotonic()
            with pytest.raises(WorkerUnavailable, match="stalled"):
                for _ in range(64):
                    handle.request(("apply", frame), "apply", 1.0, 0.0)
            assert time.monotonic() - start < 30.0
        finally:
            handle.kill()
