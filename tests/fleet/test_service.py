"""Fleet-service tests: admission, shedding, quarantine, recovery."""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError
from repro.experiments.journal import EventLog
from repro.fleet import (
    AdmissionController,
    FleetService,
    PlacementQuery,
    ShardPolicy,
    TenantQuota,
    synthetic_feed,
)
from repro.obs import MetricsRegistry, ObsContext, Tracer, observed
from repro.reliability.degrade import Confidence


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def arrive(app: str, machine: int, tenant: str = "t0", frac: float = 0.3) -> dict:
    return {
        "op": "arrive",
        "app": app,
        "tenant": tenant,
        "machine": machine,
        "comm_fraction": frac,
        "message_size": 100.0,
    }


QUERY = PlacementQuery(
    dcomp_frontend=1.0,
    backend_dcomp=0.4,
    backend_didle=0.1,
    backend_dserial=0.2,
    dcomm_out=0.05,
    dcomm_in=0.05,
)


def make_service(tmp_path=None, clock=None, **kwargs) -> FleetService:
    clock = clock if clock is not None else FakeClock()
    log = EventLog(tmp_path / "fleet.jsonl") if tmp_path is not None else None
    kwargs.setdefault(
        "admission",
        AdmissionController(
            default=TenantQuota(query_rate=0.0, query_burst=10.0, max_apps=50),
            clock=clock,
        ),
    )
    kwargs.setdefault("policy", ShardPolicy(failure_threshold=1, recovery_time=5.0))
    return FleetService(machines=8, num_shards=4, log=log, clock=clock, **kwargs)


class TestEventAdmission:
    def test_valid_arrive_and_depart(self):
        service = make_service()
        assert service.apply(arrive("a", 0))
        assert service.apply({"op": "depart", "app": "a"})
        assert service.admitted_events == 2
        assert len(service.registry) == 0

    @pytest.mark.parametrize(
        "event",
        [
            {"op": "arrive", "app": "a", "tenant": "t", "machine": 99,
             "comm_fraction": 0.3, "message_size": 10.0},  # machine range
            {"op": "arrive", "app": "a", "tenant": "t", "machine": 0,
             "comm_fraction": 1.5, "message_size": 10.0},  # bad fraction
            {"op": "arrive", "app": "a", "tenant": "t", "machine": 0,
             "comm_fraction": 0.5, "message_size": 0.0},  # comm w/o size
            {"op": "arrive", "app": "", "tenant": "t", "machine": 0,
             "comm_fraction": 0.3, "message_size": 10.0},  # empty name
            {"op": "depart", "app": "ghost"},  # unknown app
            {"op": "resize", "app": "a"},  # unknown op
            {},  # garbage
        ],
    )
    def test_malformed_events_rejected_not_raised(self, event):
        service = make_service()
        assert not service.apply(event)
        assert service.rejected_events == 1
        assert service.admitted_events == 0

    def test_duplicate_arrival_rejected(self):
        service = make_service()
        service.apply(arrive("a", 0))
        assert not service.apply(arrive("a", 1))

    def test_tenant_app_cap_enforced(self):
        service = make_service()
        for i in range(60):
            service.apply(arrive(f"a{i}", i % 8, tenant="greedy"))
        assert len(service.registry) == 50  # quota max_apps
        assert service.rejected_events == 10

    def test_backpressure_instead_of_growth(self):
        service = make_service(queue_capacity=4)
        accepted = [service.submit(arrive(f"a{i}", 0)) for i in range(10)]
        assert accepted.count(True) == 4
        assert len(service.queue) == 4
        assert service.queue.refusals == 6
        assert service.pump() == 4


class TestQueryPath:
    def test_served_query_picks_least_loaded_machine(self):
        service = make_service()
        for i in range(3):
            service.apply(arrive(f"a{i}", 0))
        answer = service.query("t0", QUERY)
        assert not answer.shed
        assert answer.machine != 0  # machine 0 carries all the load

    def test_candidates_restrict_the_grid(self):
        service = make_service()
        service.apply(arrive("a", 1))
        answer = service.query("t0", PlacementQuery(dcomp_frontend=1.0, candidates=(1,)))
        assert answer.machine == 1

    def test_out_of_range_candidates_fall_back_to_fleet(self):
        service = make_service()
        answer = service.query("t0", PlacementQuery(dcomp_frontend=1.0, candidates=(-3, 99)))
        assert 0 <= answer.machine < 8

    def test_inlined_grid_matches_placement_grid_kernel(self):
        """The query path's inlined Equation-(1) arithmetic is pinned,
        bit for bit, to the shared ``placement_grid`` kernel it avoids
        calling per query."""
        import numpy as np

        from repro.core.batch import placement_grid
        from repro.reliability.degrade import TaggedSlowdown

        rng = np.random.default_rng(31)
        service = make_service()
        for i in range(12):
            service.apply(arrive(f"a{i}", int(rng.integers(8)), frac=float(rng.uniform(0.1, 0.7))))
        for _ in range(50):
            candidates = tuple(int(m) for m in rng.choice(8, size=4, replace=False))
            query = PlacementQuery(
                dcomp_frontend=float(rng.uniform(0.1, 2.0)),
                backend_dcomp=float(rng.uniform(0.0, 1.0)),
                backend_didle=float(rng.uniform(0.0, 0.5)),
                backend_dserial=float(rng.uniform(0.0, 1.0)),
                dcomm_out=float(rng.uniform(0.0, 0.2)),
                dcomm_in=float(rng.uniform(0.0, 0.2)),
                candidates=candidates,
            )
            answer = service.query("t0", query)
            service._refresh()
            cands = np.asarray(candidates, dtype=np.int64)
            comp = service._comp[cands]
            comm = service._comm[cands]
            conf = Confidence(int(service._conf[cands].min()))
            grid = placement_grid(
                query.dcomp_frontend,
                query.backend_dcomp,
                query.backend_didle,
                query.backend_dserial,
                query.dcomm_out,
                query.dcomm_in,
                TaggedSlowdown(comp, conf),
                TaggedSlowdown(comm, conf),
            )
            best = int(np.argmin(grid.best_time))
            assert answer.machine == candidates[best]
            assert answer.best_time == float(grid.best_time[best])
            assert answer.offload == bool(grid.offload[best])

    def test_negative_query_costs_raise_like_the_kernel(self):
        service = make_service()
        with pytest.raises(ValueError, match="dcomm must be >= 0"):
            service.query("t0", PlacementQuery(dcomp_frontend=1.0, dcomm_out=-0.1))
        with pytest.raises(ValueError, match="dcomp must be >= 0"):
            service.query("t0", PlacementQuery(dcomp_frontend=-1.0))


class TestOverload:
    def test_ten_times_quota_never_raises_and_accounts(self):
        clock = FakeClock()
        service = make_service(clock=clock)
        for i in range(16):
            service.apply(arrive(f"a{i}", i % 8))
        burst = 10
        total = 10 * burst
        answers = [service.query("noisy", QUERY) for _ in range(total)]
        shed = [a for a in answers if a.shed]
        served = [a for a in answers if not a.shed]
        assert len(served) == burst  # the bucket's burst, nothing more
        assert len(shed) == total - burst
        # Every shed answer is a real ANALYTIC placement, not an error.
        assert all(a.confidence is Confidence.ANALYTIC for a in shed)
        assert all(0 <= a.machine < 8 and a.best_time > 0 for a in shed)
        # The counters account for every request.
        assert service.shed_queries == len(shed)
        assert service.served_queries == len(served)

    def test_shed_answer_matches_registry_aggregates(self):
        service = make_service()
        for i in range(6):
            service.apply(arrive(f"a{i}", 0))  # pile machine 0 high
        for _ in range(10):
            service.query("t0", QUERY)  # exhaust the bucket
        answer = service.query("t0", QUERY)
        assert answer.shed
        assert answer.machine != 0  # aggregates still steer placement

    def test_queries_refill_with_time(self):
        clock = FakeClock()
        service = make_service(
            clock=clock,
            admission=AdmissionController(
                default=TenantQuota(query_rate=1.0, query_burst=1.0), clock=clock
            ),
        )
        assert not service.query("t", QUERY).shed
        assert service.query("t", QUERY).shed
        clock.advance(1.0)
        assert not service.query("t", QUERY).shed


class TestQuarantine:
    def _desync(self, service, machine=0):
        """Corrupt the shard behind the service's back, then depart."""
        name = f"victim-{machine}"
        service.apply(arrive(name, machine))
        sid = service.shard_of(machine)
        service.shards[sid].apply({"op": "depart", "app": name, "machine": machine})
        service.apply({"op": "depart", "app": name})
        return sid

    def test_desync_quarantines_without_raising(self, tmp_path):
        service = make_service(tmp_path)
        sid = self._desync(service)
        assert sid in service.quarantined
        assert service.quarantines == 1

    def test_quarantined_machines_answer_analytically(self, tmp_path):
        service = make_service(tmp_path)
        sid = self._desync(service, machine=0)
        assert sid == 0
        answer = service.query("t0", PlacementQuery(dcomp_frontend=1.0, candidates=(0,)))
        assert not answer.shed
        assert answer.confidence is Confidence.ANALYTIC
        assert service.degraded_queries == 1

    def test_events_keep_flowing_to_quarantined_shard_log(self, tmp_path):
        service = make_service(tmp_path)
        self._desync(service, machine=0)
        assert service.apply(arrive("later", 0))  # machine 0 = shard 0
        ops = [e["app"] for e in EventLog.replay(service.log.path)]
        assert "later" in ops  # write-ahead even while quarantined

    def test_recovery_gated_by_breaker_window(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock)
        sid = self._desync(service)
        assert not service.recover(sid)  # still open
        clock.advance(5.0)
        assert service.recover(sid)  # half-open probe admitted
        assert sid not in service.quarantined
        assert service.rebuilds == 1

    def test_recovered_shard_is_bit_identical_to_full_replay(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock)
        for event in synthetic_feed(seed=9, events=150, machines=8):
            service.apply(event)
        sid = self._desync(service)
        for event in synthetic_feed(seed=77, events=60, machines=8):
            service.apply(event)  # shard misses these while quarantined
        clock.advance(5.0)
        assert service.recover(sid)
        oracle = FleetService(machines=8, num_shards=4)
        for event in EventLog.replay(service.log.path):
            oracle.apply(event)
        assert service.shards[sid].state_hash() == oracle.shards[sid].state_hash()

    def test_exhausted_budget_means_analytic_forever(self, tmp_path):
        clock = FakeClock()
        service = make_service(
            tmp_path,
            clock=clock,
            policy=ShardPolicy(failure_threshold=1, recovery_time=1.0, budget=3.0),
        )
        sid = self._desync(service)
        clock.advance(10.0)  # budget spent
        assert not service.recover(sid)
        assert sid in service.quarantined
        answer = service.query("t0", PlacementQuery(dcomp_frontend=1.0, candidates=(0,)))
        assert answer.confidence is Confidence.ANALYTIC

    def test_recovery_without_log_restores_population(self):
        clock = FakeClock()
        service = make_service(clock=clock)  # no event log
        service.apply(arrive("keep", 0))
        sid = self._desync(service)
        clock.advance(5.0)
        assert service.recover(sid)
        expected = service.shards[sid].fresh()
        expected.apply(arrive("keep", 0))
        assert service.shards[sid].state_hash() == expected.state_hash()


class SteppingClock(FakeClock):
    """Clock that advances *step* seconds on every read — makes every
    timed section look slow without sleeping."""

    def __init__(self, step: float = 0.0) -> None:
        super().__init__()
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestRecoveryVerification:
    """A rebuild is re-admitted only when it is provably bit-identical."""

    def _populate(self, service, events=120, seed=9):
        for event in synthetic_feed(seed=seed, events=events, machines=8):
            service.apply(event)

    def _desync(self, service, machine=0):
        name = f"victim-{machine}"
        service.apply(arrive(name, machine))
        sid = service.shard_of(machine)
        service.shards[sid].apply({"op": "depart", "app": name, "machine": machine})
        service.apply({"op": "depart", "app": name})
        return sid

    def _tamper(self, path, sid, mutate, skip=5):
        """Rewrite the *skip*-th journal event owned by shard *sid*."""
        import json

        lines = path.read_text(encoding="utf-8").splitlines()
        seen = 0
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("op") == "arrive" and event.get("machine", 0) % 4 == sid:
                seen += 1
                if seen >= skip:
                    lines[i] = mutate(line, event)
                    break
        else:
            raise AssertionError(f"no journal line owned by shard {sid}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_corrupted_journal_line_blocks_readmission(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock)
        self._populate(service)
        sid = self._desync(service)
        # One unparsable line: EventLog.replay stops there, silently
        # truncating the stream the rebuild sees.
        self._tamper(service.log.path, sid, lambda line, event: line[:-2] + "XX}")
        clock.advance(10.0)
        assert not service.recover(sid)
        assert sid in service.quarantined
        assert service.recovery_mismatches == 1
        error = service.last_recovery_error
        assert isinstance(error, RecoveryError)
        assert error.shard_id == sid
        assert error.replayed_events < error.expected_events

    def test_tampered_event_value_fails_the_stream_chain(self, tmp_path):
        import json

        clock = FakeClock()
        service = make_service(tmp_path, clock=clock)
        self._populate(service)
        sid = self._desync(service)

        def flip_fraction(line, event):
            event["comm_fraction"] = 0.42 if event["comm_fraction"] != 0.42 else 0.17
            return json.dumps(event, sort_keys=True)

        # Same event count, different payload: only the rolling stream
        # chain can catch this.
        self._tamper(service.log.path, sid, flip_fraction)
        clock.advance(10.0)
        assert not service.recover(sid)
        error = service.last_recovery_error
        assert isinstance(error, RecoveryError)
        assert error.replayed_events == error.expected_events

    def test_blowout_checkpoint_recorded_and_reproduced(self, tmp_path):
        clock = SteppingClock()
        service = make_service(tmp_path, clock=clock)
        self._populate(service)
        clock.step = 2.0  # every apply now blows the 1s deadline
        service.apply(arrive("slowpoke", 0))
        clock.step = 0.0
        sid = service.shard_of(0)
        assert sid in service.quarantined
        # Deadline blowouts leave trusted state: a mid-stream
        # checkpoint is pinned for the rebuild to reproduce.
        checkpoint = service._pre_quarantine[sid]
        assert checkpoint is not None
        assert checkpoint.count == service._stream_count[sid]
        clock.advance(10.0)
        assert service.recover(sid)
        assert service.recovery_mismatches == 0

    def test_blowout_checkpoint_detects_divergent_history(self, tmp_path):
        import json

        clock = SteppingClock()
        service = make_service(tmp_path, clock=clock)
        self._populate(service)
        clock.step = 2.0
        service.apply(arrive("slowpoke", 0))
        clock.step = 0.0
        sid = service.shard_of(0)
        assert service._pre_quarantine[sid] is not None

        def flip_fraction(line, event):
            event["comm_fraction"] = 0.42 if event["comm_fraction"] != 0.42 else 0.17
            return json.dumps(event, sort_keys=True)

        self._tamper(service.log.path, sid, flip_fraction)
        clock.advance(10.0)
        assert not service.recover(sid)
        error = service.last_recovery_error
        assert isinstance(error, RecoveryError)
        assert "checkpoint" in str(error)

    def test_successful_recovery_clears_error_state(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock)
        self._populate(service)
        sid = self._desync(service)
        clock.advance(10.0)
        assert service.recover(sid)
        assert service.last_recovery_error is None
        assert service.recovery_mismatches == 0
        assert service.counters()["recovery_mismatches"] == 0


class TestObsCounters:
    def test_fleet_counters_account_for_every_request(self, tmp_path):
        ctx = ObsContext(tracer=Tracer(seed=4), metrics=MetricsRegistry())
        with observed(ctx):
            clock = FakeClock()
            service = make_service(tmp_path, clock=clock)
            for i in range(12):
                service.apply(arrive(f"a{i}", i % 8))
            service.apply({"op": "depart", "app": "ghost"})  # rejected
            for _ in range(15):
                service.query("t", QUERY)  # 10 served + 5 shed
            service.shards[0].apply({"op": "depart", "app": "a0", "machine": 0})
            service.apply({"op": "depart", "app": "a0"})  # quarantines
            clock.advance(5.0)
            service.recover(0)
        counters = ctx.snapshot().counters
        assert counters.get("fleet.admitted") == 13
        assert counters.get("fleet.rejected") == 1
        assert counters.get("fleet.served") == 10
        assert counters.get("fleet.shed") == 5
        assert counters.get("fleet.quarantines") == 1
        assert counters.get("fleet.rebuilds") == 1

    def test_gauges_track_registry_and_queue(self):
        ctx = ObsContext(tracer=Tracer(seed=4), metrics=MetricsRegistry())
        with observed(ctx):
            service = make_service()
            service.submit(arrive("a", 0))
            service.pump()
        gauges = ctx.snapshot().gauges
        assert gauges.get("fleet.registered") == 1.0
        assert gauges.get("fleet.queue_depth") == 0.0


class TestServiceValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            FleetService(machines=0)
        with pytest.raises(ValueError):
            FleetService(machines=4, num_shards=0)

    def test_more_shards_than_machines_clamped(self):
        service = FleetService(machines=2, num_shards=16)
        assert service.num_shards == 2
