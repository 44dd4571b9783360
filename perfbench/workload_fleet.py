"""The fleet workloads: ``serve``, ``ingest`` and ``failover``.

All three are closed loops with one caller: the benchmark sends its next
operation only after the previous one returned, and times each call
from outside with ``perf_counter_ns``.

* ``serve`` — placement queries, one durable arrive/depart event per
  50 queries (read-heavy).
* ``ingest`` — durable arrive/depart events (35 % departures), one
  query per 20 events (write-heavy).
* ``failover`` — ``ingest``'s mix against ``SupervisedFleetService``
  with ``nproc - 1`` workers (at least one) and 32-event frames; the
  benchmark SIGKILLs a worker three times at seeded offsets and keeps
  going through respawn and journal replay.

The fleet: 64 machines, 25,000 apps (~390 per machine), 4 shards
(``failover``: one shard per worker), 8 tenants with unmetered
quotas, queries over 32 candidates, events from ``synthetic_feed``,
and the durable journal ``EventLog(sync=True)``.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.batch import placement_grid
from repro.experiments.calibrate import calibrate_paragon
from repro.experiments.journal import EventLog
from repro.fleet import (
    AdmissionController,
    FleetService,
    PlacementQuery,
    SupervisedFleetService,
    SupervisorPolicy,
    TenantQuota,
    synthetic_feed,
)
from repro.platforms.specs import DEFAULT_SUNPARAGON
from repro.reliability.degrade import Confidence

import spans
from common import Phase, Run, nearest_rank

MACHINES = 64
APPS = 25_000
SHARDS = 4
TENANTS = 8
CANDIDATES = 32
QUERIES_PER_EVENT = 50  # serve
EVENTS_PER_QUERY = 20  # ingest, failover
BATCH_SIZE = 32  # failover frames
KILLS = 3
#: Setup repetitions before and after the timed phase (traced runs: one).
SETUP_REPS = (3, 3)
#: Distinct query shapes drawn per run; each op builds a fresh object.
QUERY_POOL = 4096
#: One answer in this many is re-scored through ``placement_grid``.
RESCORE_EVERY = 256
#: Seconds one failover recovery may take before the run fails.
RECOVERY_LIMIT_S = 60.0
#: Seconds between probe queries while a killed worker recovers.
PROBE_INTERVAL_S = 0.05


def worker_count() -> int:
    """``nproc - 1`` supervised workers, at least one."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


def _admission() -> AdmissionController:
    # Unmetered: admission still runs on every call but never sheds, so
    # wall-clock token refill cannot change what the run measures.
    return AdmissionController(
        default=TenantQuota(query_rate=1e12, query_burst=1e12, max_apps=10**9)
    )


@dataclass
class Fleet:
    """One built fleet: the service, its journal, and setup timings."""

    service: FleetService
    log: EventLog
    parts: dict[str, float] = field(default_factory=dict)
    #: Setup operations ``(sent, failed)``: population events + warm-up.
    setup_ops: tuple[int, int] = (0, 0)


def population(seed: int) -> list[dict]:
    """The seeded arrivals that populate the fleet (25,000 apps)."""
    return list(
        synthetic_feed(
            seed=seed,
            events=APPS,
            machines=MACHINES,
            tenants=TENANTS,
            depart_probability=0.0,
        )
    )


def _build(workload: str, cal: Any, events: list[dict], path: str, rec) -> Fleet:
    """Construct, populate through ``apply`` and warm up one fleet.

    Only deterministic work is timed. The journal is detached while the
    population goes through ``apply`` and written afterwards, untimed,
    by :func:`_journal_population`: journal writes are disk I/O, and
    they made setup time drift from run to run even with fsync off.
    """
    tables = dict(
        delay_comp=cal.delay_comp,
        delay_comm=cal.delay_comm,
        delay_comm_sized=cal.delay_comm_sized,
    )
    log = EventLog(path, sync=False)
    first = "spawn" if workload == "failover" else "construct"
    t0 = time.perf_counter()
    root = rec.open(rec.name_id(f"setup.{first}")) if rec else None
    if workload == "failover":
        service: FleetService = SupervisedFleetService(
            machines=MACHINES,
            num_shards=worker_count(),
            admission=_admission(),
            log=log,
            supervisor=SupervisorPolicy(batch_size=BATCH_SIZE),
            **tables,
        )
    else:
        service = FleetService(
            machines=MACHINES,
            num_shards=SHARDS,
            admission=_admission(),
            log=log,
            **tables,
        )
    if rec:
        rec.close(root)
    service.log = None
    t1 = time.perf_counter()
    root = rec.open(rec.name_id("setup.populate")) if rec else None
    refused = 0
    for event in events:
        refused += not service.apply(event)
    if rec:
        rec.close(root)
    t2 = time.perf_counter()
    root = rec.open(rec.name_id("setup.warmup")) if rec else None
    # One full-fleet query derives every machine's slowdowns, so the
    # timed phase starts from the memoized steady state.
    warm = service.query("tenant-0", PlacementQuery(dcomp_frontend=1.0))
    if rec:
        rec.close(root)
    t3 = time.perf_counter()
    service.log = log
    parts = {first: t1 - t0, "populate": t2 - t1, "warmup": t3 - t2}
    return Fleet(service, log, parts, (len(events) + 1, refused + warm.shed))


def _journal_population(log: EventLog, events: list[dict]) -> None:
    """Write the population to the journal, make it durable, sync on.

    Each event is appended exactly as ``apply`` would have logged it
    (the feed's events are already in validated form), so the one
    journal holds every event in order: a replay rebuilds the same
    state and the same stream chain. ``EventLog.append`` flushes on
    every call, so an fsync on any descriptor of the file covers them.
    """
    for event in events:
        log.append(event)
    fd = os.open(log.path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    log.sync = True


class Ops:
    """The seeded closed-loop operation stream of one fleet workload."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        rng = np.random.default_rng(seed * 1_000_003 + 17)
        order = np.argsort(rng.random((QUERY_POOL, MACHINES)), axis=1)
        self.candidates = [
            tuple(int(m) for m in row[:CANDIDATES]) for row in order
        ]
        self.costs = np.column_stack(
            [
                rng.uniform(0.5, 2.0, QUERY_POOL),  # dcomp_frontend
                rng.uniform(0.1, 0.8, QUERY_POOL),  # backend_dcomp
                rng.uniform(0.0, 0.2, QUERY_POOL),  # backend_didle
                rng.uniform(0.05, 0.4, QUERY_POOL),  # backend_dserial
                rng.uniform(0.01, 0.1, QUERY_POOL),  # dcomm_out
                rng.uniform(0.01, 0.1, QUERY_POOL),  # dcomm_in
            ]
        ).tolist()
        #: Seeded phase of the re-score sample (see :func:`_query`).
        self.rescore_offset = int(rng.integers(RESCORE_EVERY))
        self.feed = synthetic_feed(
            seed=seed * 7919 + 1,
            events=10**9,
            machines=MACHINES,
            tenants=TENANTS,
        )
        self.index = 0

    def is_event(self, i: int) -> bool:
        if self.workload == "serve":
            return i % (QUERIES_PER_EVENT + 1) == QUERIES_PER_EVENT
        return i % (EVENTS_PER_QUERY + 1) != EVENTS_PER_QUERY

    def event(self) -> dict:
        event = next(self.feed)
        # The timed feed's names must not collide with the population's.
        event["app"] = "w-" + event["app"]
        return event

    def query(self, i: int) -> tuple[str, PlacementQuery]:
        k = i % QUERY_POOL
        return f"tenant-{i % TENANTS}", PlacementQuery(
            *self.costs[k], candidates=self.candidates[k]
        )


def _rescore_ok(service: FleetService, query: PlacementQuery, answer) -> bool:
    """Re-score *query* with ``core.batch.placement_grid``; bit-equal?"""
    cands = np.asarray(query.candidates, dtype=np.int64)
    comp = np.empty(cands.size)
    comm = np.empty(cands.size)
    for k, machine in enumerate(cands.tolist()):
        shard = service.shards[service.shard_of(machine)]
        c, m, _ = shard.slowdowns_batch([machine])[machine]
        comp[k], comm[k] = c, m
    grid = placement_grid(
        query.dcomp_frontend,
        query.backend_dcomp,
        query.backend_didle,
        query.backend_dserial,
        query.dcomm_out,
        query.dcomm_in,
        comp,
        comm,
    )
    best = int(np.argmin(grid.best_time))
    return int(cands[best]) == answer.machine and float(grid.best_time[best]) == answer.best_time


@dataclass
class Timed:
    """What one timed phase measured."""

    wall_ns: int = 0
    # Per-operation records are 8-byte array slots, not int objects: the
    # records grow with throughput, and they count in the peak RSS.
    #: Latency of each event and each query, ns.
    events: array = field(default_factory=lambda: array("q"))
    queries: array = field(default_factory=lambda: array("q"))
    phase: Phase = field(default_factory=lambda: Phase("timed"))
    tiers: dict = field(default_factory=lambda: {c.name: 0 for c in Confidence})
    rescored: int = 0
    rescore_failed: int = 0
    windows: list = field(default_factory=list)
    #: Nanoseconds spent waiting out recovery windows so far.
    blocked_ns: int = 0
    #: Per operation, the serving time (phase time outside recovery
    #: windows) at which it completed.
    done: array = field(default_factory=lambda: array("q"))

    @property
    def ops(self) -> int:
        return len(self.events) + len(self.queries)


class KillPlan:
    """Seeded SIGKILL offsets and the recovery windows they open."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed * 31 + 5)
        # Kill k lands in [5 + 22k, 15 + 22k] % of the phase; a kill
        # waits until the previous recovery has finished.
        self.at_ns = [
            int(seconds * 1e9 * (0.05 + 0.22 * k + 0.10 * float(rng.random())))
            for k in range(KILLS)
        ]
        self.sid_draw = [float(rng.random()) for _ in range(KILLS)]
        self.done = 0
        self.window: dict | None = None
        self.windows: list[dict] = []

    @property
    def finished(self) -> bool:
        return self.done == KILLS and self.window is None

    def step(self, service: SupervisedFleetService, elapsed_ns: int, now_ns: int) -> None:
        w = self.window
        if w is not None:
            state = service.worker_state(w["sid"])
            if state != "live" and w["down_ns"] is None:
                w["down_ns"] = now_ns
            if state == "replaying" and w["replaying_ns"] is None:
                w["replaying_ns"] = now_ns
            if state == "live" and w["down_ns"] is not None:
                w["live_ns"] = now_ns
                self.windows.append(w)
                self.window = None
            return
        if self.done < KILLS and elapsed_ns >= self.at_ns[self.done]:
            sid = int(self.sid_draw[self.done] * service.num_shards)
            pid = service.worker_pid(sid)
            self.window = {
                "sid": sid,
                "kill_ns": time.perf_counter_ns(),
                "down_ns": None,
                "replaying_ns": None,
                "live_ns": None,
                "phase": Phase(f"recovery {self.done + 1}"),
            }
            os.kill(pid, signal.SIGKILL)
            self.done += 1


def _query(
    service: FleetService, ops: Ops, i: int, out: Timed, rec, query_id: int
) -> tuple[bool, int]:
    """One timed placement query; ``(answer ok, latency ns)``."""
    tenant, query = ops.query(i)
    t = time.perf_counter_ns()
    if rec:
        root = rec.open(query_id)
    try:
        answer = service.query(tenant, query)
    except Exception:  # noqa: BLE001 - a raised call is a failed op
        answer = None
    if rec:
        rec.close(root)
    took = time.perf_counter_ns() - t
    if answer is None or answer.shed or answer.machine not in query.candidates:
        return False, took
    k = sum(out.tiers.values())
    out.tiers[answer.confidence.name] += 1
    # The first answer of a phase and every RESCORE_EVERY-th after a
    # seeded offset: a deterministic sample that is never empty.
    sampled = k == 0 or (k + ops.rescore_offset) % RESCORE_EVERY == 0
    if sampled and service.__class__ is FleetService:
        if rec:
            rec.paused = True
        out.rescored += 1
        ok = _rescore_ok(service, query, answer)
        out.rescore_failed += not ok
        if rec:
            rec.paused = False
        return ok, took
    return True, took


def _recover(service: SupervisedFleetService, ops: Ops, kills: KillPlan, start: int) -> None:
    """Wait out one recovery window as a blocked caller.

    The caller holds its feed: catch-up replay rounds re-read the whole
    journal, so under a steady durable feed they never reach a round
    with nothing new and the worker would never go live again. While it
    waits it drives supervision with ``tick()`` and sends one probe
    query every ``PROBE_INTERVAL_S``; probes count in the window's
    operation accounting, not in throughput or latency.
    """
    window = kills.window
    probes = Timed()
    next_probe = time.perf_counter_ns()
    while kills.window is window:
        now = time.perf_counter_ns()
        if now >= next_probe:
            ok, _ = _query(service, ops, ops.index, probes, None, 0)
            ops.index += 1
            window["phase"].record(ok)
            next_probe = now + int(PROBE_INTERVAL_S * 1e9)
        else:
            service.tick()
            time.sleep(0.001)
        now = time.perf_counter_ns()
        kills.step(service, now - start, now)
        if now - window["kill_ns"] > RECOVERY_LIMIT_S * 1e9:
            return
    window["probe_tiers"] = probes.tiers


def _timed(fleet: Fleet, ops: Ops, seconds: float, rec, kills: KillPlan | None) -> Timed:
    service = fleet.service
    out = Timed()
    event_id = rec.name_id("op.event") if rec else 0
    query_id = rec.name_id("op.query") if rec else 0
    start = time.perf_counter_ns()
    stop = start + int(seconds * 1e9)
    now = start
    while now < stop or (kills is not None and not kills.finished):
        if kills is not None and kills.window is not None:
            window = kills.window
            _recover(service, ops, kills, start)
            if kills.window is not None:
                break  # never recovered: the checks fail the run
            out.blocked_ns += window["live_ns"] - window["kill_ns"]
            now = time.perf_counter_ns()
            continue
        i = ops.index
        ops.index += 1
        if rec:
            rec.op_id = i
        if ops.is_event(i):
            event = ops.event()
            t = time.perf_counter_ns()
            if rec:
                root = rec.open(event_id)
            try:
                ok = service.apply(event)
            except Exception:  # noqa: BLE001 - a raised call is a failed op
                ok = False
            if rec:
                rec.close(root)
            now = time.perf_counter_ns()
            out.events.append(now - t)
        else:
            ok, took = _query(service, ops, i, out, rec, query_id)
            now = time.perf_counter_ns()
            out.queries.append(took)
        out.phase.record(ok)
        out.done.append(now - start - out.blocked_ns)
        if kills is not None:
            kills.step(service, now - start, now)
    out.wall_ns = time.perf_counter_ns() - start
    if kills is not None:
        out.windows = kills.windows
    return out


def _discard(fleet: Fleet) -> None:
    fleet.service.close()
    fleet.log.close()
    os.unlink(fleet.log.path)


def _setup(
    workload: str, cal: Any, events: list[dict], tmpdir: str, reps: int, result: Run, name: str
) -> Fleet:
    """Build the fleet *reps* times, untraced; return the last one.

    Each earlier repetition is discarded before the next starts, and a
    full collection runs first, so every repetition starts from the
    same heap. The fleet returned is not journaled yet.
    """
    phase = Phase(name)
    fleet = None
    for _ in range(reps):
        if fleet is not None:
            _discard(fleet)
            fleet = None
        gc.collect()
        path = os.path.join(tmpdir, f"wal-{len(result.setup_parts)}.jsonl")
        fleet = _build(workload, cal, events, path, None)
        result.setup_parts.append(fleet.parts)
        phase.add(*fleet.setup_ops)
    result.setup_s = [sum(parts.values()) for parts in result.setup_parts]
    result.phases.append(phase)
    return fleet


def _add_phases(result: Run, timed: Timed, prefix: str = "") -> None:
    for phase in [timed.phase] + [w["phase"] for w in timed.windows]:
        phase.name = prefix + phase.name
        result.phases.append(phase)


def _require(checks: dict[str, bool], name: str, ok: bool) -> None:
    """Record one check; a name checked on two fleets must pass on both."""
    checks[name] = checks.get(name, True) and ok


def _check(workload: str, cal: Any, fleet: Fleet, timed: Timed, result: Run) -> dict:
    """Check one fleet after its timed phase, then close it.

    Returns the service's counters plus the journal's ``bytes_per_event``.
    """
    service = fleet.service
    checks = result.checks
    if isinstance(service, SupervisedFleetService):
        _require(checks, "every_kill_recovered", len(timed.windows) == KILLS)
        _require(checks, "recovered", service.await_recovery(timeout=RECOVERY_LIMIT_S))
    final_hash = service.state_hash()
    counters = service.counters()
    service.close()
    fleet.log.close()
    oracle = FleetService(
        machines=MACHINES,
        num_shards=service.num_shards,
        admission=_admission(),
        delay_comp=cal.delay_comp,
        delay_comm=cal.delay_comm,
        delay_comm_sized=cal.delay_comm_sized,
    )
    replayed = 0
    for event in EventLog.replay(fleet.log.path):
        oracle.apply(event)
        replayed += 1
    _require(checks, "journal_replay_state_hash", oracle.state_hash() == final_hash)
    _require(checks, "journal_holds_every_event", replayed == counters["admitted_events"])
    if workload == "failover":
        _require(checks, "respawns_equal_kills", counters["respawns"] == len(timed.windows))
        _require(checks, "recovery_mismatches_zero", counters["recovery_mismatches"] == 0)
    else:
        _require(
            checks,
            "placement_grid_rescore",
            timed.rescored > 0 and timed.rescore_failed == 0,
        )
        result.notes.append(
            f"{timed.phase.name}: rescored {timed.rescored} sampled answers bit-equal"
        )
    counters["bytes_per_event"] = os.path.getsize(fleet.log.path) / max(replayed, 1)
    return counters


def _overhead(untraced: Timed, traced: Timed) -> float:
    """``1 - traced / untraced`` serving rate over the same operations.

    Both phases start from a freshly built fleet and send the same
    operation stream, so the traced phase's operations are compared
    with the untraced phase's first as many: fleet growth during a
    phase cannot pass for tracing overhead. Recovery windows are
    excluded on both sides.
    """
    n = min(len(untraced.done), len(traced.done))
    if n == 0:
        return 0.0
    return 1.0 - untraced.done[n - 1] / traced.done[n - 1]


def _traced(args, cal: Any, events: list[dict], tmpdir: str, result: Run, untraced: Timed):
    """Build a fresh fleet and rerun the timed phase with every layer wrapped.

    Returns the traced phase and the traced fleet's counters.
    """
    workload = args.workload
    rec = spans.Recorder()
    patches = spans.Patches()
    spans.install_all(rec, patches)
    try:
        setup_lo = rec.mark()
        fleet = _build(workload, cal, events, os.path.join(tmpdir, "wal-traced.jsonl"), rec)
        setup_hi = rec.mark()
        setup_counts = dict(rec.counts)
        rec.paused = True
        _journal_population(fleet.log, events)
        rec.paused = False
        rec.counts.clear()
        lo = rec.mark()
        kills = KillPlan(args.seed, args.seconds) if workload == "failover" else None
        traced = _timed(fleet, Ops(workload, args.seed), args.seconds, rec, kills)
        hi = rec.mark()
        timed_counts = dict(rec.counts)
    finally:
        patches.undo()
    setup = Phase("traced setup")
    setup.add(*fleet.setup_ops)
    result.phases.append(setup)
    _add_phases(result, traced, "traced ")
    result.trace = dict(
        rec=rec,
        setup=(setup_lo, setup_hi),
        timed=(lo, hi),
        setup_counts=setup_counts,
        timed_counts=timed_counts,
        wall_ns=traced.wall_ns,
        overhead_share=_overhead(untraced, traced),
        batch_size=BATCH_SIZE,
    )
    return traced, _check(workload, cal, fleet, traced, result)


def _windows_median_s(windows: list[dict], start: str, end: str) -> float:
    """Median seconds from ``window[start]`` to ``window[end]``."""
    spans_ns = [(w[end] or w["live_ns"]) - (w[start] or w["live_ns"]) for w in windows]
    return float(np.median(spans_ns)) / 1e9


def run(args, tmpdir: str) -> Run:
    """Run one fleet workload end to end; return its measurements.

    The untraced timed phase gives the end-to-end metrics. A traced run
    then builds a second fleet and repeats the phase with every layer
    wrapped; the per-layer metrics describe that phase.
    """
    workload = args.workload
    seed = args.seed
    cal = calibrate_paragon(DEFAULT_SUNPARAGON)
    result = Run(workload, workers=worker_count() if workload == "failover" else 0)
    events = population(seed)
    before, after = (1, 0) if args.trace else SETUP_REPS
    fleet = _setup(workload, cal, events, tmpdir, before, result, "setup")
    _journal_population(fleet.log, events)
    kills = KillPlan(seed, args.seconds) if workload == "failover" else None
    timed = _timed(fleet, Ops(workload, seed), args.seconds, None, kills)
    # The program's peak: setup and the timed phase, before the checks
    # build their oracle.
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _add_phases(result, timed)
    counters = _check(workload, cal, fleet, timed, result)
    if after:
        # The machine's speed drifts over seconds, so repetitions spread
        # over the whole run give a steadier median than a burst at the
        # start would.
        _discard(_setup(workload, cal, events, tmpdir, after, result, "setup after timed"))
    traced = None
    if args.trace:
        traced, traced_counters = _traced(args, cal, events, tmpdir, result, timed)

    ev = sorted(timed.events)
    qs = sorted(timed.queries)
    # The gated latency is the query's on every fleet workload: memoized
    # on serve, re-deriving the machines the events dirtied on ingest,
    # and waiting for the worker to drain its frames on failover. The
    # durable event's latency is mostly the disk's fsync, which moved
    # by more than the bound between runs of the same code; the WAL's
    # cost is gated through ingest's throughput instead.
    # Throughput counts serving time only: recovery is measured by
    # ``recovery_s``, and the windows' length moved with the machine.
    result.ops_per_s = timed.ops / ((timed.wall_ns - timed.blocked_ns) / 1e9)
    result.e2e.update(
        ops_per_s=(result.ops_per_s, "1/s"),
        main_p50_us=(nearest_rank(qs, 0.50) / 1e3, "us"),
    )
    answers = sum(timed.tiers.values())
    detail = result.detail
    detail["event_p50_us"] = (nearest_rank(ev, 0.50) / 1e3, "us")
    detail["event_p99_us"] = (nearest_rank(ev, 0.99) / 1e3, "us")
    detail["query_p50_us"] = (nearest_rank(qs, 0.50) / 1e3, "us")
    detail["query_p99_us"] = (nearest_rank(qs, 0.99) / 1e3, "us")
    detail["calibrated_share"] = (timed.tiers["CALIBRATED"] / max(answers, 1), "ratio")
    detail["extrapolated_share"] = (timed.tiers["EXTRAPOLATED"] / max(answers, 1), "ratio")
    detail["analytic_share"] = (timed.tiers["ANALYTIC"] / max(answers, 1), "ratio")
    result.notes.append(
        f"samples: {len(ev)} events, {len(qs)} queries; "
        f"registered apps at end {counters['registered']}"
    )
    if traced is not None:
        result.layer_extra["experiments.journal.bytes_per_event"] = traced_counters[
            "bytes_per_event"
        ]
    if workload == "failover" and timed.windows:
        recov = sorted((w["live_ns"] - w["kill_ns"]) / 1e9 for w in timed.windows)
        detail["recovery_s"] = (recov[len(recov) // 2], "s")
        result.notes.append(
            "recoveries (kill -> live, s): "
            + ", ".join(f"{(w['live_ns'] - w['kill_ns']) / 1e9:.3f}" for w in timed.windows)
        )
        probes = {c.name: sum(w["probe_tiers"][c.name] for w in timed.windows) for c in Confidence}
        result.notes.append(
            "recovery probe answers by tier: "
            + ", ".join(f"{name} {n}" for name, n in probes.items())
        )
    if workload == "failover" and traced is not None and traced.windows:
        result.layer_extra.update(
            {
                "fleet.supervisor.respawn_s": _windows_median_s(
                    traced.windows, "kill_ns", "replaying_ns"
                ),
                "fleet.supervisor.replay_s": _windows_median_s(
                    traced.windows, "replaying_ns", "live_ns"
                ),
                **{
                    f"fleet.supervisor.{key}": traced_counters[key]
                    for key in ("replay_events", "respawns", "recovery_mismatches")
                },
            }
        )
    return result
