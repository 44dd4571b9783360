"""The fleet contention service: sharded, multi-tenant, never raising.

:class:`FleetService` promotes the per-call contention predictor into a
long-running placement service, and its contract is a robustness
contract:

* **Admission first.** Every event is validated and quota-checked
  (:mod:`repro.fleet.admission`) before anything else sees it; every
  query spends a token from its tenant's bucket.
* **Write-ahead log.** An admitted event is appended durably to the
  :class:`~repro.experiments.journal.EventLog` *before* it touches the
  registry or a shard, so a crash at any instant loses at most the
  event in flight and a shard can always be rebuilt bit-identically by
  replay (:meth:`FleetService.recover`).
* **Load shedding, not load failing.** A query over quota is *shed*:
  answered from the registry's O(1) analytic aggregates
  (``p + 1``, ``1 + Σ f_k`` — :mod:`repro.reliability.degrade`),
  tagged ANALYTIC, counted in ``fleet.shed``. The bounded event queue
  refuses (``submit`` → False) instead of growing. Nothing in the
  query or event path raises on overload.
* **Quarantine and gated re-admission.** A shard that corrupts its
  stream sync (a :class:`~repro.errors.ModelError` out of ``apply``)
  is quarantined immediately; one that blows its deadline repeatedly
  is quarantined when its :class:`~repro.reliability.breaker.CircuitBreaker`
  trips. Quarantined machines keep answering — analytically — while
  the breaker gates rebuild attempts, and a spent breaker budget means
  the shard is analytic forever rather than flapping.

All ``fleet.*`` counters and gauges flow through the ambient
:mod:`repro.obs.context`, so a traced run accounts every admitted,
shed, rejected and quarantined request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.batch import PlacementGrid
from ..core.params import DelayTable, SizedDelayTable
from ..errors import ModelError, RecoveryError
from ..obs import context as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle: experiments imports fleet
    from ..experiments.journal import EventLog
from ..reliability.breaker import CircuitBreaker
from ..reliability.degrade import Confidence
from .admission import AdmissionController, BoundedQueue
from .registry import AppRecord, FleetRegistry
from .shard import (
    ArrayShard,
    ReplayCheckpoint,
    ReplayResult,
    Shard,
    ShardPolicy,
    replay_stream,
    stream_step,
    verify_replay,
)

__all__ = ["PlacementQuery", "PlacementAnswer", "FleetService"]


@dataclass(frozen=True)
class PlacementQuery:
    """One task asking the fleet where to run.

    The dedicated-mode costs mirror
    :func:`~repro.core.batch.placement_grid`; *candidates* restricts the
    scored machines (None scores the whole fleet).
    """

    dcomp_frontend: float
    backend_dcomp: float = 0.0
    backend_didle: float = 0.0
    backend_dserial: float = 0.0
    dcomm_out: float = 0.0
    dcomm_in: float = 0.0
    candidates: tuple[int, ...] | None = None

    @cached_property
    def _scalars(self) -> tuple[np.float64, ...]:
        """The six dedicated costs as validated float64s, cached.

        A query object is immutable, so the nonnegativity checks
        :func:`~repro.core.batch.placement_grid` would re-run on every
        call are paid once per object here (same messages, same
        exception type, same field order; NaN passes, as in
        ``check_nonnegative``). At fleet query rates the repeated
        scalar coercion and validation is a measurable slice of the
        per-query budget.
        """
        out = []
        for name, value in (
            ("dcomp", self.dcomp_frontend),
            ("dcomp", self.backend_dcomp),
            ("didle", self.backend_didle),
            ("dserial", self.backend_dserial),
            ("dcomm", self.dcomm_out),
            ("dcomm", self.dcomm_in),
        ):
            coerced = np.float64(value)
            if coerced < 0:
                raise ValueError(f"{name} must be >= 0, got {float(coerced)!r}")
            out.append(coerced)
        return tuple(out)

    @cached_property
    def _candidate_ids(self) -> np.ndarray | None:
        """Candidate tuple as an int64 array, coerced once per object."""
        if self.candidates is None:
            return None
        return np.asarray(self.candidates, dtype=np.int64)


@dataclass(frozen=True)
class PlacementAnswer:
    """The fleet's verdict: best machine, predicted time, provenance."""

    machine: int
    best_time: float
    offload: bool
    confidence: Confidence
    shed: bool = False


class FleetService:
    """Sharded contention-placement service over *machines* machines.

    Parameters
    ----------
    machines:
        Fleet size; machine ids are ``0..machines-1`` and machine ``m``
        lives on shard ``m % num_shards``.
    num_shards:
        Shard count (each shard holds one
        :class:`~repro.core.runtime.SlowdownManager` per machine).
    delay_comp, delay_comm, delay_comm_sized:
        Calibrated delay tables shared fleet-wide; ``None`` runs the
        whole fleet on the analytic fallback.
    admission:
        Tenant quotas and metering; defaults to
        :class:`AdmissionController` with its default quota.
    policy:
        Per-shard containment parameters (:class:`ShardPolicy`).
    log:
        Write-ahead :class:`~repro.experiments.journal.EventLog`.
        ``None`` disables durability (recovery degrades to a
        registry-based rebuild that is *not* bit-identical).
    queue_capacity:
        Bound on the event queue; :meth:`submit` refuses beyond it.
    clock:
        Monotonic time source shared with breakers and buckets.
    """

    def __init__(
        self,
        machines: int,
        num_shards: int = 4,
        delay_comp: DelayTable | None = None,
        delay_comm: DelayTable | None = None,
        delay_comm_sized: SizedDelayTable | None = None,
        admission: AdmissionController | None = None,
        policy: ShardPolicy | None = None,
        log: EventLog | None = None,
        queue_capacity: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
        self.machines = int(machines)
        self.num_shards = min(int(num_shards), self.machines)
        self.policy = policy if policy is not None else ShardPolicy()
        self.admission = (
            admission if admission is not None else AdmissionController(clock=clock)
        )
        self.log = log
        self._clock = clock
        self.registry = FleetRegistry(self.machines)
        self.queue = BoundedQueue(queue_capacity)
        # Struct-of-arrays backend: one ArrayShard per slice. The
        # object-backed Shard remains the differential oracle; both
        # answer (and hash) bit-identically.
        self.shards: list[ArrayShard | Shard] = [
            ArrayShard(
                sid,
                range(sid, self.machines, self.num_shards),
                delay_comp,
                delay_comm,
                delay_comm_sized,
            )
            for sid in range(self.num_shards)
        ]
        self.breakers: list[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=self.policy.failure_threshold,
                recovery_time=self.policy.recovery_time,
                budget=self.policy.budget,
                clock=clock,
            )
            for _ in range(self.num_shards)
        ]
        self.quarantined: set[int] = set()
        # Per-shard stream accounting for recovery verification: how
        # many admitted events each shard's slice has seen and the
        # rolling hash chain over them (:func:`~repro.fleet.shard
        # .stream_step`). A journal replay must land on exactly this
        # (count, chain) pair before a rebuilt shard is re-admitted.
        self._stream_count: list[int] = [0] * self.num_shards
        self._stream_chain: list[bytes] = [b""] * self.num_shards
        # Checkpoint taken at quarantine time when the shard's state
        # was still trusted (deadline blowouts, not desyncs): the
        # replay must reproduce this state_hash mid-stream too.
        self._pre_quarantine: dict[int, ReplayCheckpoint | None] = {}
        #: The structured error from the last failed rebuild, if any.
        self.last_recovery_error: RecoveryError | None = None
        # Fleet-wide memoized slowdown vectors: the served-query path
        # gathers candidates by fancy indexing instead of looping in
        # Python (the difference between ~9k and ~15k queries/sec at
        # fleet scale). ``_stale`` holds machines whose entry must be
        # re-derived from their shard first; an untouched machine is
        # calibrated unity, matching :meth:`Shard.slowdowns`.
        self._comp = np.ones(self.machines)
        self._comm = np.ones(self.machines)
        self._conf = np.full(self.machines, int(Confidence.CALIBRATED), dtype=np.int64)
        self._stale: set[int] = set()
        # Request accounting — the overload proof reads these.
        self.admitted_events = 0
        self.rejected_events = 0
        self.served_queries = 0
        self.shed_queries = 0
        self.degraded_queries = 0
        self.quarantines = 0
        self.rebuilds = 0
        self.recovery_mismatches = 0

    # -- routing --------------------------------------------------------------

    def shard_of(self, machine: int) -> int:
        """The shard id owning *machine*."""
        return machine % self.num_shards

    # -- event feed -----------------------------------------------------------

    def submit(self, event: Mapping[str, Any]) -> bool:
        """Enqueue one event; False is backpressure (queue full)."""
        accepted = self.queue.offer(dict(event))
        if not accepted:
            _obs.inc("fleet.backpressure")
        _obs.set_gauge("fleet.queue_depth", float(len(self.queue)))
        return accepted

    def pump(self, max_events: int | None = None) -> int:
        """Drain up to *max_events* queued events; return the count applied."""
        applied = 0
        while max_events is None or applied < max_events:
            event = self.queue.take()
            if event is None:
                break
            self.apply(event)
            applied += 1
        _obs.set_gauge("fleet.queue_depth", float(len(self.queue)))
        return applied

    def _validated(self, event: Mapping[str, Any]) -> dict[str, Any] | None:
        """Admission-check *event*; None rejects (counted, never raises)."""
        op = event.get("op")
        if op == "arrive":
            name = event.get("app")
            tenant = str(event.get("tenant", ""))
            machine = event.get("machine")
            if (
                not name
                or name in self.registry
                or not isinstance(machine, int)
                or not 0 <= machine < self.machines
            ):
                return None
            if not self.admission.admit_app(tenant, self.registry.tenant_count(tenant)):
                _obs.inc("fleet.quota_rejections")
                return None
            try:
                frac = float(event["comm_fraction"])
                size = float(event.get("message_size", 0.0))
                record = AppRecord(str(name), tenant, machine, frac, size)
                record.profile()  # profile validation (fractions, sizes)
            except (KeyError, TypeError, ValueError, ModelError):
                return None
            return {
                "op": "arrive",
                "app": record.name,
                "tenant": record.tenant,
                "machine": record.machine,
                "comm_fraction": record.comm_fraction,
                "message_size": record.message_size,
            }
        if op == "depart":
            record = self.registry.get(str(event.get("app", "")))
            if record is None:
                return None
            # Enriched from the registry so a bare depart replays
            # self-contained.
            return {
                "op": "depart",
                "app": record.name,
                "tenant": record.tenant,
                "machine": record.machine,
                "comm_fraction": record.comm_fraction,
                "message_size": record.message_size,
            }
        return None

    def apply(self, event: Mapping[str, Any]) -> bool:
        """Validate, log, and apply one event. Never raises.

        Write-ahead discipline: the event reaches the durable log
        before the registry or any shard, so replay always covers
        whatever the live structures saw.
        """
        validated = self._validated(event)
        if validated is None:
            self.rejected_events += 1
            _obs.inc("fleet.rejected")
            return False
        if self.log is not None:
            validated = self.log.append(validated)
        record = AppRecord(
            validated["app"],
            validated["tenant"],
            validated["machine"],
            validated["comm_fraction"],
            validated["message_size"],
        )
        if validated["op"] == "arrive":
            self.registry.add(record)
        else:
            self.registry.remove(record.name)
        self.admitted_events += 1
        _obs.inc("fleet.admitted")
        _obs.set_gauge("fleet.registered", float(len(self.registry)))
        sid = self.shard_of(record.machine)
        # Stream accounting advances for every admitted event — even
        # ones a quarantined shard never sees — because it describes
        # the durable stream a rebuild must reproduce, not the shard.
        self._stream_count[sid] += 1
        self._stream_chain[sid] = stream_step(self._stream_chain[sid], validated)
        if not self._shard_accepts(sid):
            # The shard catches up from the log at recovery time.
            return True
        self._shard_apply(sid, validated)
        return True

    # -- shard backend seam ----------------------------------------------------
    #
    # Everything the service needs from a shard funnels through these
    # five hooks, so the supervised subclass
    # (:class:`repro.fleet.supervisor.SupervisedFleetService`) can move
    # shards into worker processes without touching the admission, log,
    # registry, or query logic above.

    def _shard_accepts(self, sid: int) -> bool:
        """May shard *sid* receive this event right now?"""
        return sid not in self.quarantined

    def _shard_apply(self, sid: int, validated: dict[str, Any]) -> None:
        """Apply one validated, logged event to shard *sid*."""
        shard = self.shards[sid]
        started = self._clock()
        try:
            shard.apply(validated)
        except ModelError:
            # The shard missed a logged event: its state no longer
            # matches the stream — quarantine immediately.
            self.breakers[sid].record_failure()
            self._quarantine(sid, "stream desync")
            return
        self._stale.add(validated["machine"])
        if self._clock() - started > self.policy.deadline:
            # Deadline blowout: state is intact but the shard is too
            # slow to keep up; quarantine once the breaker trips.
            self.breakers[sid].record_failure()
            _obs.inc("fleet.deadline_blowouts")
            if self.breakers[sid].state != "closed":
                self._quarantine(sid, "deadline blowout", state_trusted=True)
        else:
            self.breakers[sid].record_success()

    def _shard_slowdowns(
        self, sid: int, machines: Sequence[int]
    ) -> dict[int, tuple[float, float, Confidence]] | None:
        """Tagged slowdowns for *machines* of shard *sid*; None keeps them stale."""
        return self.shards[sid].slowdowns_batch(machines)

    def _shard_state_hash(self, sid: int) -> str:
        """Shard *sid*'s state fingerprint (see :meth:`Shard.state_hash`)."""
        return self.shards[sid].state_hash()

    def _note_failover(self, count: int) -> None:
        """Hook: *count* candidates were answered from registry aggregates."""

    def _quarantine(self, sid: int, reason: str, state_trusted: bool = False) -> None:
        if sid in self.quarantined:
            return
        self.quarantined.add(sid)
        self._pre_quarantine[sid] = self._recovery_checkpoint(sid, state_trusted)
        self.quarantines += 1
        _obs.inc("fleet.quarantines")
        _obs.set_gauge("fleet.quarantined_shards", float(len(self.quarantined)))

    def _recovery_checkpoint(
        self, sid: int, state_trusted: bool
    ) -> ReplayCheckpoint | None:
        """Fingerprint the shard's last known-good state, if there is one.

        A desync quarantine means the shard's state already diverged
        from the stream, so there is nothing trustworthy to pin; the
        rebuild is then verified against the stream chain alone.
        """
        if not state_trusted:
            return None
        return ReplayCheckpoint(
            self._stream_count[sid], self.shards[sid].state_hash()
        )

    # -- recovery -------------------------------------------------------------

    def recover(self, sid: int) -> bool:
        """Attempt to rebuild quarantined shard *sid* and re-admit it.

        Gated by the shard's breaker: before ``recovery_time`` has
        passed (or after the rebuild budget is spent) the attempt is
        rejected outright. With an event log the rebuild replays the
        durable stream through a fresh shard (:meth:`_rebuild`) —
        bit-identical to a shard that never failed — and is
        **verified** before re-admission
        (:func:`~repro.fleet.shard.verify_replay`): the replayed event
        count and rolling stream hash must match the service's live
        accounting, and when a trusted pre-quarantine checkpoint exists
        the rebuilt ``state_hash`` must reproduce it mid-stream. A
        mismatch (e.g. a corrupted journal line silently truncating the
        replay) surfaces as a :class:`~repro.errors.RecoveryError` in
        :attr:`last_recovery_error` plus the ``recovery_mismatches``
        counter, and the shard *stays quarantined*. Without a log the
        rebuild falls back to re-arriving the registry's live records,
        which recovers the *population* but not the departed
        applications' numerical history (and cannot be verified).
        """
        if sid not in self.quarantined:
            return True
        breaker = self.breakers[sid]
        if not breaker.allow():
            return False
        if self.log is not None:
            rebuilt, result = self._rebuild(sid, self._pre_quarantine.get(sid))
            error = verify_replay(
                sid, result, self._stream_count[sid], self._stream_chain[sid]
            )
            if error is not None:
                self._note_recovery_mismatch(error)
                breaker.record_failure()
                return False
        else:
            rebuilt = self.shards[sid].fresh()
            for record in self.registry.on_machines(list(rebuilt.machine_ids)):
                rebuilt.apply(
                    {
                        "op": "arrive",
                        "app": record.name,
                        "tenant": record.tenant,
                        "machine": record.machine,
                        "comm_fraction": record.comm_fraction,
                        "message_size": record.message_size,
                    }
                )
        self.shards[sid] = rebuilt
        self._readmit(sid)
        return True

    def _rebuild(
        self, sid: int, checkpoint: ReplayCheckpoint | None = None
    ) -> tuple[ArrayShard | Shard, ReplayResult]:
        """Replay the journal through a fresh copy of shard *sid*."""
        from ..experiments.journal import EventLog

        rebuilt = self.shards[sid].fresh()
        return rebuilt, replay_stream(
            rebuilt, EventLog.replay(self.log.path), checkpoint=checkpoint
        )

    def _readmit(self, sid: int) -> None:
        """Lift shard *sid*'s quarantine after a verified rebuild."""
        self.breakers[sid].record_success()
        self.quarantined.discard(sid)
        self._pre_quarantine.pop(sid, None)
        self.last_recovery_error = None
        self._stale.update(self.shards[sid].machine_ids)
        self.rebuilds += 1
        _obs.inc("fleet.rebuilds")
        _obs.set_gauge("fleet.quarantined_shards", float(len(self.quarantined)))

    def _note_recovery_mismatch(self, error: RecoveryError) -> None:
        self.last_recovery_error = error
        self.recovery_mismatches += 1
        _obs.inc("fleet.recovery_mismatches")

    # -- queries --------------------------------------------------------------

    def _analytic_slowdowns(
        self, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Registry-aggregate analytic ``(comp, comm)`` per candidate.

        ``p + 1`` and ``1 + Σ f_k`` straight from the O(1) per-machine
        aggregates — no shard state touched, so this path works during
        overload and against quarantined shards alike.
        """
        counts = self.registry.machine_counts[candidates]
        sums = self.registry.machine_comm_sums[candidates]
        return counts + 1.0, 1.0 + np.maximum(sums, 0.0)

    def _refresh(self) -> None:
        """Pull stale machines' slowdowns from their shards into the vectors.

        Machines owned by quarantined shards stay stale — their shard
        state is untrusted; they are re-derived after recovery (which
        re-marks the whole shard) and served analytically until then.
        """
        if not self._stale:
            return
        by_sid: dict[int, list[int]] = {}
        for machine in self._stale:
            by_sid.setdefault(machine % self.num_shards, []).append(machine)
        refreshed: list[int] = []
        for sid, machines in by_sid.items():
            if sid in self.quarantined:
                continue
            slowdowns = self._shard_slowdowns(sid, machines)
            if slowdowns is None:
                # Backend could not answer (e.g. a worker mid-replay);
                # the machines stay stale and serve their memoized (or
                # analytic-overlay) values until it can.
                continue
            for machine, (comp, comm, tag) in slowdowns.items():
                self._comp[machine] = comp
                self._comm[machine] = comm
                self._conf[machine] = int(tag)
                refreshed.append(machine)
        self._stale.difference_update(refreshed)

    def _candidate_array(self, query: PlacementQuery) -> np.ndarray:
        cands = query._candidate_ids
        if cands is None:
            return np.arange(self.machines)
        return cands[(cands >= 0) & (cands < self.machines)]

    def query(self, tenant: str, query: PlacementQuery) -> PlacementAnswer:
        """Answer one placement query. Never raises on overload.

        Over-quota tenants get the shed path: ANALYTIC-confidence
        slowdowns from the registry aggregates. Admitted queries read
        each candidate's memoized shard slowdowns, with quarantined
        shards' machines served analytically. Either way the candidate
        grid is scored with the exact arithmetic of
        :func:`~repro.core.batch.placement_grid` (inlined — see below)
        and the best machine (minimum predicted elapsed time) is
        returned.
        """
        candidates = self._candidate_array(query)
        if candidates.size == 0:
            candidates = np.arange(self.machines)
        shed = not self.admission.admit_query(tenant)
        if shed:
            self.shed_queries += 1
            _obs.inc("fleet.shed")
            comp, comm = self._analytic_slowdowns(candidates)
            conf = np.full(candidates.size, int(Confidence.ANALYTIC))
        else:
            self.served_queries += 1
            _obs.inc("fleet.served")
            self._refresh()
            # Fancy indexing copies, so the quarantine overlay below
            # never writes through to the fleet-wide vectors.
            comp = self._comp[candidates]
            comm = self._comm[candidates]
            conf = self._conf[candidates]
            if self.quarantined:
                mask = np.isin(candidates % self.num_shards, list(self.quarantined))
                if mask.any():
                    acomp, acomm = self._analytic_slowdowns(candidates[mask])
                    comp[mask] = acomp
                    comm[mask] = acomm
                    conf[mask] = int(Confidence.ANALYTIC)
                    self.degraded_queries += 1
                    _obs.inc("fleet.degraded")
                    self._note_failover(int(mask.sum()))
        # Inlined placement_grid: the slowdown arrays are the service's
        # own memoized state (always >= 1 by construction) and the
        # query's scalars are validated once in ``_scalars``, so the
        # kernel's per-call re-validation is skipped. The arithmetic —
        # operands, operation order — is exactly ``frontend_times`` /
        # ``backend_times`` / ``comm_costs`` with ``serial = comp``,
        # which keeps answers bit-identical to the shared kernels
        # (pinned by tests/fleet/test_service.py).
        dfe, dbc, dbi, dbs, dco, dci = query._scalars
        grid = PlacementGrid(
            t_frontend=dfe * comp,
            t_backend=np.maximum(dbc + dbi, dbs * comp),
            c_out=dco * comm,
            c_in=dci * comm,
            confidence=Confidence(int(conf.min())),
        )
        best = int(np.argmin(grid.best_time))
        return PlacementAnswer(
            machine=int(candidates[best]),
            best_time=float(grid.best_time[best]),
            offload=bool(grid.offload[best]),
            confidence=Confidence(int(conf[best])),
            shed=shed,
        )

    # -- introspection --------------------------------------------------------

    def state_hash(self) -> str:
        """Concatenated shard fingerprints (shard order) — recovery oracle."""
        return "-".join(
            self._shard_state_hash(sid) for sid in range(self.num_shards)
        )

    def counters(self) -> dict[str, int]:
        """Plain-dict snapshot of the request accounting."""
        return {
            "admitted_events": self.admitted_events,
            "rejected_events": self.rejected_events,
            "served_queries": self.served_queries,
            "shed_queries": self.shed_queries,
            "degraded_queries": self.degraded_queries,
            "quarantines": self.quarantines,
            "rebuilds": self.rebuilds,
            "recovery_mismatches": self.recovery_mismatches,
            "backpressure_refusals": self.queue.refusals,
            "registered": len(self.registry),
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources. A no-op for the in-process service."""

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
