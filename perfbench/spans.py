"""Span recording for the traced benchmark run.

A traced run measures each layer of the program by wrapping that
module's public functions from the benchmark's side: nothing under
``src/`` changes. Every wrapped call becomes one span carrying its
name, start, end, parent span and operation id. Spans are kept in
compact in-memory arrays and written out as JSON lines when the run
ends.

A layer's self time is the duration of its spans minus the time their
child spans cover. Time inside an operation that no layer covers (the
benchmark's own loop, unwrapped program code between layer calls)
is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Span name -> layer. Span names are ``<module>.<function>``; the
#: ``op.*`` and ``setup.*`` roots belong to no layer.
LAYER_OF = {
    "fleet.admission.admit_app": "fleet.admission",
    "fleet.admission.admit_query": "fleet.admission",
    "fleet.service.apply": "fleet.service",
    "fleet.service.query": "fleet.service",
    "experiments.journal.append": "experiments.journal",
    "experiments.journal.fsync": "experiments.journal",
    "fleet.shard.stream_step": "fleet.shard",
    "fleet.shard.apply": "fleet.shard",
    "fleet.shard.refresh": "fleet.shard",
    "fleet.registry.add": "fleet.registry",
    "fleet.registry.remove": "fleet.registry",
    "core.probability.add_application": "core.probability",
    "core.probability.remove_application": "core.probability",
    "core.batch.cm2_slowdowns": "core.batch",
    "core.batch.sequential_fold": "core.batch",
    "core.batch.sequential_folds": "core.batch",
    "fleet.supervisor.tick": "fleet.supervisor",
    "fleet.worker.send": "fleet.worker",
    "fleet.worker.poll_ack": "fleet.worker",
    "fleet.worker.wait_ack": "fleet.worker",
    "experiments.calibrate.calibrate_paragon": "experiments.calibrate",
    "experiments.simulate.simulate": "experiments.simulate",
    "sim.vector.burst": "sim.vector",
    "sim.vector.cyclic": "sim.vector",
    "core.prediction.predict_comm_cost": "core.prediction",
    "core.prediction.predict_frontend_time": "core.prediction",
    "core.prediction.paragon_comm_slowdown": "core.prediction",
    "core.prediction.paragon_comp_slowdown": "core.prediction",
}

#: Layers in report order.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Recorder:
    """In-memory span store: one row per span, parallel typed arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("q")
        self._stack: list[int] = []
        #: Operation id stamped on every span opened from now on.
        self.op_id = -1
        #: While True, wrapped calls run untraced (benchmark-side checks).
        self.paused = False
        #: Counters measured at layer boundaries (lanes, frames, ...).
        self.counts: dict[str, float] = {}
        # Forked shard workers inherit the wrappers; they must not pay
        # for spans nobody collects.
        os.register_at_fork(after_in_child=self._pause)

    def _pause(self) -> None:
        self.paused = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def mark(self) -> int:
        """Index of the next span: phases are contiguous index ranges."""
        return len(self.name)

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[int, int]]:
        """``{span name: (calls, self ns)}`` over spans ``lo..hi-1``."""
        if hi <= lo:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        dur = end - start
        inner = parent >= lo
        child = np.bincount(
            parent[inner] - lo, weights=dur[inner], minlength=hi - lo
        )
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_ns = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            self.names[i]: (int(calls[i]), int(self_ns[i]))
            for i in range(len(self.names))
            if calls[i]
        }

    def write_jsonl(self, path: str, t0: int) -> int:
        """Write every span as one JSON line; return the span count."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, s, e, p, o) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.op)
            ):
                fh.write(
                    f'{{"id":{i},"name":"{names[nid]}","start_ns":{s - t0},'
                    f'"end_ns":{e - t0},"parent":{p},"op":{o}}}\n'
                )
        return len(self.name)


def traced(rec: Recorder, name: str, fn: Callable, after: Callable | None = None):
    """*fn* wrapped in a span named *name*.

    *after(args, kwargs, result)*, when given, runs after each traced
    call to update the recorder's counters.
    """
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def attribute(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a class or module attribute)."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind *original* to *wrapper* in every loaded ``repro`` module.

        Modules import functions by name (``from .shard import
        stream_step``), so each binding is replaced, not just the
        defining module's.
        """
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_fleet(rec: Recorder, patches: Patches) -> None:
    """Wrap the fleet event/query path layers (benchmark process side)."""
    from repro.core import batch, probability
    from repro.experiments.journal import EventLog
    from repro.fleet import admission, registry, service, shard, supervisor, worker

    def wrap_method(cls: type, attr: str, name: str, after=None) -> None:
        patches.attribute(cls, attr, traced(rec, name, vars(cls)[attr], after))

    def wrap_function(fn: Callable, name: str) -> None:
        patches.function(fn, traced(rec, name, fn))

    wrap_method(admission.AdmissionController, "admit_app", "fleet.admission.admit_app")
    wrap_method(admission.AdmissionController, "admit_query", "fleet.admission.admit_query")
    wrap_method(service.FleetService, "apply", "fleet.service.apply")
    wrap_method(service.FleetService, "query", "fleet.service.query")
    wrap_method(EventLog, "append", "experiments.journal.append")
    # The journal's fsync is its wait on the disk: its own span, a
    # child of ``append``. ``os.fsync`` is looked up at call time.
    patches.attribute(os, "fsync", traced(rec, "experiments.journal.fsync", os.fsync))
    wrap_function(shard.stream_step, "fleet.shard.stream_step")
    wrap_method(shard.ArrayShard, "apply", "fleet.shard.apply")

    def refreshed(args, kwargs, result) -> None:
        rec.count("refresh.machines", len(result))

    wrap_method(shard.ArrayShard, "slowdowns_batch", "fleet.shard.refresh", refreshed)
    wrap_method(registry.FleetRegistry, "add", "fleet.registry.add")
    wrap_method(registry.FleetRegistry, "remove", "fleet.registry.remove")
    wrap_function(probability.add_application, "core.probability.add_application")
    wrap_function(probability.remove_application, "core.probability.remove_application")
    wrap_function(batch.cm2_slowdowns, "core.batch.cm2_slowdowns")
    wrap_function(batch.sequential_fold, "core.batch.sequential_fold")
    wrap_function(batch.sequential_folds, "core.batch.sequential_folds")
    wrap_method(supervisor.SupervisedFleetService, "tick", "fleet.supervisor.tick")

    def sent(args, kwargs, result) -> None:
        msg = args[1]
        if result and msg[0] == "apply":
            rec.count("frames")
            rec.count("frame_events", len(msg[1]))

    wrap_method(worker.WorkerHandle, "request", "fleet.worker.send", sent)
    wrap_method(worker.WorkerHandle, "poll_ack", "fleet.worker.poll_ack")
    wrap_method(worker.WorkerHandle, "wait_ack", "fleet.worker.wait_ack")


def install_sweep(rec: Recorder, patches: Patches) -> dict[str, str]:
    """Wrap the paper-reproduction path: calibration, simulate, lanes.

    Returns the mutable label naming the ``sim.vector`` spans: the
    caller sets ``label["kind"]`` to ``burst`` before fig5 and to
    ``cyclic`` before fig7.
    """
    from repro.core import prediction, slowdown
    from repro.sim import engine, vector

    calibrate = importlib.import_module("repro.experiments.calibrate")
    simulate = importlib.import_module("repro.experiments.simulate")

    def wrap_function(fn: Callable, name: str) -> None:
        patches.function(fn, traced(rec, name, fn))

    calls = {"calibrate": 0}
    original_calibrate = calibrate.calibrate_paragon

    def calibrate_wrapper(*args: Any, **kwargs: Any) -> Any:
        calls["calibrate"] += 1
        try:
            return original_calibrate(*args, **kwargs)
        finally:
            calls["calibrate"] -= 1

    patches.function(
        original_calibrate,
        traced(rec, "experiments.calibrate.calibrate_paragon", calibrate_wrapper),
    )
    # The engine's own events_processed counter, summed over the
    # simulators calibration drives.
    for attr in ("run", "run_until"):
        original = engine.Simulator.__dict__[attr]

        def counted(self, *args, _original=original, **kwargs):
            before = self.events_processed
            try:
                return _original(self, *args, **kwargs)
            finally:
                if calls["calibrate"]:
                    rec.count("engine_events", self.events_processed - before)

        patches.attribute(engine.Simulator, attr, counted)
    wrap_function(simulate.simulate, "experiments.simulate.simulate")

    # sim.vector spans are named by the figure running them: fig5's
    # message bursts and fig7's SOR lanes.
    label = {"kind": "burst"}
    ids = {k: rec.name_id(f"sim.vector.{k}") for k in ("burst", "cyclic")}
    # Position of ``lane_seeds`` in each entry point's signature.
    for fn, seeds_at in ((vector.run_sweep, 1), (vector.run_lanes, 3)):

        def lanes_wrapper(*args, _fn=fn, _at=seeds_at, **kwargs):
            if rec.paused:
                return _fn(*args, **kwargs)
            lane_seeds = args[_at] if len(args) > _at else kwargs["lane_seeds"]
            idx = rec.open(ids[label["kind"]])
            try:
                return _fn(*args, **kwargs)
            finally:
                rec.close(idx)
                rec.count("lanes", len(lane_seeds))

        patches.function(fn, lanes_wrapper)
    wrap_function(prediction.predict_comm_cost, "core.prediction.predict_comm_cost")
    wrap_function(prediction.predict_frontend_time, "core.prediction.predict_frontend_time")
    wrap_function(slowdown.paragon_comm_slowdown, "core.prediction.paragon_comm_slowdown")
    wrap_function(slowdown.paragon_comp_slowdown, "core.prediction.paragon_comp_slowdown")
    return label


def install_all(rec: Recorder, patches: Patches) -> dict[str, str]:
    """Wrap every layer, fleet and paper path alike.

    Every traced run installs both sets, so a layer that runs where it
    should not (a fleet call during ``sweep``, a simulator call during a
    fleet workload) leaves a span. Returns :func:`install_sweep`'s label.
    """
    install_fleet(rec, patches)
    return install_sweep(rec, patches)


def layer_table(
    spans: dict[str, tuple[int, int]], wall_ns: int
) -> list[tuple[str, int, float, float]]:
    """Rows ``(layer, calls, self s, share of wall)`` plus ``unattributed``."""
    rows = []
    covered = 0
    for layer in LAYERS:
        calls = sum(c for n, (c, _) in spans.items() if LAYER_OF.get(n) == layer)
        own = sum(s for n, (_, s) in spans.items() if LAYER_OF.get(n) == layer)
        covered += own
        rows.append((layer, calls, own / 1e9, own / wall_ns if wall_ns else 0.0))
    rest = max(wall_ns - covered, 0)
    rows.append(("unattributed", 0, rest / 1e9, rest / wall_ns if wall_ns else 0.0))
    return rows
