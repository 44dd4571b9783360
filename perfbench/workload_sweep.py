"""The ``sweep`` workload: the paper-reproduction path.

Setup runs ``calibrate_paragon`` with the disk cache off (median of
two fresh calibrations: one before the timed phase, one after it).
The timed phase runs rounds of ``fig5_paragon_comm_out`` and
``fig7_sor_sun`` at the workload seed, with the paper's message count
(1000) and sizes, until the phase has lasted ``--seconds`` and at
least two rounds are done. Every round at one seed must give
bit-identical result rows. No fleet code runs.

The unit of work is a replication lane: ``ops_per_s`` counts the lanes
both figures completed per second. ``main_p50_us`` is the latency of
one fig5 run; the fig7 run's is printed beside it.
"""

from __future__ import annotations

import importlib
import resource
import time

from repro.platforms.specs import DEFAULT_SUNPARAGON

import spans
from common import Phase, Run, nearest_rank

# By module path: ``repro.experiments`` re-exports functions that
# shadow some of its submodules' names (``simulate``).
calcache = importlib.import_module("repro.experiments.calcache")
calibrate = importlib.import_module("repro.experiments.calibrate")
figures = importlib.import_module("repro.experiments.figures")
simulate_module = importlib.import_module("repro.experiments.simulate")

#: Replications per figure point (the figures' default).
REPS = 3
#: Calibrations before and after the timed phase (traced runs: one).
SETUP_REPS = (1, 1)
MIN_ROUNDS = 2


def _calibrate(rec) -> float:
    """One fresh calibration (in-memory cache emptied); its seconds."""
    calibrate._calibrate_paragon_cached.cache_clear()
    t0 = time.perf_counter()
    root = rec.open(rec.name_id("setup.calibrate")) if rec else None
    calibrate.calibrate_paragon(DEFAULT_SUNPARAGON)
    if rec:
        rec.close(root)
    return time.perf_counter() - t0


class Rounds:
    """Figure rounds at one seed, with the determinism check."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fig5_ns: list[int] = []
        self.fig7_ns: list[int] = []
        self.lanes = 0
        self.rows: dict[str, str] = {}
        self.mismatches = 0
        self.errors: list[float] = []

    def _figure(self, name: str, fn, rec, label, phase: Phase) -> None:
        if label is not None:
            label["kind"] = "burst" if name == "fig5" else "cyclic"
        t = time.perf_counter_ns()
        root = rec.open(rec.name_id(f"op.{name}")) if rec else None
        try:
            result = fn(seed=self.seed, repetitions=REPS)
        except Exception:  # noqa: BLE001 - a raised run is a failed op
            result = None
        if rec:
            rec.close(root)
        (self.fig5_ns if name == "fig5" else self.fig7_ns).append(time.perf_counter_ns() - t)
        ok = result is not None
        if ok:
            rows = repr(result.rows)
            if self.rows.setdefault(name, rows) != rows:
                self.mismatches += 1
                ok = False
            self.lanes += len(result.rows) * REPS
            key = "mean_abs_err_pct" if name == "fig5" else "mean_abs_err_auto_pct"
            self.errors.append(result.metrics[key])
        phase.record(ok)

    def run(self, seconds: float, min_rounds: int, rec=None, label=None) -> tuple[Phase, int, int]:
        """Run rounds; return the phase, its wall ns and its lanes."""
        phase = Phase("timed")
        lanes0 = self.lanes
        start = time.perf_counter_ns()
        rounds = 0
        while rounds < min_rounds or time.perf_counter_ns() - start < seconds * 1e9:
            self._figure("fig5", figures.fig5_paragon_comm_out, rec, label, phase)
            self._figure("fig7", figures.fig7_sor_sun, rec, label, phase)
            rounds += 1
        return phase, time.perf_counter_ns() - start, self.lanes - lanes0


def run(args, tmpdir: str) -> Run:
    calcache.set_cache_dir(None)
    result = Run("sweep")
    patches = spans.Patches()
    fallbacks = [0]
    count_fallback = simulate_module._count_fallback

    def counted_fallback(reason: str) -> None:
        fallbacks[0] += 1
        count_fallback(reason)

    # Counted in every run: the simulate.fallback check needs it.
    patches.attribute(simulate_module, "_count_fallback", counted_fallback)
    rec = spans.Recorder() if args.trace else None
    try:
        setup_lo = rec.mark() if rec else 0
        before, after = (1, 0) if rec else SETUP_REPS
        layer_patches = spans.Patches()
        if rec:
            spans.install_all(rec, layer_patches)
        try:
            result.setup_s = [_calibrate(rec) for _ in range(before)]
        finally:
            layer_patches.undo()
        setup_hi = rec.mark() if rec else 0
        setup_counts = dict(rec.counts) if rec else {}
        setup = Phase("setup")
        setup.add(before, 0)
        result.phases.append(setup)

        rounds = Rounds(args.seed)
        timed, wall_ns, lanes = rounds.run(args.seconds, MIN_ROUNDS)
        result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.phases.append(timed)
        if after:
            # Spread over the run, as on the fleet workloads: the
            # machine's speed drifts over seconds.
            result.setup_s += [_calibrate(None) for _ in range(after)]
            later = Phase("setup after timed")
            later.add(after, 0)
            result.phases.append(later)
        result.setup_parts = [{"calibrate": s} for s in result.setup_s]
        result.ops_per_s = lanes / (wall_ns / 1e9)
        fig5 = sorted(rounds.fig5_ns)
        fig7 = sorted(rounds.fig7_ns)
        if rec:
            rec.counts.clear()
            fallbacks_before = fallbacks[0]
            lo = rec.mark()
            label = spans.install_all(rec, layer_patches)
            try:
                traced, traced_ns, traced_lanes = rounds.run(args.seconds, 1, rec, label)
            finally:
                layer_patches.undo()
            traced.name = "traced"
            result.phases.append(traced)
            rec.counts["fallbacks"] = fallbacks[0] - fallbacks_before
            result.trace = dict(
                rec=rec,
                setup=(setup_lo, setup_hi),
                timed=(lo, rec.mark()),
                setup_counts=setup_counts,
                timed_counts=dict(rec.counts),
                wall_ns=traced_ns,
                overhead_share=1.0 - traced_lanes / (traced_ns / 1e9) / result.ops_per_s,
                batch_size=0,
            )
    finally:
        patches.undo()

    result.checks["simulate_fallback_zero"] = fallbacks[0] == 0
    result.checks["rounds_bit_identical"] = rounds.mismatches == 0 and len(fig5) >= MIN_ROUNDS
    result.e2e.update(
        ops_per_s=(result.ops_per_s, "1/s"),
        main_p50_us=(nearest_rank(fig5, 0.50) / 1e3, "us"),
    )
    result.detail["fig7_p50_us"] = (nearest_rank(fig7, 0.50) / 1e3, "us")
    result.detail["lanes_per_s"] = (result.ops_per_s, "1/s")
    result.notes.append(f"samples: {len(fig5)} fig5 runs, {len(fig7)} fig7 runs, {lanes} lanes")
    if len(rounds.errors) >= 2:  # fewer only when a figure run failed
        fig5_err, fig7_err = rounds.errors[:2]
        result.detail["model_err_pct"] = ((fig5_err + fig7_err) / 2, "%")
        result.notes.append(f"fig5 err {fig5_err:.4f} %, fig7 auto-bucket err {fig7_err:.4f} %")
    return result
