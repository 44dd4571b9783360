"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: setup time, closed-loop
throughput, latency quantiles and peak RSS, with no instrumentation.
``--trace 1`` first repeats the untraced timed phase, then runs it
again with every layer's public functions wrapped in spans and prints
the per-layer breakdown instead; the spans are written as JSON lines
to ``perfbench/out/spans-<workload>.jsonl``.

Either way the run checks that the program's outputs are correct and
exits non-zero if any check or operation failed. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md`` for the
workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Nothing may steer the program's backends from the environment.
for _var in ("REPRO_SIM_BACKEND", "REPRO_SIM_SWEEP", "REPRO_CAL_CACHE", "REPRO_FLEET_BATCH"):
    os.environ.pop(_var, None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve", "ingest", "failover", "sweep")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _catalogue(key: str) -> dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _layer_metrics(run, names) -> dict[str, float]:
    """Per-layer metrics of a traced run, zero for layers it never ran."""
    import spans

    tr = run.trace
    rec = tr["rec"]
    timed = rec.self_times(*tr["timed"])
    setup = rec.self_times(*tr["setup"])
    tc, sc = tr["timed_counts"], tr["setup_counts"]

    def calls(spans, *names):
        return sum(spans.get(n, (0, 0))[0] for n in names)

    def self_s(spans, *names):
        return sum(spans.get(n, (0, 0))[1] for n in names) / 1e9

    def layer(prefix):
        return [n for n in timed if n.startswith(prefix)]

    frames = tc.get("frames", 0)
    queries = calls(timed, "fleet.service.query")
    m = {name: 0.0 for name in names}
    m.update(
        {
            "fleet.admission.calls": calls(timed, *layer("fleet.admission.")),
            "fleet.admission.self_s": self_s(timed, *layer("fleet.admission.")),
            "fleet.service.apply.self_s": self_s(timed, "fleet.service.apply"),
            "fleet.service.query.self_s": self_s(timed, "fleet.service.query"),
            "experiments.journal.append.calls": calls(timed, "experiments.journal.append"),
            "experiments.journal.append.self_s": self_s(timed, "experiments.journal.append"),
            "experiments.journal.fsync.self_s": self_s(timed, "experiments.journal.fsync"),
            "fleet.shard.stream_step.self_s": self_s(timed, "fleet.shard.stream_step"),
            "fleet.shard.apply.self_s": self_s(timed, "fleet.shard.apply"),
            "fleet.shard.refresh.self_s": self_s(timed, "fleet.shard.refresh"),
            "fleet.shard.refresh.machines_per_query": (
                tc.get("refresh.machines", 0) / queries if queries else 0.0
            ),
            "fleet.registry.self_s": self_s(timed, *layer("fleet.registry.")),
            "core.probability.calls": calls(timed, *layer("core.probability.")),
            "core.probability.self_s": self_s(timed, *layer("core.probability.")),
            "core.batch.calls": calls(timed, *layer("core.batch.")),
            "core.batch.self_s": self_s(timed, *layer("core.batch.")),
            "fleet.supervisor.tick.calls": calls(timed, "fleet.supervisor.tick"),
            "fleet.supervisor.tick.self_s": self_s(timed, "fleet.supervisor.tick"),
            "fleet.worker.send.self_s": self_s(timed, "fleet.worker.send"),
            "fleet.worker.ack_wait_s": self_s(
                timed, "fleet.worker.poll_ack", "fleet.worker.wait_ack"
            ),
            "fleet.worker.frames": frames,
            "fleet.worker.frame_fill": (
                tc.get("frame_events", 0) / (frames * tr["batch_size"]) if frames else 0.0
            ),
            "experiments.calibrate.self_s": self_s(
                setup, "experiments.calibrate.calibrate_paragon"
            ),
            "experiments.calibrate.engine_events": sc.get("engine_events", 0),
            "experiments.simulate.self_s": self_s(timed, "experiments.simulate.simulate"),
            "experiments.simulate.fallbacks": tc.get("fallbacks", 0),
            "sim.vector.burst.self_s": self_s(timed, "sim.vector.burst"),
            "sim.vector.cyclic.self_s": self_s(timed, "sim.vector.cyclic"),
            "sim.vector.lanes": tc.get("lanes", 0),
            "core.prediction.self_s": self_s(timed, *layer("core.prediction.")),
        }
    )
    m.update(run.layer_extra)
    rows = spans.layer_table(timed, tr["wall_ns"])
    m["unattributed.self_s"] = rows[-1][2]
    m["trace.overhead_share"] = tr["overhead_share"]
    return m


def _print_trace(run, path: Path) -> None:
    import spans

    tr = run.trace
    rec = tr["rec"]
    timed = rec.self_times(*tr["timed"])
    print(f"layers (traced timed phase, wall {tr['wall_ns'] / 1e9:.3f} s):")
    print(f"  {'layer':<24}{'calls':>10}{'self_s':>12}{'share':>9}")
    for name, calls, own, share in spans.layer_table(timed, tr["wall_ns"]):
        print(f"  {name:<24}{calls:>10}{own:>12.4f}{share:>9.2%}")
    setup = rec.self_times(*tr["setup"])
    print("setup breakdown (traced, one repetition):")
    for name, (calls, own) in sorted(setup.items()):
        print(f"  {name:<44}{calls:>9}{own / 1e9:>11.4f} s self")
    seen = sorted({n.rsplit(".", 1)[0] for n in timed if not n.startswith("op.")})
    print("span layers seen: " + ", ".join(seen))
    t0 = rec.start[0] if len(rec.start) else 0
    count = rec.write_jsonl(str(path), t0)
    print(f"spans: {count} written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so scratch files and worker
    # processes are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    import numpy as np

    sys.path.insert(0, str(HERE))
    if args.workload == "sweep":
        import workload_sweep as workload
    else:
        import workload_fleet as workload

    scratch = HERE / ".scratch"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    started = time.perf_counter()
    try:
        run = workload.run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env nproc={len(os.sched_getaffinity(0))} workers={run.workers} seed={args.seed} "
        f"python={platform.python_version()} numpy={np.__version__}"
    )
    for k, parts in enumerate(run.setup_parts):
        listed = " ".join(f"{name}={value:.4f}" for name, value in parts.items())
        print(f"setup rep {k + 1}: {listed} total={run.setup_s[k]:.4f} s")
    for phase in run.phases:
        print(
            f"ops {phase.name}: sent={phase.sent} succeeded={phase.succeeded} "
            f"failed={phase.failed}"
        )
    attempted = sum(p.sent for p in run.phases)
    failed = sum(p.failed for p in run.phases)
    if run.trace:
        # Layer isolation: the paper path runs no fleet code and the
        # fleet runs no simulator code.
        rec = run.trace["rec"]
        foreign = "fleet." if args.workload == "sweep" else "sim."
        seen = rec.self_times(0, rec.mark())
        run.checks["no_foreign_layer_spans"] = not any(n.startswith(foreign) for n in seen)
    for name, ok in run.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for note in run.notes:
        print(f"note {note}")
    correct = all(run.checks.values()) and failed == 0

    run.detail["failed_share"] = (failed / max(attempted, 1), "ratio")
    e2e = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        **run.e2e,
        "rss_mb": (run.rss_mb, "MiB"),
    }
    for name, (value, unit) in {**e2e, **run.detail}.items():
        print(f"metric {name} = {value:.6g} {unit}")

    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        _print_trace(run, out / f"spans-{args.workload}.jsonl")
        names = _catalogue("per_layer")
        layer = _layer_metrics(run, names)
        print(f"trace.overhead_share = {layer['trace.overhead_share']:.4f}")
        metrics = {
            name: {"value": float(layer[name]), "unit": unit} for name, unit in names.items()
        }
    else:
        metrics = {
            name: {"value": float(e2e[name][0]), "unit": unit}
            for name, unit in _catalogue("end_to_end").items()
        }
    print(f"wall {time.perf_counter() - started:.2f} s")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
