"""The unified ``simulate()`` entry point and ``BatchResult``.

Covers the API-redesign contract: backend resolution (argument > env
var > vector default), counted automatic fallback to the object
oracle, vector/object statistical parity, bit-identical lane chunking
under workers, non-finite quarantine masking, the ToDict round trip,
and journaled replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workload import ApplicationProfile
from repro.experiments.journal import RunJournal, journaled
from repro.experiments.runner import Replication
from repro.experiments.simulate import (
    BACKEND_ENV,
    BatchResult,
    BurstProbe,
    ComputeProbe,
    CyclicProbe,
    SimSpec,
    resolve_backend,
    simulate,
)
from repro.obs import MetricsRegistry, ObsContext, Tracer, observed
from repro.platforms.specs import CpuSpec, DEFAULT_SUNPARAGON, SunParagonSpec
from repro.reliability.degrade import Confidence

PS_SPEC = SunParagonSpec(cpu=CpuSpec(discipline="ps"))
CONTENDERS = (
    ApplicationProfile("c25", comm_fraction=0.25, message_size=200),
    ApplicationProfile("c76", comm_fraction=0.76, message_size=200),
)


def _spec(probe=None, **kw):
    return SimSpec(
        platform=PS_SPEC,
        probe=probe if probe is not None else BurstProbe(200, 30, "out"),
        contenders=CONTENDERS,
        **kw,
    )


#: An uncovered-but-runnable spec: 2hops routing through a service node
#: with capacity 2 is outside the vector envelope, fine on the object
#: engine — the fallback tests need something that actually executes.
_2HOPS_CAP2_SPEC = SimSpec(
    platform=SunParagonSpec(cpu=CpuSpec(discipline="ps"), service_node_capacity=2),
    probe=BurstProbe(200, 10),
    contenders=CONTENDERS,
    mode="2hops",
)


class TestBackendResolution:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "vector"

    def test_env_var_applies(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "object")
        assert resolve_backend(None) == "object"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "object")
        assert resolve_backend("vector") == "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            simulate(_spec(), reps=0)


class TestVectorObjectParity:
    def test_means_agree_within_tolerance(self):
        vec = simulate(_spec(), reps=4, seed=5, backend="vector")
        obj = simulate(_spec(), reps=4, seed=5, backend="object")
        assert vec.backend == "vector" and vec.fallback_reason is None
        assert obj.backend == "object"
        assert np.allclose(vec.values, obj.values, rtol=1e-9, atol=0.0)

    def test_all_probe_shapes_run_on_vector(self):
        for probe in (
            BurstProbe(200, 20, "in"),
            ComputeProbe(0.5),
            CyclicProbe(3, 0.05, 2, 200.0),
        ):
            res = simulate(_spec(probe=probe), reps=2, seed=1, backend="vector")
            assert res.backend == "vector", probe
            assert res.n == 2 and all(np.isfinite(res.values))

    def test_workers_chunking_bit_identical(self):
        serial = simulate(_spec(), reps=5, seed=11, backend="vector", workers=1)
        chunked = simulate(_spec(), reps=5, seed=11, backend="vector", workers=3)
        assert chunked.values == serial.values


class TestFallback:
    def test_default_rr_spec_runs_on_vector_with_zero_fallbacks(self):
        """The production spec (rr discipline) no longer leaves the vector path."""
        ctx = ObsContext(tracer=Tracer(seed=0), metrics=MetricsRegistry())
        with observed(ctx):
            res = simulate(
                SimSpec(
                    platform=DEFAULT_SUNPARAGON,
                    probe=BurstProbe(200, 10),
                    contenders=CONTENDERS,
                ),
                reps=2,
                backend="vector",
            )
        assert res.requested_backend == "vector"
        assert res.backend == "vector"
        assert res.fallback_reason is None
        assert ctx.metrics.counter("simulate.fallback").value == 0

    def test_uncovered_spec_falls_back_with_reason(self):
        res = simulate(_2HOPS_CAP2_SPEC, reps=2, backend="vector")
        assert res.requested_backend == "vector"
        assert res.backend == "object"
        assert "service_node_capacity" in res.fallback_reason

    def test_unknown_discipline_reported_as_unsupported(self):
        spec = SimSpec(
            platform=SunParagonSpec(cpu=CpuSpec(discipline="fcfs")),
            probe=BurstProbe(200, 10),
        )
        from repro.experiments.simulate import _vector_workload
        from repro.sim import vector as _vector

        contenders, probe, reason = _vector_workload(spec)
        assert reason is None
        reason = _vector.unsupported_reason(spec.platform, contenders, probe)
        assert reason is not None and "discipline" in reason

    def test_opaque_measure_falls_back(self):
        res = simulate(lambda s: 1.0, reps=2, backend="vector")
        assert res.backend == "object"
        assert "SimSpec" in res.fallback_reason

    def test_fallback_is_counted_and_labeled(self):
        ctx = ObsContext(tracer=Tracer(seed=0), metrics=MetricsRegistry())
        with observed(ctx):
            simulate(lambda s: 1.0, reps=2, backend="vector")
            simulate(_2HOPS_CAP2_SPEC, reps=2, backend="vector")
            simulate(_spec(), reps=2, backend="vector")  # no fallback
        assert ctx.metrics.counter("simulate.fallback").value == 2
        assert ctx.metrics.counter("simulate.fallback.opaque_measure").value == 1
        assert ctx.metrics.counter("simulate.fallback.service_capacity").value == 1

    def test_explicit_object_is_not_a_fallback(self):
        ctx = ObsContext(tracer=Tracer(seed=0), metrics=MetricsRegistry())
        with observed(ctx):
            res = simulate(_spec(), reps=2, backend="object")
        assert res.fallback_reason is None
        assert ctx.metrics.counter("simulate.fallback").value == 0

    def test_fallback_values_match_explicit_object(self):
        fell = simulate(_2HOPS_CAP2_SPEC, reps=3, seed=2, backend="vector")
        forced = simulate(_2HOPS_CAP2_SPEC, reps=3, seed=2, backend="object")
        assert fell.values == forced.values

    def test_rr_vector_matches_object_oracle(self):
        spec = SimSpec(
            platform=DEFAULT_SUNPARAGON, probe=BurstProbe(200, 10), contenders=CONTENDERS
        )
        vec = simulate(spec, reps=3, seed=2, backend="vector")
        obj = simulate(spec, reps=3, seed=2, backend="object")
        assert vec.backend == "vector" and obj.backend == "object"
        assert np.allclose(vec.values, obj.values, rtol=1e-9, atol=0.0)


def _sweep_points():
    return [
        _spec(probe=BurstProbe(size, 10, "out"))
        for size in (64, 200, 512, 1024)
    ]


class TestSweepLanes:
    def test_sweep_matches_per_point_bitwise(self):
        points = _sweep_points()
        batch = simulate(sweep=points, reps=3, seed=9, backend="vector")
        assert len(batch) == len(points)
        for sp, res in zip(points, batch):
            solo = simulate(sp, reps=3, seed=9, backend="vector")
            assert res.backend == "vector" and res.fallback_reason is None
            assert res.values == solo.values

    def test_sweep_env_disable_is_bit_identical(self, monkeypatch):
        from repro.experiments.simulate import SWEEP_ENV

        points = _sweep_points()
        lanes = simulate(sweep=points, reps=2, seed=4, backend="vector")
        monkeypatch.setenv(SWEEP_ENV, "0")
        loop = simulate(sweep=points, reps=2, seed=4, backend="vector")
        assert [r.values for r in lanes] == [r.values for r in loop]

    def test_spec_and_sweep_mutually_exclusive(self):
        with pytest.raises(ValueError):
            simulate(_spec(), sweep=_sweep_points(), reps=2)
        with pytest.raises(ValueError):
            simulate(reps=2)

    def test_sweep_with_workers_bit_identical(self):
        points = _sweep_points()
        serial = simulate(sweep=points, reps=3, seed=6, backend="vector", workers=1)
        chunked = simulate(sweep=points, reps=3, seed=6, backend="vector", workers=3)
        assert [r.values for r in serial] == [r.values for r in chunked]

    def test_mixed_eligible_and_fallback_points(self):
        points = [_spec(), _2HOPS_CAP2_SPEC, _spec(probe=BurstProbe(512, 10))]
        batch = simulate(sweep=points, reps=2, seed=3, backend="vector")
        assert [r.backend for r in batch] == ["vector", "object", "vector"]
        assert batch[1].fallback_reason is not None
        for sp, res in zip(points, batch):
            assert res.values == simulate(sp, reps=2, seed=3, backend="vector").values

    def test_heterogeneous_probe_kinds_in_one_sweep(self):
        points = [
            _spec(probe=BurstProbe(200, 10)),
            _spec(probe=ComputeProbe(0.5)),
            _spec(probe=CyclicProbe(3, 0.05, 2, 200.0)),
        ]
        batch = simulate(sweep=points, reps=2, seed=8, backend="vector")
        for sp, res in zip(points, batch):
            assert res.backend == "vector"
            assert res.values == simulate(sp, reps=2, seed=8, backend="vector").values

    def test_sweep_journal_interop_with_per_point(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        points = _sweep_points()
        with journaled(RunJournal(path, resume=False)):
            fresh = simulate(sweep=points, reps=2, seed=12, backend="vector")
        journal = RunJournal(path, resume=True)
        with journaled(journal):
            replayed = [
                simulate(sp, reps=2, seed=12, backend="vector") for sp in points
            ]
        assert [r.values for r in replayed] == [r.values for r in fresh]
        assert journal.hits == len(points) and journal.misses == 0

    def test_per_point_journal_replays_into_sweep(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        points = _sweep_points()
        with journaled(RunJournal(path, resume=False)):
            fresh = [simulate(sp, reps=2, seed=12, backend="vector") for sp in points]
        journal = RunJournal(path, resume=True)
        with journaled(journal):
            replayed = simulate(sweep=points, reps=2, seed=12, backend="vector")
        assert [r.values for r in replayed] == [r.values for r in fresh]
        assert journal.hits == len(points) and journal.misses == 0

    def test_empty_sweep(self):
        assert simulate(sweep=[], reps=2, backend="vector") == []


class TestQuarantineMasking:
    def test_nan_measurement_degrades_not_poisons(self):
        # Replication k=1 produces a non-finite value; the rest are 2.0.
        calls = iter(range(10))
        res = simulate(
            lambda s: float("nan") if next(calls) == 1 else 2.0,
            reps=4,
            backend="object",
        )
        assert res.values == (2.0, 2.0, 2.0)
        assert np.isfinite(res.mean)
        assert res.confidence is Confidence.EXTRAPOLATED
        [q] = res.quarantined
        assert q.index == 1 and "non-finite" in q.reason

    def test_all_quarantined_is_analytic(self):
        res = simulate(lambda s: float("inf"), reps=2, backend="object")
        assert res.values == ()
        assert res.confidence is Confidence.ANALYTIC
        assert np.isnan(res.mean)


class TestBatchResult:
    def test_is_a_replication(self):
        res = simulate(_spec(), reps=3, seed=7, backend="vector")
        assert isinstance(res, Replication)
        assert res.n == 3
        lo, hi = res.ci95()
        assert lo <= res.mean <= hi

    def test_to_dict_round_trip(self):
        res = simulate(_spec(), reps=3, seed=7, backend="vector")
        payload = res.to_dict()
        assert payload["backend"] == "vector"
        assert BatchResult.from_dict(payload) == res

    def test_round_trip_with_quarantine(self):
        res = simulate(lambda s: float("nan"), reps=2, backend="object")
        clone = BatchResult.from_dict(res.to_dict())
        assert clone == res
        assert clone.quarantined == res.quarantined


class TestJournaledReplay:
    def test_vector_batch_replays_bit_identically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with journaled(RunJournal(path, resume=False)):
            fresh = simulate(_spec(), reps=3, seed=13, backend="vector")
        journal = RunJournal(path, resume=True)
        with journaled(journal):
            replayed = simulate(_spec(), reps=3, seed=13, backend="vector")
        assert replayed.values == fresh.values
        assert journal.hits == 1 and journal.misses == 0

    def test_backend_participates_in_the_key(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with journaled(RunJournal(path, resume=False)):
            simulate(_spec(), reps=3, seed=13, backend="vector")
        journal = RunJournal(path, resume=True)
        with journaled(journal):
            simulate(_spec(), reps=3, seed=13, backend="object")
        assert journal.misses == 1


class TestCLIBackendThreading:
    def test_driver_kwargs_passes_backend_when_declared(self):
        from repro.experiments.cli import _driver_kwargs

        def driver(quick=False, workers=1, backend=None):
            pass

        kwargs = _driver_kwargs(driver, quick=True, workers=1, backend="object")
        assert kwargs == {"quick": True, "backend": "object"}

    def test_driver_kwargs_omits_backend_when_not_declared(self):
        from repro.experiments.cli import _driver_kwargs

        def driver(quick=False):
            pass

        assert _driver_kwargs(driver, True, 2, "vector") == {"quick": True}

    def test_parser_accepts_backend_flag(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["--backend", "quantum", "--list"])
        assert main(["--backend", "object", "--list"]) == 0
