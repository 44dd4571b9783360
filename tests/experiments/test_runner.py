"""Unit tests for the repetition harness."""

from __future__ import annotations

import pytest

from repro.experiments.runner import Replication
from repro.experiments.simulate import simulate
from repro.sim.rng import RandomStreams


class TestReplication:
    def test_statistics(self):
        rep = Replication((1.0, 2.0, 3.0))
        assert rep.mean == pytest.approx(2.0)
        assert rep.n == 3
        assert rep.std > 0
        assert rep.cv == pytest.approx(rep.std / 2.0)

    def test_single_value_zero_std(self):
        rep = Replication((5.0,))
        assert rep.std == 0.0

    def test_cv_zero_mean_nonzero_spread_is_infinite(self):
        # A zero mean with dispersion has unbounded *relative* variation;
        # reporting 0.0 here used to masquerade as "noiseless".
        rep = Replication((-1.0, 1.0))
        assert rep.mean == 0.0
        assert rep.std > 0.0
        assert rep.cv == float("inf")

    def test_cv_degenerate_zero_sample_is_zero(self):
        rep = Replication((0.0, 0.0, 0.0))
        assert rep.cv == 0.0


class TestRepeatMean:
    """The object-backend replication loop behind ``simulate()``."""

    def test_deterministic_function(self):
        rep = simulate(lambda streams: 7.0, reps=4, backend="object")
        assert rep.mean == 7.0
        assert rep.std == 0.0

    def test_streams_differ_across_reps(self):
        seen = []

        def measure(streams: RandomStreams) -> float:
            value = float(streams.get("x").random())
            seen.append(value)
            return value

        simulate(measure, reps=3, seed=1, backend="object")
        assert len(set(seen)) == 3

    def test_reproducible_across_calls(self):
        def measure(streams: RandomStreams) -> float:
            return float(streams.get("x").random())

        a = simulate(measure, reps=3, seed=9, backend="object")
        b = simulate(measure, reps=3, seed=9, backend="object")
        assert a.values == b.values

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate(lambda s: 0.0, reps=0, backend="object")

    def test_parallel_values_bit_identical_to_serial(self):
        serial = simulate(_stream_draw, reps=6, seed=21, workers=1, backend="object")
        parallel = simulate(_stream_draw, reps=6, seed=21, workers=4, backend="object")
        assert parallel.values == serial.values

    def test_unpicklable_measure_falls_back_to_serial(self):
        # A lambda cannot cross the process-pool boundary; the executor
        # must transparently re-run serially with identical values.
        serial = simulate(
            lambda s: float(s.get("x").random()), reps=3, seed=2, backend="object"
        )
        fallback = simulate(
            lambda s: float(s.get("x").random()),
            reps=3,
            seed=2,
            workers=4,
            backend="object",
        )
        assert fallback.values == serial.values


def _stream_draw(streams: RandomStreams) -> float:
    return float(streams.get("x").random())


class TestConfidenceInterval:
    def test_ci_contains_mean(self):
        rep = Replication((1.0, 1.2, 0.9, 1.1))
        lo, hi = rep.ci95()
        assert lo < rep.mean < hi
        assert rep.within(rep.mean)

    def test_single_sample_degenerates(self):
        rep = Replication((5.0,))
        assert rep.ci95() == (5.0, 5.0)
        assert rep.within(5.0)
        assert not rep.within(5.1)

    def test_tighter_with_more_samples(self):
        narrow = Replication(tuple([1.0, 1.1] * 10))
        wide = Replication((1.0, 1.1))
        n_lo, n_hi = narrow.ci95()
        w_lo, w_hi = wide.ci95()
        assert (n_hi - n_lo) < (w_hi - w_lo)
