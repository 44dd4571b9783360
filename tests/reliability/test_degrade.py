"""Confidence vocabulary and the SlowdownManager fallback chain."""

from __future__ import annotations

import pytest

from repro.core.params import DelayTable, SizedDelayTable
from repro.core.prediction import BackendTaskCosts, decide_placement
from repro.core.runtime import SlowdownManager
from repro.core.scheduler import MappingProblem, best_mapping
from repro.core.workload import ApplicationProfile
from repro.reliability import (
    Confidence,
    DegradationLog,
    TaggedSlowdown,
    analytic_comm_slowdown,
    analytic_comp_slowdown,
    combine_confidence,
)

DELAY_COMP = DelayTable((0.5, 1.1, 1.8))
DELAY_COMM = DelayTable((0.2, 0.7, 1.3))
SIZED = SizedDelayTable(
    tables={
        1: DelayTable((0.1, 0.25, 0.4)),
        500: DelayTable((0.4, 0.9, 1.4)),
    }
)


def profile(name: str, fraction: float, size: float = 200) -> ApplicationProfile:
    return ApplicationProfile(name, fraction, size if fraction > 0 else 0.0)


class TestVocabulary:
    def test_confidence_orders_analytic_lowest(self):
        assert Confidence.ANALYTIC < Confidence.EXTRAPOLATED < Confidence.CALIBRATED

    def test_combine_is_the_minimum(self):
        assert (
            combine_confidence(Confidence.CALIBRATED, Confidence.ANALYTIC)
            is Confidence.ANALYTIC
        )
        assert combine_confidence() is Confidence.CALIBRATED

    def test_tagged_slowdown_validates_and_floats(self):
        t = TaggedSlowdown(2.5, Confidence.EXTRAPOLATED)
        assert float(t) == 2.5
        with pytest.raises(ValueError):
            TaggedSlowdown(0.5, Confidence.CALIBRATED)

    def test_degradation_log_aggregations(self):
        log = DegradationLog()
        log.record("comm", Confidence.ANALYTIC)
        log.record("comm", Confidence.ANALYTIC)
        log.record("comp", Confidence.EXTRAPOLATED)
        assert log.total == 3
        assert log.by_level() == {Confidence.ANALYTIC: 2, Confidence.EXTRAPOLATED: 1}
        assert log.by_source() == {"comm": 2, "comp": 1}
        assert log.snapshot()[("comm", Confidence.ANALYTIC)] == 2

    def test_analytic_forms(self):
        assert analytic_comp_slowdown(3) == 4.0
        assert analytic_comm_slowdown([0.3, 0.5]) == pytest.approx(1.8)
        with pytest.raises(ValueError):
            analytic_comp_slowdown(-1)
        with pytest.raises(ValueError):
            analytic_comm_slowdown([1.5])


class TestFallbackChain:
    def test_calibrated_within_range(self):
        mgr = SlowdownManager(DELAY_COMP, DELAY_COMM, SIZED)
        mgr.arrive(profile("a", 0.4))
        comm = mgr.comm_slowdown_tagged()
        comp = mgr.comp_slowdown_tagged()
        assert comm.confidence is Confidence.CALIBRATED
        assert comp.confidence is Confidence.CALIBRATED
        # Tagged values agree exactly with the plain calibrated queries.
        assert comm.value == mgr.comm_slowdown()
        assert comp.value == mgr.comp_slowdown()
        assert mgr.degradations.total == 0

    def test_extrapolated_beyond_table_range(self):
        mgr = SlowdownManager(DELAY_COMP, DELAY_COMM, SIZED)
        for k in range(4):  # tables calibrated to max_level 3
            mgr.arrive(profile(f"a{k}", 0.4))
        comm = mgr.comm_slowdown_tagged()
        comp = mgr.comp_slowdown_tagged()
        assert comm.confidence is Confidence.EXTRAPOLATED
        assert comp.confidence is Confidence.EXTRAPOLATED
        assert comm.value > 1.0 and comp.value > 1.0
        assert mgr.degradations.by_level() == {Confidence.EXTRAPOLATED: 2}
        # The strict plain query raises for the same population ...
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            mgr.comm_slowdown()
        # ... while the lenient one agrees with the tagged value.
        lenient = SlowdownManager(DELAY_COMP, DELAY_COMM, SIZED, extrapolate=True)
        for k in range(4):
            lenient.arrive(profile(f"a{k}", 0.4))
        assert comm.value == lenient.comm_slowdown()

    def test_analytic_without_tables(self):
        mgr = SlowdownManager(None, None, None)
        mgr.arrive(profile("a", 0.3))
        mgr.arrive(profile("b", 0.6))
        comm = mgr.comm_slowdown_tagged()
        comp = mgr.comp_slowdown_tagged()
        assert comm.confidence is Confidence.ANALYTIC
        assert comp.confidence is Confidence.ANALYTIC
        assert comm.value == pytest.approx(1.0 + 0.3 + 0.6)
        assert comp.value == pytest.approx(2 + 1)  # p + 1
        assert mgr.degradations.by_level() == {Confidence.ANALYTIC: 2}

    def test_plain_queries_degrade_when_tables_missing(self):
        """Missing tables never raise — not even on the plain API."""
        mgr = SlowdownManager(None, None, None)
        mgr.arrive(profile("a", 0.5))
        assert mgr.comm_slowdown() == pytest.approx(1.5)
        assert mgr.comp_slowdown() == pytest.approx(2.0)

    def test_empty_population_is_calibrated_unity(self):
        mgr = SlowdownManager(None, None, None)
        assert mgr.comm_slowdown_tagged() == TaggedSlowdown(1.0, Confidence.CALIBRATED)
        assert mgr.comp_slowdown_tagged() == TaggedSlowdown(1.0, Confidence.CALIBRATED)
        assert mgr.degradations.total == 0


class TestTaggedPrediction:
    COSTS = BackendTaskCosts(dcomp=1.0, didle=0.2, dserial=0.6)

    def test_matches_untagged_decision(self):
        comp = TaggedSlowdown(2.0, Confidence.CALIBRATED)
        comm = TaggedSlowdown(1.5, Confidence.CALIBRATED)
        tagged = decide_placement(3.0, self.COSTS, 0.4, 0.4, comp, comm)
        plain = decide_placement(3.0, self.COSTS, 0.4, 0.4, 2.0, 1.5)
        assert tagged.prediction == plain.prediction
        assert tagged.confidence is Confidence.CALIBRATED
        assert plain.confidence is Confidence.CALIBRATED  # bare floats are asserted
        assert tagged.offload == plain.offload
        assert tagged.best_time == plain.best_time

    def test_confidence_is_weakest_input(self):
        comp = TaggedSlowdown(2.0, Confidence.CALIBRATED)
        comm = TaggedSlowdown(1.5, Confidence.ANALYTIC)
        tagged = decide_placement(3.0, self.COSTS, 0.4, 0.4, comp, comm)
        assert tagged.confidence is Confidence.ANALYTIC

    def test_backend_serial_override_counts(self):
        comp = TaggedSlowdown(2.0, Confidence.CALIBRATED)
        comm = TaggedSlowdown(1.5, Confidence.CALIBRATED)
        serial = TaggedSlowdown(4.0, Confidence.EXTRAPOLATED)
        tagged = decide_placement(
            3.0, self.COSTS, 0.4, 0.4, comp, comm, backend_serial_slowdown=serial
        )
        assert tagged.confidence is Confidence.EXTRAPOLATED
        assert tagged.prediction.t_backend == pytest.approx(
            max(1.2, 0.6 * 4.0)
        )


class TestTaggedMapping:
    PROBLEM = MappingProblem(
        tasks=("t1", "t2"),
        machines=("m1", "m2"),
        exec_time={"t1": {"m1": 4.0, "m2": 10.0}, "t2": {"m1": 8.0, "m2": 2.0}},
        comm_time={("m1", "m2"): 3.0, ("m2", "m1"): 3.0},
    )

    def test_matches_untagged_search(self):
        tagged = best_mapping(
            self.PROBLEM,
            {"m1": TaggedSlowdown(3.0, Confidence.CALIBRATED)},
            TaggedSlowdown(1.0, Confidence.CALIBRATED),
        )
        plain = best_mapping(self.PROBLEM.with_slowdowns({"m1": 3.0}, 1.0))
        assert tagged.result == plain.result
        assert tagged.assignment == plain.assignment
        assert tagged.elapsed == plain.elapsed
        assert tagged.confidence is Confidence.CALIBRATED
        assert plain.confidence is Confidence.CALIBRATED

    def test_analytic_inputs_still_rank(self):
        tagged = best_mapping(
            self.PROBLEM,
            {
                "m1": TaggedSlowdown(analytic_comp_slowdown(2), Confidence.ANALYTIC),
                "m2": TaggedSlowdown(1.0, Confidence.CALIBRATED),
            },
        )
        assert tagged.confidence is Confidence.ANALYTIC
        assert tagged.assignment  # a ranking was produced regardless

    def test_per_pair_comm_slowdowns(self):
        tagged = best_mapping(
            self.PROBLEM,
            {"m1": TaggedSlowdown(1.0, Confidence.CALIBRATED)},
            {
                ("m1", "m2"): TaggedSlowdown(2.0, Confidence.EXTRAPOLATED),
                ("m2", "m1"): TaggedSlowdown(2.0, Confidence.EXTRAPOLATED),
            },
        )
        assert tagged.confidence is Confidence.EXTRAPOLATED
