"""End-to-end resilience: faulted calibration, churn, zero-fault identity."""

from __future__ import annotations

import pytest

from repro.apps.burst import message_burst
from repro.apps.contender import churned, cpu_bound
from repro.errors import ProbeError
from repro.experiments.calibrate import calibrate_paragon, measure_delay_comp
from repro.experiments.chaos import chaos_experiment
from repro.experiments.simulate import simulate
from repro.platforms.sunparagon import SunParagonPlatform
from repro.reliability import (
    NO_FAULTS,
    Confidence,
    FaultInjector,
    FaultPlan,
    supervise,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class _Host:
    """Minimal platform stand-in for churn tests: just owns a simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim


class TestFaultedCalibration:
    def test_converges_under_10pct_probe_failures(self, quiet_paragon_spec, paragon_cal):
        """Acceptance: 10% probe-failure calibration converges via retries
        and, being deterministic underneath, lands on the exact tables."""
        injector = FaultInjector(FaultPlan(probe_failure_rate=0.1, seed=101))
        cal = calibrate_paragon(quiet_paragon_spec, p_max=3, injector=injector)
        assert cal == paragon_cal
        # The run was genuinely faulted, not a cache hit of the clean one.
        assert any(k.startswith("probe_failure:") for k in injector.injected)

    def test_exhausted_retries_raise_probe_error(self, quiet_paragon_spec):
        injector = FaultInjector(FaultPlan(probe_failure_rate=0.999999, seed=5))
        with pytest.raises(ProbeError, match="injected probe failure"):
            measure_delay_comp(
                quiet_paragon_spec, p_max=1, injector=injector, retry_attempts=2
            )

    def test_injector_bypasses_the_cache(self, quiet_paragon_spec, paragon_cal):
        """A faulted calibration must not be served from (or poison) the
        fault-free lru_cache."""
        injector = FaultInjector(FaultPlan(probe_failure_rate=0.1, seed=101))
        calibrate_paragon(quiet_paragon_spec, p_max=3, injector=injector)
        assert injector.total_injected > 0  # probes actually ran faulted
        # And the cached fault-free object is still the fixture's.
        assert calibrate_paragon(quiet_paragon_spec, p_max=3) is paragon_cal


class TestChurn:
    def test_no_churn_runs_single_incarnation_with_no_draws(self, sim):
        host = _Host(sim)
        done = []

        def job():
            yield sim.timeout(1.0)
            done.append(sim.now)

        injector = FaultInjector(NO_FAULTS)
        sim.process(churned(host, job, injector), name="churn")
        assert supervise(sim).ok
        assert done == [1.0]
        assert injector.total_injected == 0
        assert injector._streams._cache == {}  # zero-draw invariant

    def test_crashes_and_restarts_counted(self, sim):
        host = _Host(sim)

        def forever():
            while True:
                yield sim.timeout(0.05)

        injector = FaultInjector(FaultPlan(crash_rate=5.0, restart_delay=0.01, seed=3))
        sim.process(churned(host, forever, injector), name="churn")
        report = supervise(sim, until=20.0)
        assert report.ok
        assert injector.injected.get("contender_crash", 0) >= 2

    def test_terminating_contender_ends_churn(self, sim):
        host = _Host(sim)
        done = []

        def job():
            yield sim.timeout(0.5)
            done.append(sim.now)

        # Mean lifetime 1/0.001 = 1000 s: the job wins the race.
        injector = FaultInjector(FaultPlan(crash_rate=0.001, seed=9))
        sim.process(churned(host, job, injector), name="churn")
        assert supervise(sim).ok
        assert done == [0.5]
        assert "contender_crash" not in injector.injected


class TestInterruptSafety:
    def test_crashed_transfer_releases_the_wire(self, quiet_paragon_spec):
        """A process interrupted mid-transfer must not wedge the link."""
        sim = Simulator()
        platform = SunParagonPlatform(sim, spec=quiet_paragon_spec)

        def victim():
            yield from platform.message(50_000, "out", tag="victim")

        proc = sim.process(victim(), name="victim")

        def killer():
            yield sim.timeout(1e-4)  # strike mid-transfer
            proc.interrupt("fault-injected crash")

        sim.process(killer(), name="killer")
        probe = sim.process(
            message_burst(platform, 100, 5, "out", tag="probe"), name="probe"
        )
        report = supervise(sim, until_event=probe, max_events=200_000)
        assert report.ok, report.describe()


class TestZeroFaultIdentity:
    """An armed injector with a zero-rate plan must change nothing."""

    @staticmethod
    def _burst_time(spec, injector) -> float:
        sim = Simulator()
        platform = SunParagonPlatform(sim, spec=spec)
        if injector is not None:
            injector.arm(platform)
        probe = sim.process(message_burst(platform, 200, 50, "out"), name="probe")
        return float(sim.run_until(probe))

    def test_armed_no_faults_is_byte_identical(self, quiet_paragon_spec):
        injector = FaultInjector(FaultPlan.uniform(0.0))
        assert self._burst_time(quiet_paragon_spec, injector) == self._burst_time(
            quiet_paragon_spec, None
        )
        assert injector.total_injected == 0

    def test_armed_faulty_plan_does_perturb(self, quiet_paragon_spec):
        injector = FaultInjector(
            FaultPlan(link_degrade_rate=0.5, link_degrade_factor=4.0, seed=2)
        )
        assert self._burst_time(quiet_paragon_spec, injector) > self._burst_time(
            quiet_paragon_spec, None
        )
        assert injector.injected.get("wire_degrade", 0) > 0

    def test_zero_rate_calibration_hits_identical_tables(
        self, quiet_paragon_spec, paragon_cal
    ):
        injector = FaultInjector(FaultPlan.uniform(0.0))
        cal = calibrate_paragon(quiet_paragon_spec, p_max=3, injector=injector)
        assert cal == paragon_cal


class TestRepeatMeanRetry:
    """Replication retries on the object backend of ``simulate()``."""

    def test_retries_with_resalted_fork(self):
        calls: list[int] = []

        def flaky(streams: RandomStreams) -> float:
            calls.append(streams.seed)
            if len(calls) == 1:
                raise ProbeError("first replication attempt fails")
            return float(streams.seed)

        rep = simulate(flaky, reps=2, seed=4, retry_attempts=3, backend="object")
        assert rep.n == 2
        assert len(calls) == 3  # one retry for replication 0
        assert calls[0] != calls[1]  # the retry used a re-salted fork

    def test_default_is_fail_fast(self):
        def flaky(streams: RandomStreams) -> float:
            raise ProbeError("nope")

        with pytest.raises(ProbeError):
            simulate(flaky, reps=1, seed=4, backend="object")

    def test_non_repro_errors_propagate(self):
        def bug(streams: RandomStreams) -> float:
            raise TypeError("a bug")

        with pytest.raises(TypeError):
            simulate(bug, reps=1, seed=4, retry_attempts=5, backend="object")

    def test_deterministic_across_calls(self):
        def measure(streams: RandomStreams) -> float:
            return float(streams.get("x").random())

        a = simulate(measure, reps=3, seed=8, retry_attempts=2, backend="object")
        b = simulate(measure, reps=3, seed=8, retry_attempts=2, backend="object")
        assert a.values == b.values


class TestChaosExperiment:
    @pytest.fixture(scope="class")
    def result(self, quiet_paragon_spec):
        return chaos_experiment(spec=quiet_paragon_spec, quick=True)

    def test_shape_and_registry(self, result):
        assert result.experiment == "chaos"
        assert len(result.headers) == 7
        assert all(len(row) == 7 for row in result.rows)
        assert result.rows[0][0] == 0.0  # control row first

    def test_faults_injected_only_at_nonzero_rates(self, result):
        by_rate = {row[0]: row[6] for row in result.rows}
        assert by_rate[0.0] == 0
        assert any(count > 0 for rate, count in by_rate.items() if rate > 0)

    def test_fallback_prediction_is_analytic_and_never_raises(self, result):
        assert result.metrics["degradation_events"] >= 1
        assert "ANALYTIC" in result.title
        # Fallback column is the p+1 law times the probe work: finite, > 0.
        assert all(row[4] > 0 for row in result.rows)

    def test_renders(self, result):
        text = result.render()
        assert "fault rate" in text
        assert "fallback" in text
