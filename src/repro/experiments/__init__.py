"""Experiment harness: calibration suites and per-figure drivers."""

from .backend import fragment_pool, gang_experiment, mesh_contention_experiment, tp_placement_experiment
from .calibrate import (
    CM2Calibration,
    DEFAULT_SWEEP_SIZES,
    ParagonCalibration,
    calibrate_cm2,
    calibrate_paragon,
    calibrate_paragon_comm,
    measure_delay_comm,
    measure_delay_comm_sized,
    measure_delay_comp,
    pingpong_sweep,
)
from .cli import EXPERIMENTS, main, run_experiment
from .dispatch import gauss_sun_cost, library_dispatch_experiment
from .export import to_csv, to_json, to_markdown, write_results
from .figures import (
    fig1_cm2_communication,
    fig2_interleaving,
    fig3_gauss_cm2,
    fig4_paragon_dedicated,
    fig5_paragon_comm_out,
    fig6_paragon_comm_in,
    fig7_sor_sun,
    fig8_sor_sun,
)
from .plots import ascii_chart, chart_result
from .report import ExperimentResult, mean_abs_pct_error, max_abs_pct_error, pct_error, render_table
from .robustness import (
    robustness_paragon_comm,
    robustness_paragon_comp,
    saturation_sweep,
    synthetic_cm2_experiment,
)
from .runner import Replication
from .simulate import (
    BatchResult,
    BurstProbe,
    ComputeProbe,
    CyclicProbe,
    SimSpec,
    simulate,
)
from .sensitivity import (
    cycle_length_sensitivity,
    forecast_experiment,
    fraction_sensitivity,
    mixed_workload_experiment,
)
from .tables import example_problem, tables_experiment

__all__ = [
    "BatchResult",
    "BurstProbe",
    "CM2Calibration",
    "ComputeProbe",
    "CyclicProbe",
    "SimSpec",
    "simulate",
    "ascii_chart",
    "chart_result",
    "fragment_pool",
    "gang_experiment",
    "gauss_sun_cost",
    "library_dispatch_experiment",
    "mesh_contention_experiment",
    "tp_placement_experiment",
    "cycle_length_sensitivity",
    "fraction_sensitivity",
    "forecast_experiment",
    "mixed_workload_experiment",
    "to_csv",
    "to_json",
    "to_markdown",
    "write_results",
    "DEFAULT_SWEEP_SIZES",
    "EXPERIMENTS",
    "ExperimentResult",
    "ParagonCalibration",
    "Replication",
    "calibrate_cm2",
    "calibrate_paragon",
    "calibrate_paragon_comm",
    "example_problem",
    "fig1_cm2_communication",
    "fig2_interleaving",
    "fig3_gauss_cm2",
    "fig4_paragon_dedicated",
    "fig5_paragon_comm_out",
    "fig6_paragon_comm_in",
    "fig7_sor_sun",
    "fig8_sor_sun",
    "main",
    "max_abs_pct_error",
    "mean_abs_pct_error",
    "measure_delay_comm",
    "measure_delay_comm_sized",
    "measure_delay_comp",
    "pct_error",
    "pingpong_sweep",
    "render_table",
    "robustness_paragon_comm",
    "robustness_paragon_comp",
    "run_experiment",
    "saturation_sweep",
    "synthetic_cm2_experiment",
    "tables_experiment",
]
