"""The paper's contribution: the contention model.

Public surface of the analytical side of the reproduction — slowdown
factors, overlap probabilities, communication cost models, calibration
procedures, performance predictions, and the contention-aware mapper.
"""

from .calibration import (
    build_delay_table,
    build_sized_delay_table,
    estimate_cm2_params,
    find_saturation_threshold,
    fit_linear,
    fit_piecewise,
    relative_delays,
)
from .batch import (
    PlacementGrid,
    backend_times,
    cm2_slowdowns,
    comm_costs,
    decide_placement_batch,
    fragmented_message_times,
    frontend_times,
    linear_message_times,
    message_times,
    mixed_times,
    piecewise_message_times,
    placement_grid,
)
from .commcost import dedicated_comm_cost, dedicated_dataset_cost, dedicated_pattern_cost
from .dag import TaskGraph, critical_path_bound, eft_mapping, evaluate_dag_mapping
from .measurement import TagUsage, UsageMonitor
from .datasets import CommPattern, DataSet, matrix_transfer
from .params import (
    DelayTable,
    LinearCommParams,
    PiecewiseCommParams,
    SizedDelayTable,
    SMALL_MESSAGE_CUTOFF,
)
from .prediction import (
    BackendTaskCosts,
    ConfidentPlacement,
    PlacementPrediction,
    decide_placement,
    predict_backend_time,
    predict_comm_cost,
    predict_frontend_time,
    predict_mixed_time,
    should_offload,
)
from .probability import (
    add_application,
    comm_comp_distributions,
    expected_active,
    overlap_distribution,
    remove_application,
)
from .runtime import SlowdownManager
from .scheduler import (
    ConfidentMapping,
    MappingProblem,
    MappingResult,
    best_mapping,
    evaluate_mapping,
    rank_mappings,
)
from .slowdown import (
    cm2_slowdown,
    paragon_comm_slowdown,
    paragon_comp_slowdown,
    weighted_delay,
)
from .workload import ApplicationProfile, comm_fractions, max_message_size

__all__ = [
    "ApplicationProfile",
    "BackendTaskCosts",
    "CommPattern",
    "ConfidentMapping",
    "ConfidentPlacement",
    "DataSet",
    "DelayTable",
    "LinearCommParams",
    "MappingProblem",
    "MappingResult",
    "PiecewiseCommParams",
    "PlacementGrid",
    "PlacementPrediction",
    "SMALL_MESSAGE_CUTOFF",
    "SizedDelayTable",
    "SlowdownManager",
    "TagUsage",
    "TaskGraph",
    "UsageMonitor",
    "critical_path_bound",
    "eft_mapping",
    "evaluate_dag_mapping",
    "add_application",
    "backend_times",
    "best_mapping",
    "build_delay_table",
    "build_sized_delay_table",
    "cm2_slowdown",
    "cm2_slowdowns",
    "comm_comp_distributions",
    "comm_costs",
    "comm_fractions",
    "decide_placement",
    "decide_placement_batch",
    "dedicated_comm_cost",
    "dedicated_dataset_cost",
    "dedicated_pattern_cost",
    "estimate_cm2_params",
    "evaluate_mapping",
    "expected_active",
    "find_saturation_threshold",
    "fit_linear",
    "fit_piecewise",
    "fragmented_message_times",
    "frontend_times",
    "linear_message_times",
    "matrix_transfer",
    "max_message_size",
    "message_times",
    "mixed_times",
    "overlap_distribution",
    "paragon_comm_slowdown",
    "paragon_comp_slowdown",
    "piecewise_message_times",
    "placement_grid",
    "predict_backend_time",
    "predict_comm_cost",
    "predict_mixed_time",
    "predict_frontend_time",
    "rank_mappings",
    "relative_delays",
    "remove_application",
    "should_offload",
    "weighted_delay",
]
