"""Synthesis and evaluation of disturbance-rejection controllers that are
built from limited model information, for discrete-time plants with graph-
structured coupling, diagonal input gains, and autonomously generated
disturbances.
"""
from .errors import (
    DimensionMismatchError,
    DisturbanceGrowthWarning,
    IndeterminateRatioError,
    InvalidPerturbationError,
    InvalidSpecError,
    LimoctrlError,
    MissingSelfLoopError,
    NoConvergenceError,
    NonBinaryEntryError,
    NonPositiveEpsilonError,
    NonPositiveWeightError,
    NonSquareError,
    NotNilpotentError,
    SameIndexError,
    SingularInnerMatrixError,
    SingularResolventError,
    ZeroGainError,
    ZeroParameterError,
)
from .graphs import (
    DirectedGraph,
    SinkPartition,
    complete_graph,
    design_condition_applies,
    design_conditions,
    from_adjacency,
    from_edge_list,
    graph_from_dict,
    graph_to_dict,
    isolated_nodes,
    self_loops_only,
    sink_partition,
    sinks,
)
from .plant import (
    EnsembleSpec,
    Plant,
    Violation,
    is_nilpotent_deg2,
    normalize,
    plant_from_dict,
    plant_to_dict,
    sample_ensemble,
    validate,
    worst_case_family,
)
from .riccati import (
    DareSolution,
    augment,
    dare_residual,
    solve_singular_dare,
    solve_singular_dares,
    worst_case_family_solution,
)
from .synthesis import (
    Controller,
    RowPerturbation,
    apply_row_perturbation,
    centralized_optimal,
    controller_from_dict,
    controller_to_dict,
    coupling_cancellation_defect,
    deadbeat,
    limited_info_check,
    nilpotent_centralized,
    sink_aware,
    sink_gain,
    sparsity_pattern,
    transfer_eval,
)
from .evaluation import (
    ClosedLoop,
    CostReport,
    centralized_cost_closed_form,
    centralized_lower_bound,
    centralized_lower_bounds,
    closed_loop,
    deadbeat_cost_closed_form,
    deadbeat_cost_closed_forms,
    simulate_cost,
    simulate_costs,
    simulate_trajectories,
    simulate_trajectory,
)
from .ratio import (
    DominationReport,
    PlantRatio,
    RatioReport,
    domination_check,
    ensemble_ratio_report,
    per_plant_ratio,
    plant_ratios,
    ratio_bound,
    ratio_report_to_csv,
    ratio_sweep,
    sink_aware_ratio_case,
    worst_case_optimal_cost,
)
from .verify import CheckResult, run_acceptance

__version__ = "0.1.0"
