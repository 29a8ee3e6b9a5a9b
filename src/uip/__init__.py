"""Unique-items pricing: bundling and dynamic pricing under MNL choice."""

from .errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    DomainError,
    Infeasible,
    MissingDp,
    MissingFreightData,
    NumericalFailure,
    PartitionMismatch,
    UnknownScenario,
    ValidityWarning,
)
from .numerics import lambert_w0, lambert_w_exp, log_sum_exp
from .model import (
    BundleOption,
    ChoiceVector,
    CustomerModel,
    FreightItemData,
    Item,
    MarketInstance,
    OptionSet,
    aggregated_quality,
    enumerate_options,
    extended_choice,
    generate_synthetic,
    instance_from_json,
    instance_to_json,
    mnl_choice,
    singletons,
    sub_instance,
)
from .pricing import (
    AsymptoticProfile,
    DpSolution,
    SinglePeriodOptimum,
    asymptotic_profile,
    bundling_condition,
    cumulative_aggregated_utility,
    enumerate_partitions,
    exact_dp,
    exhaustive_best_partition,
    price_from_probs,
    single_period_optimum,
)
from .bounds import (
    BoundResult,
    PriceTrajectory,
    backward_lower,
    backward_upper,
    bound_suite,
    dfa,
    fluid,
    static,
)
from .optim import (
    LinearProgram,
    LpSolution,
    SetPartitionMilp,
    bnb_solve,
    enumerate_top_solutions,
    simplex_solve,
)
from .bundling import (
    ColumnGenConfig,
    ColumnGenTrace,
    best_upper_bound_partition,
    column_generation,
    greedy_bundle,
    min_empty_miles,
    optimality_gap,
)
from .freight import (
    FreightCoeffs,
    RegionModel,
    SimConfig,
    SimMetrics,
    SupplyModel,
    load_marginal_value,
    simulate,
)

__version__ = "0.1.0"
