"""Stratified-sampling estimators with two auxiliary variables.

Point estimation of a finite-population mean under stratified simple
random sampling without replacement, using ratio/product corrections
and a dual-transformed estimator family; first-order MSE theory with
closed-form parameter optimization; percent relative efficiencies; and
a reproducible Monte Carlo harness that checks the formulas against
empirical mean squared errors.
"""

from .domain import (
    Finding,
    PopulationSummary,
    StratumSummary,
    UnitFrame,
    ValidationReport,
    combine,
    neyman_allocation,
    read_summary_csv,
    read_units_csv,
    summarize_stratum,
    validate,
    write_summary_csv,
)
from .estimators import (
    DUAL_KINDS,
    KINDS,
    DegenerateSampleError,
    EstimatorSpec,
    SampleMeans,
    dual_transform_means,
    estimate,
    parse_estimator,
)
from .moments import (
    DualMomentSet,
    MomentSet,
    compute_dual_moments,
    compute_moments,
    moments_from_dict,
    moments_to_json,
)
from .mse_theory import (
    A_of_theta,
    EfficiencyVerdict,
    MseReport,
    bias_first_order_dual,
    efficiency_conditions,
    mse_first_order,
    optimize_alphas,
    optimize_theta,
    theta_of_A,
    var_yst,
)
from .simulate import (
    AllDrawsRejectedError,
    EstimatorResult,
    PopulationSpec,
    SimResult,
    StratumSpec,
    draw_sample,
    generate_population,
    load_population_spec,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domain
    "UnitFrame",
    "StratumSummary",
    "PopulationSummary",
    "Finding",
    "ValidationReport",
    "summarize_stratum",
    "combine",
    "validate",
    "neyman_allocation",
    "read_summary_csv",
    "write_summary_csv",
    "read_units_csv",
    # moments
    "MomentSet",
    "DualMomentSet",
    "compute_moments",
    "compute_dual_moments",
    "moments_to_json",
    "moments_from_dict",
    # estimators
    "KINDS",
    "DUAL_KINDS",
    "EstimatorSpec",
    "SampleMeans",
    "DegenerateSampleError",
    "parse_estimator",
    "dual_transform_means",
    "estimate",
    # mse theory
    "MseReport",
    "EfficiencyVerdict",
    "var_yst",
    "theta_of_A",
    "A_of_theta",
    "mse_first_order",
    "optimize_theta",
    "optimize_alphas",
    "bias_first_order_dual",
    "efficiency_conditions",
    # simulation
    "StratumSpec",
    "PopulationSpec",
    "SimResult",
    "EstimatorResult",
    "AllDrawsRejectedError",
    "load_population_spec",
    "generate_population",
    "draw_sample",
    "monte_carlo",
]
