"""First-order MSE theory for the stratified estimator family.

Each estimator's leading-order mean squared error is a quadratic form
in the six relative moments of :mod:`stratdual.moments` (dual moments
for the dual-transformed kinds), scaled by the squared population mean.
This module evaluates those forms, provides the closed-form optimizers
for the transform constant and for the dual-family exponents, the
first-order bias of the dual family, percent relative efficiencies, and
the two efficiency conditions that decide when the transformed and
dual-family estimators beat the classical combined mean.

Negative first-order MSEs (possible when externally supplied inputs are
internally inconsistent) are reported with a warning, never clamped:
surfacing data defects is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import PopulationSummary
from .estimators import DUAL_KINDS, TRANSFORM_KINDS, EstimatorSpec
from .moments import DualMomentSet, MomentSet

__all__ = [
    "MseReport",
    "EfficiencyVerdict",
    "var_yst",
    "theta_of_A",
    "A_of_theta",
    "mse_first_order",
    "optimize_theta",
    "optimize_alphas",
    "bias_first_order_dual",
    "pre",
    "efficiency_conditions",
]


@dataclass(frozen=True)
class MseReport:
    """First-order MSE of one estimator, with its efficiency.

    ``pre`` is the percent relative efficiency versus the classical
    combined mean (``100 * var_yst / mse``); it is ``None`` when the
    MSE is nonpositive, in which case ``warnings`` explains the
    first-order breakdown.  ``optimal_params`` is populated by the
    optimizers: ``(theta_opt, A_opt)`` or ``(alpha1, alpha2)``.
    """

    estimator: EstimatorSpec
    mse: float
    pre: float | None
    var_yst: float
    warnings: tuple[str, ...] = ()
    optimal_params: tuple[float, float] | None = None


@dataclass(frozen=True)
class EfficiencyVerdict:
    """The two beats-classical conditions with their signed margins.

    ``condition21`` holds iff ``margin21 = B1 - 2*B2 < 0``, which is
    algebraically the statement that the transformed product estimator
    has smaller first-order MSE than the classical mean; components
    ``B1 = theta^2*v020 + v002`` and ``B2 = theta*v110 - v101 +
    theta*v011`` use unprimed moments.  ``condition22`` holds iff
    ``margin22 = C - 2*D < 0`` with ``C = a1^2*v020' + a2^2*v002' -
    2*a1*a2*v011'`` and ``D = a2*v101' - a1*v110'`` in dual moments,
    equivalent to the dual family beating the classical mean.
    """

    condition21: bool
    margin21: float
    condition22: bool
    margin22: float
    B1: float
    B2: float
    C: float
    D: float


def var_yst(pop: PopulationSummary, m: MomentSet) -> float:
    """Exact variance of the classical combined mean: ``mean_y**2 * v200``."""
    return pop.mean_y**2 * m.v200


def theta_of_A(pop: PopulationSummary, A: float) -> float:
    """The working transform parameter ``theta = mean_x / (A - mean_x)``.

    ``A`` may be a scalar or an array; an array is mapped elementwise.
    """
    denom = A - pop.mean_x
    if np.any(denom == 0):
        raise ValueError("A equals the population x-mean; theta undefined")
    return pop.mean_x / denom


def A_of_theta(pop: PopulationSummary, theta: float) -> float:
    """Inverse of :func:`theta_of_A`: ``A = mean_x * (1 + theta) / theta``.

    ``theta`` may be a scalar or an array; an array is mapped elementwise.
    """
    if np.any(theta == 0):
        raise ValueError("theta = 0 corresponds to A at infinity")
    return pop.mean_x * (1.0 + theta) / theta


def _tracy_form(m: MomentSet, theta):
    # ``theta * theta``, not ``theta**2``: Python's pow and numpy's square
    # can differ in the last bit, and a scalar and an array theta must
    # give the same bits.
    return (m.v200 + theta * theta * m.v020 + m.v002
            - 2.0 * (theta * m.v110 - m.v101 + theta * m.v011))


def _tracy_mse(pop: PopulationSummary, m: MomentSet, A):
    """Tracy-product first-order MSE at transform constant ``A``.

    The one expression behind :func:`mse_first_order` for that kind and
    behind the CLI's whole-grid sweep, where ``A`` is an array.
    """
    return pop.mean_y**2 * _tracy_form(m, theta_of_A(pop, A))


def _dual_form(md: DualMomentSet, a1: float, a2: float) -> float:
    return (md.v200 + a1**2 * md.v020 + a2**2 * md.v002
            + 2.0 * (a1 * md.v110 - a1 * a2 * md.v011 - a2 * md.v101))


def _quadratic_form(spec: EstimatorSpec, pop: PopulationSummary,
                    m: MomentSet, md: DualMomentSet | None) -> float:
    kind = spec.kind
    if kind == "classical":
        return m.v200
    if kind == "combined_ratio":
        return m.v200 + m.v020 - 2.0 * m.v110
    if kind == "combined_product":
        return m.v200 + m.v002 + 2.0 * m.v101
    if kind == "transformed_product":
        theta = theta_of_A(pop, spec.A)
        return m.v200 + theta**2 * m.v020 - 2.0 * theta * m.v110
    if kind == "ratio_cum_product":
        return m.v200 + m.v020 + m.v002 + 2.0 * (m.v101 - m.v110 - m.v011)
    # plikusas_dual and dual_family share the same quadratic form.
    if md is None:
        raise ValueError(f"{kind} requires the dual moment set")
    return _dual_form(md, spec.alpha1, spec.alpha2)


def mse_first_order(
    spec: EstimatorSpec,
    pop: PopulationSummary,
    m: MomentSet,
    md: DualMomentSet | None = None,
    optimal_params: tuple[float, float] | None = None,
) -> MseReport:
    """First-order MSE of ``spec``, as ``mean_y**2`` times its quadratic form.

    ``md`` is required for the dual kinds.  A nonpositive MSE yields
    ``pre=None`` plus a breakdown warning naming the moment set that
    produced it.
    """
    if spec.kind == "tracy_product":
        mse = _tracy_mse(pop, m, spec.A)
    else:
        mse = pop.mean_y**2 * _quadratic_form(spec, pop, m, md)
    baseline = var_yst(pop, m)
    warnings: tuple[str, ...] = ()
    pre_value: float | None = None
    if mse > 0:
        pre_value = 100.0 * baseline / mse
    else:
        source = "dual moments" if spec.kind in DUAL_KINDS else "moments"
        warnings = (
            f"first-order MSE of {spec.label} is nonpositive ({mse}); the "
            f"supplied {source} are internally inconsistent at this order",
        )
    return MseReport(
        estimator=spec,
        mse=mse,
        pre=pre_value,
        var_yst=baseline,
        warnings=warnings,
        optimal_params=optimal_params,
    )


def optimize_theta(
    pop: PopulationSummary, m: MomentSet
) -> tuple[float, float, float]:
    """Minimize the transformed-product-with-z MSE over ``theta``.

    The quadratic form is strictly convex in ``theta`` whenever
    ``v020 > 0``; the minimizer is ``theta_opt = (v110 + v011) / v020``
    with ``A_opt = mean_x * (1 + theta_opt) / theta_opt``.

    Returns
    -------
    (theta_opt, A_opt, mse_min)

    Raises
    ------
    ValueError
        If ``v020`` is zero (no curvature) or ``theta_opt`` is zero
        (``A_opt`` would sit at infinity: degenerate optimum).
    """
    if m.v020 <= 0:
        raise ValueError("v020 must be positive to optimize theta")
    theta_opt = (m.v110 + m.v011) / m.v020
    if theta_opt == 0:
        raise ValueError("degenerate optimum: theta_opt = 0 has no finite A")
    A_opt = A_of_theta(pop, theta_opt)
    mse_min = pop.mean_y**2 * _tracy_form(m, theta_opt)
    return theta_opt, A_opt, mse_min


def optimize_alphas(
    md: DualMomentSet, pop: PopulationSummary
) -> tuple[float, float, float]:
    """Minimize the dual-family MSE over ``(alpha1, alpha2)``.

    Solves the 2x2 stationarity system of the quadratic form; requires
    the Gram determinant ``v020'*v002' - v011'**2`` to be nonsingular
    relative to its scale (otherwise the two transformed auxiliaries
    are collinear and no unique optimum exists).

    Returns
    -------
    (alpha1, alpha2, mse_min)
    """
    det = md.v020 * md.v002 - md.v011**2
    if abs(det) <= 1e-12 * md.v020 * md.v002:
        raise ValueError("collinear auxiliaries: dual moment determinant is singular")
    alpha1 = (md.v101 * md.v011 - md.v110 * md.v002) / det
    alpha2 = (md.v020 * md.v101 - md.v110 * md.v011) / det
    mse_min = pop.mean_y**2 * _dual_form(md, alpha1, alpha2)
    return alpha1, alpha2, mse_min


def bias_first_order_dual(
    md: DualMomentSet, pop: PopulationSummary, alpha1: float, alpha2: float
) -> float:
    """First-order bias of the dual family at ``(alpha1, alpha2)``.

    Equals ``mean_y`` times a five-term expression in the dual moments;
    it vanishes at ``alpha1 = alpha2 = 0`` and for an all-zero dual
    moment set.
    """
    bracket = (
        alpha1 * md.v110
        - alpha2 * md.v101
        - alpha1 * alpha2 * md.v011
        + alpha1 * (alpha1 - 1.0) / 2.0 * md.v020
        + alpha2 * (alpha2 + 1.0) / 2.0 * md.v002
    )
    return pop.mean_y * bracket


def pre(target: MseReport, baseline_var: float) -> float:
    """Percent relative efficiency ``100 * baseline_var / target.mse``.

    Raises ``ValueError`` on a nonpositive target MSE (first-order
    breakdown; no meaningful efficiency exists).
    """
    if target.mse <= 0:
        raise ValueError(
            f"nonpositive first-order MSE ({target.mse}) for {target.estimator.label}; "
            "percent relative efficiency undefined"
        )
    return 100.0 * baseline_var / target.mse


def efficiency_conditions(
    m: MomentSet,
    md: DualMomentSet,
    theta: float,
    alpha1: float,
    alpha2: float,
) -> EfficiencyVerdict:
    """Evaluate both beats-classical conditions at the given parameters.

    Both are strict inequalities expressed in subtraction form so the
    sign conventions cannot flip: the transformed-product condition
    compares ``B1 = theta^2*v020 + v002`` against ``2*B2`` with
    ``B2 = theta*v110 - v101 + theta*v011`` (unprimed moments), and the
    dual-family condition compares ``C = a1^2*v020' + a2^2*v002' -
    2*a1*a2*v011'`` against ``2*D`` with ``D = a2*v101' - a1*v110'``
    (dual moments).  Each margin is exactly the estimator's quadratic
    form minus ``v200``, so a negative margin is equivalent to
    ``MSE < Var(classical)`` at first order.
    """
    B1 = theta**2 * m.v020 + m.v002
    B2 = theta * m.v110 - m.v101 + theta * m.v011
    margin21 = B1 - 2.0 * B2
    C = alpha1**2 * md.v020 + alpha2**2 * md.v002 - 2.0 * alpha1 * alpha2 * md.v011
    D = alpha2 * md.v101 - alpha1 * md.v110
    margin22 = C - 2.0 * D
    return EfficiencyVerdict(
        condition21=margin21 < 0,
        margin21=margin21,
        condition22=margin22 < 0,
        margin22=margin22,
        B1=B1,
        B2=B2,
        C=C,
        D=D,
    )
