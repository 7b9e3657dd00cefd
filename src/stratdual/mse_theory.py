"""First-order MSE theory for the stratified estimator family.

To first order every estimator here is ``mean_y * (1 + e_y + b_x*e_x +
b_z*e_z)`` in the relative errors of the sample means, so its mean
squared error is one quadratic form ``mean_y**2 * c' V c`` with
``c = (1, b_x, b_z)`` and ``V`` the 3x3 matrix of the six relative
moments of :mod:`stratdual.moments` (the dual moments for the
dual-transformed kinds, whose errors are those of the transformed
means).  The kinds' coefficients ``(b_x, b_z)`` are classical (0, 0),
combined_ratio (-1, 0), combined_product (0, 1), ratio_cum_product
(-1, 1), transformed_product (-theta, 0), tracy_product (-theta, 1),
and, on the dual moments, dual_family (alpha1, -alpha2), of which
plikusas_dual is the point (1, 1).

This module evaluates that form, provides the closed-form optimizers
for the transform constant and for the dual-family exponents, the
first-order bias of the dual family, percent relative efficiencies, and
the two efficiency conditions that decide when the transformed and
dual-family estimators beat the classical combined mean.

Negative first-order MSEs (possible when externally supplied inputs are
internally inconsistent) are reported with a warning, never clamped:
surfacing data defects is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import PopulationSummary
from .estimators import DUAL_KINDS, TRANSFORM_KINDS, EstimatorSpec
from .moments import MomentSet

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
    "efficiency_conditions",
]


@dataclass(frozen=True)
class MseReport:
    """First-order MSE of one estimator, with its efficiency.

    ``pre`` is the percent relative efficiency versus the classical
    combined mean (``100 * var_yst / mse``); it is ``None`` when the
    MSE is nonpositive, in which case ``warnings`` explains the
    first-order breakdown.  Both are derived from ``mse`` and
    ``var_yst``.
    """

    estimator: EstimatorSpec
    mse: float
    var_yst: float
    pre: float | None = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        pre, warnings = None, ()
        if self.mse > 0:
            pre = 100.0 * self.var_yst / self.mse
        else:
            source = ("dual moments" if self.estimator.kind in DUAL_KINDS
                      else "moments")
            warnings = (
                f"first-order MSE of {self.estimator.label} is nonpositive "
                f"({self.mse}); the supplied {source} are internally "
                "inconsistent at this order",
            )
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "warnings", warnings)


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


#: Linearisation coefficients ``(b_x, b_z)`` of the kinds without
#: parameters; the module docstring lists every kind's.
_FIXED = {
    "classical": (0.0, 0.0),
    "combined_ratio": (-1.0, 0.0),
    "combined_product": (0.0, 1.0),
    "ratio_cum_product": (-1.0, 1.0),
}


def _form(v: MomentSet, bx, bz):
    """The quadratic form ``c' V c`` with ``c = (1, bx, bz)``.

    ``bx * bx``, not ``bx**2``: Python's pow and numpy's square can
    differ in the last bit, and a scalar and an array ``bx`` must give
    the same bits.
    """
    return (v.v200 + bx * bx * v.v020 + bz * bz * v.v002
            + 2.0 * (bx * v.v110 + bz * v.v101 + bx * bz * v.v011))


def _require(v: MomentSet | None, dual: bool, name: str) -> None:
    """Reject a moment set of the wrong kind, such as a swapped ``m``/``md``."""
    if v is not None and v.dual != dual:
        raise ValueError(
            f"{name} must be {'a dual' if dual else 'an unprimed'} moment set"
        )


def mse_first_order(
    spec: EstimatorSpec,
    pop: PopulationSummary,
    m: MomentSet,
    md: MomentSet | None = None,
) -> MseReport:
    """First-order MSE of ``spec``: ``mean_y**2 * c' V c``.

    ``c = (1, b_x, b_z)`` holds the kind's linearisation coefficients
    and ``V`` is the unprimed set ``m``, or the dual set ``md`` for the
    dual kinds, which require it.  A nonpositive MSE yields ``pre=None``
    plus a breakdown warning naming the moment set that produced it.
    """
    _require(m, False, "m")
    _require(md, True, "md")
    if spec.kind in DUAL_KINDS:
        if md is None:
            raise ValueError(f"{spec.kind} requires the dual moment set")
        v, bx, bz = md, spec.alpha1, -spec.alpha2
    elif spec.kind in TRANSFORM_KINDS:
        v, bx = m, -theta_of_A(pop, spec.A)
        bz = 1.0 if spec.kind == "tracy_product" else 0.0
    else:
        v, (bx, bz) = m, _FIXED[spec.kind]
    return MseReport(
        estimator=spec,
        mse=pop.mean_y**2 * _form(v, bx, bz),
        var_yst=var_yst(pop, m),
    )


def optimize_theta(
    pop: PopulationSummary, m: MomentSet
) -> tuple[float, float, float]:
    """Minimize the transformed-product-with-z MSE over ``theta``.

    With ``b_z = 1`` fixed, the form is strictly convex in ``b_x =
    -theta`` whenever ``v020 > 0``; the minimizer is ``b_x = -(v110 +
    b_z*v011) / v020``, so ``theta_opt = (v110 + v011) / v020``, with
    ``A_opt = mean_x * (1 + theta_opt) / theta_opt``.

    Returns
    -------
    (theta_opt, A_opt, mse_min)
        ``mse_min`` is :func:`mse_first_order` of
        ``EstimatorSpec(kind="tracy_product", A=A_opt)``, the spec the
        optimum resolves to, so every table prints one value for it.

    Raises
    ------
    ValueError
        If ``v020`` is zero (no curvature) or ``theta_opt`` is zero
        (``A_opt`` would sit at infinity: degenerate optimum), or if
        ``A_opt`` is not a valid transform constant.
    """
    _require(m, False, "m")
    if m.v020 <= 0:
        raise ValueError("v020 must be positive to optimize theta")
    theta_opt = (m.v110 + m.v011) / m.v020
    if theta_opt == 0:
        raise ValueError("degenerate optimum: theta_opt = 0 has no finite A")
    A_opt = A_of_theta(pop, theta_opt)
    spec = EstimatorSpec(kind="tracy_product", A=A_opt)
    return theta_opt, A_opt, mse_first_order(spec, pop, m).mse


def optimize_alphas(
    md: MomentSet, pop: PopulationSummary
) -> tuple[float, float, float]:
    """Minimize the dual-family MSE over ``(alpha1, alpha2)``.

    Solves the 2x2 stationarity system of the quadratic form in
    ``(b_x, b_z) = (alpha1, -alpha2)`` on the dual moments; requires
    the Gram determinant ``v020'*v002' - v011'**2`` to be nonsingular
    relative to its scale (otherwise the two transformed auxiliaries
    are collinear and no unique optimum exists).

    Returns
    -------
    (alpha1, alpha2, mse_min)
    """
    _require(md, True, "md")
    det = md.v020 * md.v002 - md.v011**2
    if abs(det) <= 1e-12 * md.v020 * md.v002:
        raise ValueError("collinear auxiliaries: dual moment determinant is singular")
    bx = (md.v101 * md.v011 - md.v110 * md.v002) / det
    bz = (md.v110 * md.v011 - md.v020 * md.v101) / det
    mse_min = pop.mean_y**2 * _form(md, bx, bz)
    return bx, -bz, mse_min


def bias_first_order_dual(
    md: MomentSet, pop: PopulationSummary, alpha1: float, alpha2: float
) -> float:
    """First-order bias of the dual family at ``(alpha1, alpha2)``.

    Equals ``mean_y`` times a five-term expression in the dual moments;
    it vanishes at ``alpha1 = alpha2 = 0`` and for an all-zero dual
    moment set.
    """
    _require(md, True, "md")
    bracket = (
        alpha1 * md.v110
        - alpha2 * md.v101
        - alpha1 * alpha2 * md.v011
        + alpha1 * (alpha1 - 1.0) / 2.0 * md.v020
        + alpha2 * (alpha2 + 1.0) / 2.0 * md.v002
    )
    return pop.mean_y * bracket


def efficiency_conditions(
    m: MomentSet,
    md: MomentSet,
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
    _require(m, False, "m")
    _require(md, True, "md")
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
