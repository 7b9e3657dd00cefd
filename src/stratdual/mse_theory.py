"""First-order MSE theory for the stratified estimator family.

Every estimator kind is one row of ``stratdual.estimators._TABLE``: the
mean ``ybar_st`` times an x and a z factor ``(num/den)**e``.  To first
order a factor is ``1 + b*e_u`` in the relative error ``e_u`` of its
sample-side mean, and to second order it adds ``q*e_u**2``, with ``b`` and
``q`` read from the row (:func:`_linearisation`).  So every first-order
MSE is one quadratic form ``mean_y**2 * c' V c`` with ``c = (1, b_x,
b_z)`` and ``V`` the 3x3 matrix of the six relative moments of
:mod:`stratdual.moments` (the dual moments for the dual-transformed
kinds, whose errors are those of the transformed means), and the
first-order bias of the dual family comes from the same ``b`` and ``q``.
One elementwise function gives ``b`` and ``q`` (:func:`_coefficients`)
and one function evaluates the form (:func:`_form`); the MSEs, optima
and efficiency margins below all read them.

This module evaluates that form, provides the closed-form optimizers
for the transform constant and for the dual-family exponents, the
first-order bias of the dual family, percent relative efficiencies, and
the two efficiency conditions that decide when the transformed and
dual-family estimators beat the classical combined mean.

Negative first-order MSEs (possible when externally supplied inputs are
internally inconsistent) are reported with a warning, never clamped:
surfacing data defects is part of the contract.  An MSE of exactly 0
(every stratum sampled whole) is exact, and its warning says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import PopulationSummary
from .estimators import _TABLE, EstimatorSpec, _substituted
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


class _NoOptimum(ValueError):
    """The population has no such optimum: the MSE has no unique finite
    minimizer, as opposed to one that overflows a float."""


@dataclass(frozen=True)
class MseReport:
    """First-order MSE of one estimator, with its efficiency.

    ``pre`` is the percent relative efficiency versus the classical
    combined mean (``100 * var_yst / mse``); it is ``None`` when the
    MSE is nonpositive, in which case ``warnings`` says why: an MSE of 0
    is exact at first order (a census design), and a negative one is a
    first-order breakdown of the moments.  Both are derived from ``mse``
    and ``var_yst``.  An ``mse`` or a ``pre`` that is not finite (a float
    overflowed on the way) raises ``ValueError`` naming the estimator.
    """

    estimator: EstimatorSpec
    mse: float
    var_yst: float
    pre: float | None = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        source = "dual moments" if self.estimator._row.dual else "moments"
        if not math.isfinite(self.mse):
            raise ValueError(f"first-order MSE of {self.estimator.label} is "
                             f"{self.mse}: it overflows a float on the "
                             f"supplied {source}")
        pre, warnings = None, ()
        if self.mse > 0:
            pre = 100.0 * self.var_yst / self.mse
            if not math.isfinite(pre):
                raise ValueError(f"PRE of {self.estimator.label} is {pre}: "
                                 f"var_yst = {self.var_yst} against a "
                                 f"first-order MSE of {self.mse}")
        elif self.mse == 0:
            warnings = (f"first-order MSE of {self.estimator.label} is 0: the "
                        "estimator is exact at first order, and its PRE is "
                        "undefined",)
        else:
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

    ``margin21`` is the quadratic form of ``tracy_product`` (the
    transformed product with z) at ``theta`` minus ``v200``, in unprimed
    moments; ``margin22`` that of the dual family at ``(alpha1, alpha2)``
    minus ``v200'``, in dual moments.  ``condition21`` and ``condition22``
    hold iff their margin is negative, that is iff the estimator beats
    the classical mean at first order.
    """

    condition21: bool
    margin21: float
    condition22: bool
    margin22: float


def var_yst(pop: PopulationSummary, m: MomentSet) -> float:
    """Exact variance of the classical combined mean: ``mean_y**2 * v200``."""
    return pop.mean_y**2 * m.v200


def theta_of_A(pop: PopulationSummary, A: float) -> float:
    """The working transform parameter ``theta = mean_x / (A - mean_x)``,
    minus the ``a`` of the transformed x factor (:func:`_linearisation`).

    ``A`` may be a scalar or an array; an array is mapped elementwise.
    """
    (b_x, _), _ = _linearisation(pop, "transformed_product", A=A)
    return -b_x


def A_of_theta(pop: PopulationSummary, theta: float) -> float:
    """Inverse of :func:`theta_of_A`: ``A = mean_x * (1 + theta) / theta``.

    ``theta`` may be a scalar or an array; an array is mapped elementwise.
    """
    if np.any(theta == 0):
        raise ValueError("theta = 0 corresponds to A at infinity")
    return pop.mean_x * (1.0 + theta) / theta


def _coefficients(U, side, c, e):
    """``(b, q)`` of a factor ``(side, c, e)`` about population mean ``U``,
    or elementwise of the factors of an array ``c``, such as the ``sweep``
    command's grid of ``A``.

    A factor is ``(1 + a*e_u)**(s*e)`` in the relative error ``e_u`` of
    its mean, ``s`` its side (``+1`` up, ``-1`` down) and ``a = U/(U - c)``,
    which is 1 where ``c = 0``.  So ``b = s*e*a`` and ``q = s*e*(s*e - 1)/2
    * a**2``.  A zero ``U - c`` raises ``ValueError``, except in a scalar
    factor with ``c = 0``, which takes ``a = 1`` without dividing.  Scalars
    stay Python floats, which is several times faster than numpy on
    scalars and gives the same bits.
    """
    gap = U - c
    a = 1.0
    if isinstance(gap, np.ndarray) or c != 0:
        if np.any(gap == 0):
            raise ValueError("A equals the population x-mean; theta undefined")
        a = U / gap
    p = side * e
    return p * a, p * (p - 1.0) / 2.0 * (a * a)


def _linearisation(pop: PopulationSummary, kind: str, **params):
    """``((b_x, q_x), (b_z, q_z))`` of the kind's factors (:func:`_coefficients`)
    at ``params``, for the closed forms over one kind's parameters; ``A``
    may be an array, which makes the x factor's coefficients arrays."""
    x, z = _substituted(_TABLE[kind][:2], params)
    return _coefficients(pop.mean_x, *x), _coefficients(pop.mean_z, *z)


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
    v = m
    if spec._row.dual:
        if md is None:
            raise ValueError(f"{spec.kind} requires the dual moment set")
        v = md
    bx, _ = _coefficients(pop.mean_x, *spec._row.x)
    bz, _ = _coefficients(pop.mean_z, *spec._row.z)
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
        If ``v020`` is not positive (no curvature) or ``theta_opt`` is
        zero (``A_opt`` would sit at infinity: degenerate optimum), both
        as ``_NoOptimum``: the population has no such optimum; if
        ``A_opt`` overflows a float or rounds to the population x-mean
        (the message then gives the moments of ``theta_opt``), or if its
        MSE is not finite.
    """
    _require(m, False, "m")
    if m.v020 <= 0:
        raise _NoOptimum("v020 must be positive to optimize theta")
    theta_opt = (m.v110 + m.v011) / m.v020
    if theta_opt == 0:
        raise _NoOptimum("degenerate optimum: theta_opt = 0 has no finite A")
    A_opt = A_of_theta(pop, theta_opt)
    if not math.isfinite(A_opt) or A_opt == pop.mean_x:
        what = (f"rounds to the population x-mean {pop.mean_x!r}"
                if math.isfinite(A_opt) else
                f"is {A_opt!r}: it overflows a float")
        raise ValueError(f"A_opt {what} at theta_opt = (v110 + v011) / v020 = "
                         f"({m.v110!r} + {m.v011!r}) / {m.v020!r}")
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

    Raises
    ------
    ValueError
        If the determinant is singular (as ``_NoOptimum``: the population
        has no such optimum), if ``v011'**2`` overflows, or if
        an optimal alpha overflows a float (the message then gives the
        determinant and the dual moments it comes from).
    """
    _require(md, True, "md")
    try:
        det = md.v020 * md.v002 - md.v011**2
    except OverflowError:
        raise ValueError(f"dual moment v011={md.v011} is too large to "
                         "optimize the alphas: its square overflows") from None
    if abs(det) <= 1e-12 * md.v020 * md.v002:
        raise _NoOptimum("collinear auxiliaries: dual moment determinant is "
                         "singular")
    bx = (md.v101 * md.v011 - md.v110 * md.v002) / det
    bz = (md.v110 * md.v011 - md.v020 * md.v101) / det
    if not (math.isfinite(bx) and math.isfinite(bz)):
        moments = ", ".join(f"{name}={getattr(md, name)!r}" for name in
                            ("v020", "v002", "v110", "v101", "v011"))
        raise ValueError(f"alpha1 is {bx!r} and alpha2 {-bz!r}: they overflow "
                         f"a float at the determinant v020*v002 - v011**2 = "
                         f"{det!r} of the dual moments {moments}")
    mse_min = pop.mean_y**2 * _form(md, bx, bz)
    return bx, -bz, mse_min


def bias_first_order_dual(
    md: MomentSet, pop: PopulationSummary, alpha1: float, alpha2: float
) -> float:
    """First-order bias of the dual family at ``(alpha1, alpha2)``.

    Equals ``mean_y * (b_x v110' + b_z v101' + b_x b_z v011' + q_x v020'
    + q_z v002')`` with the coefficients of the dual-family factors (see
    :func:`_linearisation`); it vanishes at ``alpha1 = alpha2 = 0`` and
    for an all-zero dual moment set.
    """
    _require(md, True, "md")
    (bx, qx), (bz, qz) = _linearisation(pop, "dual_family", alpha1=alpha1,
                                        alpha2=alpha2)
    return pop.mean_y * (bx * md.v110 + bz * md.v101 + bx * bz * md.v011
                         + qx * md.v020 + qz * md.v002)


def efficiency_conditions(
    m: MomentSet,
    md: MomentSet,
    theta: float,
    alpha1: float,
    alpha2: float,
) -> EfficiencyVerdict:
    """Evaluate both beats-classical conditions at the given parameters.

    Each margin is the estimator's quadratic form minus ``v200``: with
    ``c = (1, -theta, 1)`` on the unprimed moments for ``tracy_product``,
    and ``c = (1, alpha1, -alpha2)`` on the dual moments for the dual
    family.  So a negative margin is equivalent to ``MSE <
    Var(classical)`` at first order.
    """
    _require(m, False, "m")
    _require(md, True, "md")
    margin21 = _form(m, -theta, 1.0) - m.v200
    margin22 = _form(md, alpha1, -alpha2) - md.v200
    return EfficiencyVerdict(
        condition21=margin21 < 0,
        margin21=margin21,
        condition22=margin22 < 0,
        margin22=margin22,
    )
