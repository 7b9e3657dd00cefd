"""Point estimators of the population mean from a stratified sample.

Implements the classical combined mean together with seven ratio- and
product-type refinements that exploit one or two auxiliary variables
with known population means, including a dual-transformed family whose
exponents interpolate between ratio-like and product-like behaviour.

All estimators consume combined (population-weighted) sample means, so
one :class:`SampleMeans` value drawn by the simulation harness can be
evaluated under every estimator.  Each kind is one row of
:data:`_TABLE`, which gives its two auxiliary factors; a spec resolves
its row once, and the first-order theory reads the same factors.  On a
population, a list of resolved rows compiles into the constants of one
array kernel (:func:`_kernel`), which evaluates every spec over a block
of draws at once and marks degenerate draws ``NaN`` instead of raising;
:func:`_rejection_codes` says why, on demand.  :func:`estimate` is the
kernel's one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import PopulationSummary, _weighted_sum

__all__ = [
    "KINDS",
    "DUAL_KINDS",
    "TRANSFORM_KINDS",
    "DegenerateSampleError",
    "SampleMeans",
    "EstimatorSpec",
    "parse_estimator",
    "dual_transform_means",
    "estimate",
]

#: The side of a factor that holds the sample-side mean: the sign of its
#: linear coefficient.  ``_ONE`` is the factor 1 (exponent 0).
_UP, _DOWN = 1.0, -1.0
_ONE = (_UP, 0.0, 0.0)

#: Every kind as one row: its x factor, its z factor, whether it reads
#: the dual means, and the parameters it binds.  The estimate is
#: ``ybar_st * f_x * f_z``, a factor ``(side, c, e)`` being ``(num/den)**e``
#: in the sample-side mean ``u`` and the population mean ``U``: up is
#: ``(c - u)/(c - U)``, down ``(c - U)/(c - u)``.  A name stands for the
#: :class:`EstimatorSpec` parameter, taken unless the row binds it.  Bar
#: ``:opt``, this is the only per-kind code: a spec resolves its row once
#: (:class:`_Row`), and the kernel, the theory and the CLI read that.
_TABLE = {
    "classical": (_ONE, _ONE, False, {}),
    "combined_ratio": ((_DOWN, 0.0, 1.0), _ONE, False, {}),
    "combined_product": (_ONE, (_UP, 0.0, 1.0), False, {}),
    "transformed_product": ((_UP, "A", 1.0), _ONE, False, {}),
    "ratio_cum_product": ((_DOWN, 0.0, 1.0), (_UP, 0.0, 1.0), False, {}),
    "tracy_product": ((_UP, "A", 1.0), (_UP, 0.0, 1.0), False, {}),
    "plikusas_dual": ((_UP, 0.0, "alpha1"), (_DOWN, 0.0, "alpha2"), True,
                      {"alpha1": 1.0, "alpha2": 1.0}),
    "dual_family": ((_UP, 0.0, "alpha1"), (_DOWN, 0.0, "alpha2"), True, {}),
}

#: Recognised estimator kinds.
KINDS = tuple(_TABLE)

#: Kinds built on the per-stratum dual transform (require n_h < N_h).
DUAL_KINDS = tuple(kind for kind, row in _TABLE.items() if row[2])

#: Kinds parameterized by the transform constant A.
TRANSFORM_KINDS = tuple(kind for kind, row in _TABLE.items() if row[0][1] == "A")


def _substituted(factors, values):
    """``factors`` ``(side, c, e)`` of :data:`_TABLE` with each name replaced
    by its entry in ``values``, which may be an array."""
    return tuple((side, values.get(c, c), values.get(e, e))
                 for side, c, e in factors)


class _Row(NamedTuple):
    """A spec's row of :data:`_TABLE`: its factors ``x`` and ``z`` with the
    spec's parameters in place of their names, its dual flag, the names
    ``params`` of its factors' parameters, which the ``mse`` table reports,
    and those it ``takes`` (does not bind), which its label shows and
    :func:`parse_estimator` accepts."""

    x: tuple
    z: tuple
    dual: bool
    params: tuple[str, ...]
    takes: tuple[str, ...]


class DegenerateSampleError(ValueError):
    """A realized sample makes the requested estimator undefined.

    Raised for sample-dependent degeneracies only (zero denominators,
    non-positive bases under fractional exponents); configuration
    errors such as a missing parameter raise plain ``ValueError``.  The
    Monte Carlo harness counts these rejections instead of silently
    resampling.
    """


@dataclass(frozen=True)
class SampleMeans:
    """Per-stratum sample means plus their weighted combination.

    ``stratum_ids`` records which strata (in which order) the means
    belong to, so estimators can verify alignment with the population
    they are evaluated against.
    """

    stratum_ids: tuple[str, ...]
    ybar: np.ndarray
    xbar: np.ndarray
    zbar: np.ndarray
    ybar_st: float
    xbar_st: float
    zbar_st: float

    @classmethod
    def from_stratum_means(
        cls,
        stratum_ids,
        ybar,
        xbar,
        zbar,
        w,
    ) -> "SampleMeans":
        """Build from per-stratum means and stratum weights ``w``."""
        ybar = np.asarray(ybar, dtype=float)
        xbar = np.asarray(xbar, dtype=float)
        zbar = np.asarray(zbar, dtype=float)
        w = np.asarray(w, dtype=float)
        if not len(ybar) == len(xbar) == len(zbar) == len(w) == len(stratum_ids):
            raise ValueError("stratum means and weights must align")
        return cls(
            stratum_ids=tuple(str(s) for s in stratum_ids),
            ybar=ybar,
            xbar=xbar,
            zbar=zbar,
            ybar_st=float(_weighted_sum(w, ybar)),
            xbar_st=float(_weighted_sum(w, xbar)),
            zbar_st=float(_weighted_sum(w, zbar)),
        )


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to evaluate, with its parameters.

    ``A`` is the transform constant for ``transformed_product`` and
    ``tracy_product`` (the working quantity is ``theta = mean_x /
    (A - mean_x)``, so ``A`` must differ from the population x-mean).
    ``alpha1``/``alpha2`` are the exponents of ``dual_family``;
    ``plikusas_dual`` fixes both to 1, and may be given them only at that
    value (as ``dataclasses.replace`` does).  A parameter its kind does
    not name raises ``ValueError``, so two specs that estimate alike are
    equal.  The spec resolves its row once into ``_row`` (a
    :class:`_Row`), which is not a field, so it changes no comparison,
    hash, ``repr`` or ``asdict``.
    """

    kind: str
    A: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None

    def __post_init__(self) -> None:
        x, z, dual, bound = _TABLE[_known(self.kind)]
        names = _names(x, z)
        for name in _LABEL_KEYS:  # every parameter field
            given = getattr(self, name)
            if given is not None and name not in names:
                raise ValueError(f"{self.kind} takes no parameter {name}")
            if given is not None and name in bound and given != bound[name]:
                raise ValueError(f"{self.kind} fixes {name} = "
                                 f"{bound[name]!r}, got {given!r}")
        values = {}
        for name in names:
            value = bound.get(name, getattr(self, name))
            if value is None:
                raise ValueError(f"{self.kind} requires the parameter {name}")
            values[name] = value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_row", _Row(
            *_substituted((x, z), values), dual, tuple(values),
            tuple(name for name in values if name not in bound)))

    @property
    def label(self) -> str:
        """Compact, re-parseable rendering (see :func:`parse_estimator`)."""
        params = ",".join(f"{_LABEL_KEYS[name]}={getattr(self, name)!r}"
                          for name in self._row.takes)
        return f"{self.kind}:{params}" if params else self.kind


#: The key of each parameter in a label and in the ``mse`` table, and the
#: parameter of each key :func:`parse_estimator` accepts.
_LABEL_KEYS = {"A": "A", "alpha1": "a1", "alpha2": "a2"}
_PARAM_ALIASES = {"a": "A", "A": "A", "a1": "alpha1", "alpha1": "alpha1",
                  "a2": "alpha2", "alpha2": "alpha2"}


def _known(kind: str) -> str:
    """``kind``, which must name a row of :data:`_TABLE`."""
    if kind not in _TABLE:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return kind


def _names(x: tuple, z: tuple) -> tuple[str, ...]:
    """The parameter names in the factors ``x`` and ``z`` of a row, in order."""
    return tuple(dict.fromkeys(v for v in (*x, *z) if isinstance(v, str)))


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse a compact estimator string into an :class:`EstimatorSpec`.

    Examples: ``"classical"``, ``"tracy_product:A=18631.62"``,
    ``"dual_family:a1=6.2918,a2=-0.8870"``.  A parameter the kind does
    not take, or one given twice under any of its keys, raises
    ``ValueError`` naming the keys and ``text``.
    """
    kind, _, params = text.strip().partition(":")
    x, z, _, bound = _TABLE[_known(kind)]
    takes = [name for name in _names(x, z) if name not in bound]
    kwargs: dict[str, float] = {}
    keys: dict[str, str] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed estimator parameter {item!r} in {text!r}")
            key = key.strip()
            if key not in _PARAM_ALIASES:
                raise ValueError(f"unknown estimator parameter {key!r} in {text!r}")
            name = _PARAM_ALIASES[key]
            if name in keys:
                raise ValueError(f"parameter {name} given twice, as "
                                 f"{keys[name]!r} and {key!r}, in {text!r}")
            keys[name] = key
            try:
                kwargs[name] = float(value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r} in {text!r}") from exc
    for name, key in keys.items():
        if name not in takes:
            raise ValueError(f"{kind} takes no parameter {key!r} in {text!r}")
    return EstimatorSpec(kind=kind, **kwargs)


def _check_alignment(sample: SampleMeans, pop: PopulationSummary) -> None:
    if sample.stratum_ids != pop.stratum_ids:
        raise ValueError(
            f"sample strata {sample.stratum_ids} do not align with "
            f"population strata {pop.stratum_ids}"
        )


def _dual_transform(pop: PopulationSummary, xz: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Per-stratum dual-transformed x and z means of a block of draws.

    ``xz`` holds the draws' per-stratum x and z sample means, shape
    ``(2, rows, L)``; the result, of the same shape and written into
    ``out`` when given, holds ``(1 + g_h) * Xbar_h - g_h * xbar_h`` and
    likewise in z.
    """
    g = pop.g
    return np.subtract((1.0 + g) * pop.means[1:, None], g * xz, out=out)


def _dual_means(pop: PopulationSummary, xz: np.ndarray) -> np.ndarray:
    """Combined dual-transformed x and z means of a block of draws.

    ``xz`` holds the draws' per-stratum x and z sample means, shape
    ``(2, rows, L)``; the result, shape ``(2, rows)``, holds their
    combined ``xstar`` and ``zstar`` means.
    """
    return _weighted_sum(pop.w, _dual_transform(pop, xz))


def dual_transform_means(
    sample: SampleMeans, pop: PopulationSummary
) -> tuple[float, float]:
    """Combined dual-transformed auxiliary means ``(xstar_st, zstar_st)``.

    Per stratum the transform is ``(1 + g_h) * Xbar_h - g_h * xbar_h``
    (and likewise in z); the results are combined with the stratum
    weights.  The transform is design-unbiased for the population means
    and reverses the direction of correlation with the study variable.
    """
    _check_alignment(sample, pop)
    pop.require_no_census("the dual transform")
    xstar, zstar = _dual_means(pop, np.array([[sample.xbar], [sample.zbar]]))
    return float(xstar[0]), float(zstar[0])


def _check_estimator(spec: EstimatorSpec, pop: PopulationSummary) -> None:
    """Raise ``ValueError`` if ``spec`` is undefined on ``pop`` for every sample.

    These are configuration errors: census strata for dual kinds, ``A``
    equal to the population x-mean, zero population means where they
    divide.
    """
    (_, A, _), z, dual = spec._row[:3]
    if A and A - pop.mean_x == 0:  # the x factor divides by it
        raise ValueError("A equals the population x-mean; theta undefined")
    if dual:
        pop.require_no_census("the dual transform")
        if pop.mean_x == 0 or pop.mean_z == 0:
            raise ValueError("population auxiliary means must be nonzero")
    elif z != _ONE and pop.mean_z == 0:  # a z factor divides by it
        raise ValueError("population z-mean is zero")


#: Why the kernel rejects a draw, by rejection code; code 0 accepts it.
_REJECTIONS = (
    "",
    "combined sample x-mean is zero",
    "dual-transformed z-mean is zero",
    "dual-transformed x ratio is zero with negative exponent",
    "dual-transformed x ratio = {base} is negative under fractional exponent {exponent}",
    "dual-transformed z ratio is zero with negative exponent",
    "dual-transformed z ratio = {base} is negative under fractional exponent {exponent}",
)


class _Kernel(NamedTuple):
    """The constants of the block kernel: a list of spec rows compiled on
    one population (:func:`_kernel`).

    Each array has a trailing draw axis of length 1.  ``up`` (``side >
    0``), ``c``, ``e`` and ``population_side`` (``c - U``, ``U`` the
    population mean the factor reads) have shape ``(2, S, 1)``, the x
    factors then the z factors; so do the masks of the exponents under
    which a draw can be rejected: ``divides`` (``e != 0``), ``negative``
    (``e < 0``) and ``fractional`` (``e`` not whole).  ``reads_dual`` has
    shape ``(S, 1)``.
    """

    up: np.ndarray
    c: np.ndarray
    e: np.ndarray
    population_side: np.ndarray
    divides: np.ndarray
    negative: np.ndarray
    fractional: np.ndarray
    reads_dual: np.ndarray


def _kernel(rows, pop: PopulationSummary) -> _Kernel:
    """The :class:`_Kernel` of ``rows`` on ``pop``, compiled once per set-up
    so that no block of draws rebuilds it.

    A row is a spec's ``_row`` (a :class:`_Row`) or any ``(x, z, dual)``
    triple of factors ``(side, c, e)`` and a dual flag.
    """
    factors = np.array([row[:2] for row in rows], dtype=float)
    side, c, e = factors.reshape(len(rows), 2, 3).transpose(2, 1, 0)[..., None]
    reads_dual = np.array([row[2] for row in rows], dtype=bool)[:, None]
    U = np.array([pop.mean_x, pop.mean_z])[:, None, None]
    return _Kernel(up=side > 0, c=c, e=e, population_side=c - U,
                   divides=e != 0, negative=e < 0, fractional=e != np.trunc(e),
                   reads_dual=reads_dual)


def _estimate_block(kernel: _Kernel, ybar_st: np.ndarray, plain: np.ndarray,
                    dual: np.ndarray | None = None):
    """Evaluate the ``S`` specs of a compiled :func:`_kernel` on a block of
    draws.

    Takes the draws' combined y means, their x and z means ``plain``
    (shape ``(2, rows)``) and, for a kernel with dual kinds, their dual means.
    The kernel is compiled once per set-up, so a block computes only what
    depends on its draws.  Returns ``(values, ratios, den)``: ``values``,
    shape ``(S, rows)``, is ``NaN`` where some factor rejects the draw, and
    ``ratios`` and ``den`` (``(2, S, rows)``) hold each factor's ``num/den``
    and ``den``, all that :func:`_rejection_codes` needs to say why.  No
    code is built here: a Monte Carlo study reads only the values.
    Configuration is checked by :func:`_check_estimator`.
    """
    (up, c, e, population_side, divides, negative, fractional,
     reads_dual) = kernel
    u = plain[:, None] if dual is None else np.where(
        reads_dual, dual[:, None], plain[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sample_side = c - u
        den = np.where(up, population_side, sample_side)
        ratios = np.where(up, sample_side, population_side) / den
        # e = 1 keeps the ratio's bits; e = 0 gives 1, even at infinity.
        factors = ratios**e
        values = ybar_st * factors[0] * factors[1]
    zero_den, zero_ratio, negative_ratio = _rejections(kernel, ratios, den)
    rejected = zero_den | zero_ratio
    rejected |= negative_ratio
    np.copyto(values, np.nan, where=rejected[0] | rejected[1])
    return values, ratios, den


def _rejections(kernel: _Kernel, ratios: np.ndarray, den: np.ndarray):
    """The draws each factor rejects, as three ``(2, S, rows)`` masks: a
    zero ``den`` under ``e != 0``, a zero ratio under ``e < 0`` and a
    negative ratio under a fractional ``e``."""
    return (kernel.divides & (den == 0), kernel.negative & (ratios == 0),
            kernel.fractional & (ratios < 0))


def _rejection_codes(kernel: _Kernel, ratios: np.ndarray,
                     den: np.ndarray) -> np.ndarray:
    """Why :func:`_estimate_block` rejected each draw, from its ``ratios``
    and ``den``.

    Returns an ``int64`` array of shape ``(S, rows)`` indexing
    :data:`_REJECTIONS`: 0 where the value was accepted, else the lowest
    code whose condition holds, so it is nonzero exactly where the value
    is ``NaN``.
    """
    zero_den, zero_ratio, negative_ratio = _rejections(kernel, ratios, den)
    # Codes 1 to 6 of _REJECTIONS, x before z, written from 6 down to 1
    # so that the lowest code wins.
    codes = np.zeros(den.shape[1:], dtype=np.int64)
    for code, rejected in ((6, negative_ratio[1]), (5, zero_ratio[1]),
                           (4, negative_ratio[0]), (3, zero_ratio[0]),
                           (2, zero_den[1]), (1, zero_den[0])):
        codes[rejected] = code
    return codes


def estimate(
    spec: EstimatorSpec, sample: SampleMeans, pop: PopulationSummary
) -> float:
    """Evaluate one estimator on one realized sample.

    Raises
    ------
    DegenerateSampleError
        When this particular sample makes the estimator undefined
        (zero combined mean in a denominator, non-positive dual base
        under a fractional exponent).
    ValueError
        For configuration errors independent of the sample (census
        strata for dual kinds, ``A`` equal to the population x-mean,
        zero population means where they divide).
    """
    _check_alignment(sample, pop)
    _check_estimator(spec, pop)
    kernel = _kernel([spec._row], pop)
    dual = (np.array(dual_transform_means(sample, pop))[:, None]
            if spec._row.dual else None)
    values, ratios, den = _estimate_block(
        kernel, np.array([sample.ybar_st]),
        np.array([[sample.xbar_st], [sample.zbar_st]]), dual)
    code = int(_rejection_codes(kernel, ratios, den)[0, 0])
    if code:
        axis = 0 if code in (1, 3, 4) else 1  # the factor that failed
        raise DegenerateSampleError(_REJECTIONS[code].format(
            base=float(ratios[axis, 0, 0]),
            exponent=float(kernel.e[axis, 0, 0])))
    return float(values[0, 0])
