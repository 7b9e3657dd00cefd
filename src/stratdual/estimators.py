"""Point estimators of the population mean from a stratified sample.

Implements the classical combined mean together with seven ratio- and
product-type refinements that exploit one or two auxiliary variables
with known population means, including a dual-transformed family whose
exponents interpolate between ratio-like and product-like behaviour.

All estimators consume combined (population-weighted) sample means, so
one :class:`SampleMeans` value drawn by the simulation harness can be
evaluated under every estimator.  Each kind is computed by one array
kernel over a block of draws, which marks degenerate draws with a
rejection code instead of raising; :func:`estimate` is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

#: Recognised estimator kinds.
KINDS = (
    "classical",
    "combined_ratio",
    "combined_product",
    "transformed_product",
    "ratio_cum_product",
    "tracy_product",
    "plikusas_dual",
    "dual_family",
)

#: Kinds built on the per-stratum dual transform (require n_h < N_h).
DUAL_KINDS = ("plikusas_dual", "dual_family")

#: Kinds parameterized by the transform constant A.
TRANSFORM_KINDS = ("transformed_product", "tracy_product")


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
    ``plikusas_dual`` fixes both to 1.
    """

    kind: str
    A: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind in TRANSFORM_KINDS:
            if self.A is None:
                raise ValueError(f"{self.kind} requires the transform constant A")
            object.__setattr__(self, "A", float(self.A))
            if not math.isfinite(self.A):
                raise ValueError("A must be finite")
        if self.kind == "plikusas_dual":
            object.__setattr__(self, "alpha1", 1.0)
            object.__setattr__(self, "alpha2", 1.0)
        if self.kind == "dual_family":
            if self.alpha1 is None or self.alpha2 is None:
                raise ValueError("dual_family requires alpha1 and alpha2")
            object.__setattr__(self, "alpha1", float(self.alpha1))
            object.__setattr__(self, "alpha2", float(self.alpha2))
            if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
                raise ValueError("alpha1 and alpha2 must be finite")

    @property
    def label(self) -> str:
        """Compact, re-parseable rendering (see :func:`parse_estimator`)."""
        if self.kind in TRANSFORM_KINDS:
            return f"{self.kind}:A={self.A!r}"
        if self.kind == "dual_family":
            return f"{self.kind}:a1={self.alpha1!r},a2={self.alpha2!r}"
        return self.kind


_PARAM_ALIASES = {
    "a": "A",
    "A": "A",
    "a1": "alpha1",
    "alpha1": "alpha1",
    "a2": "alpha2",
    "alpha2": "alpha2",
}


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse a compact estimator string into an :class:`EstimatorSpec`.

    Examples: ``"classical"``, ``"tracy_product:A=18631.62"``,
    ``"dual_family:a1=6.2918,a2=-0.8870"``.
    """
    kind, _, params = text.strip().partition(":")
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed estimator parameter {item!r} in {text!r}")
            key = key.strip()
            if key not in _PARAM_ALIASES:
                raise ValueError(f"unknown estimator parameter {key!r} in {text!r}")
            try:
                kwargs[_PARAM_ALIASES[key]] = float(value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r} in {text!r}") from exc
    return EstimatorSpec(kind=kind, **kwargs)


def _check_alignment(sample: SampleMeans, pop: PopulationSummary) -> None:
    if sample.stratum_ids != pop.stratum_ids:
        raise ValueError(
            f"sample strata {sample.stratum_ids} do not align with "
            f"population strata {pop.stratum_ids}"
        )


def _dual_means(pop: PopulationSummary, xbar: np.ndarray, zbar: np.ndarray):
    """Combined dual-transformed means of per-stratum sample means.

    ``xbar`` and ``zbar`` hold one draw (shape ``(L,)``) or a block of
    draws (shape ``(c, L)``); the results have the leading shape.
    """
    g = pop.g
    xstar = _weighted_sum(pop.w, (1.0 + g) * pop.means[1] - g * xbar)
    zstar = _weighted_sum(pop.w, (1.0 + g) * pop.means[2] - g * zbar)
    return xstar, zstar


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
    xstar, zstar = _dual_means(pop, sample.xbar, sample.zbar)
    return float(xstar), float(zstar)


def _check_estimator(spec: EstimatorSpec, pop: PopulationSummary) -> None:
    """Raise ``ValueError`` if ``spec`` is undefined on ``pop`` for every sample.

    These are configuration errors: census strata for dual kinds, ``A``
    equal to the population x-mean, zero population means where they
    divide.
    """
    kind = spec.kind
    if kind in TRANSFORM_KINDS and spec.A - pop.mean_x == 0:
        raise ValueError("A equals the population x-mean; theta undefined")
    if kind in DUAL_KINDS:
        pop.require_no_census("the dual transform")
        if pop.mean_x == 0 or pop.mean_z == 0:
            raise ValueError("population auxiliary means must be nonzero")
    elif kind in ("combined_product", "ratio_cum_product", "tracy_product"):
        if pop.mean_z == 0:
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
_ZERO_XBAR, _ZERO_ZSTAR, _ZERO_X_RATIO, _ZERO_Z_RATIO = 1, 2, 3, 5


def _power_checks(base: np.ndarray, exponent: float, zero_code: int) -> list:
    """Where ``base ** exponent`` has no real value, with rejection codes.

    A zero base under a negative exponent gets ``zero_code`` and a
    negative base under a fractional exponent ``zero_code + 1``; integer
    exponents of negative bases are real and accepted.
    """
    checks = []
    if exponent < 0:
        checks.append((base == 0.0, zero_code))
    if not float(exponent).is_integer():
        checks.append((base < 0.0, zero_code + 1))
    return checks


def _estimate_block(
    spec: EstimatorSpec,
    pop: PopulationSummary,
    ybar_st: np.ndarray,
    xbar_st: np.ndarray,
    zbar_st: np.ndarray,
    xstar_st: np.ndarray | None = None,
    zstar_st: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one estimator on a block of draws.

    Takes the combined sample means of the draws, one entry each, and
    for dual kinds their combined dual-transformed means.  Returns
    ``(values, codes)``: ``codes`` is the index into :data:`_REJECTIONS`
    of the first degeneracy of each draw, 0 where there is none, and
    ``values`` is ``NaN`` where ``codes`` is nonzero.  Configuration is
    not checked here; see :func:`_check_estimator`.
    """
    kind = spec.kind
    checks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "classical":
            value = ybar_st
        elif kind == "combined_ratio":
            checks.append((xbar_st == 0, _ZERO_XBAR))
            value = ybar_st * pop.mean_x / xbar_st
        elif kind == "combined_product":
            value = ybar_st * zbar_st / pop.mean_z
        elif kind == "ratio_cum_product":
            checks.append((xbar_st == 0, _ZERO_XBAR))
            value = ybar_st * (pop.mean_x / xbar_st) * (zbar_st / pop.mean_z)
        elif kind in TRANSFORM_KINDS:
            value = ybar_st * (spec.A - xbar_st) / (spec.A - pop.mean_x)
            if kind == "tracy_product":
                value = value * (zbar_st / pop.mean_z)
        else:
            if spec.alpha2 != 0:
                checks.append((zstar_st == 0, _ZERO_ZSTAR))
            # At zstar = 0 with alpha2 = 0 the z ratio is infinite and
            # its zeroth power is 1.
            base_x = xstar_st / pop.mean_x
            base_z = pop.mean_z / zstar_st
            if kind == "plikusas_dual":
                value = ybar_st * base_x * base_z
            else:
                checks += _power_checks(base_x, spec.alpha1, _ZERO_X_RATIO)
                checks += _power_checks(base_z, spec.alpha2, _ZERO_Z_RATIO)
                value = ybar_st * base_x**spec.alpha1 * base_z**spec.alpha2
    if not checks:
        return value, np.zeros(np.shape(value), dtype=int)
    codes = np.select([bad for bad, _ in checks], [code for _, code in checks], 0)
    return np.where(codes == 0, value, np.nan), codes


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
    means = [sample.ybar_st, sample.xbar_st, sample.zbar_st]
    if spec.kind in DUAL_KINDS:
        means += dual_transform_means(sample, pop)
    value, codes = _estimate_block(spec, pop, *(np.array([m]) for m in means))
    code = int(codes[0])
    if code:
        base, exponent = None, None
        if code >= _ZERO_Z_RATIO:
            base, exponent = pop.mean_z / means[4], spec.alpha2
        elif code >= _ZERO_X_RATIO:
            base, exponent = means[3] / pop.mean_x, spec.alpha1
        raise DegenerateSampleError(
            _REJECTIONS[code].format(base=base, exponent=exponent)
        )
    return float(value[0])
