"""Order-2 relative moment functionals of a stratified population.

Every first-order MSE expression in :mod:`stratdual.mse_theory` is a
quadratic form in the six weighted relative moments

    v_rst = sum_h w_h^2 gamma_h S_(...)h / (mean products),

with index convention ``r`` for the study variable y, ``s`` for the
first auxiliary x, and ``t`` for the second auxiliary z.  The *dual*
variants carry an extra per-stratum factor ``(-g_h)^(s+t)``, where
``g_h = n_h / (N_h - n_h)`` is the dual-transform coefficient.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import PopulationSummary, _is_number

__all__ = [
    "MomentSet",
    "DualMomentSet",
    "compute_moments",
    "compute_dual_moments",
    "moments_to_json",
    "moments_from_dict",
]

_KEYS = ("v200", "v020", "v002", "v110", "v101", "v011")


@dataclass(frozen=True)
class MomentSet:
    """The six weighted relative moments ``v200 ... v011``.

    ``dual`` marks the dual counterparts (per-stratum ``(-g)^(s+t)``
    factors), which the dual estimator kinds need; their ``v200``
    coincides exactly with the unprimed one (factor ``(-g)^0 = 1``).

    Diagonal moments (``v200``, ``v020``, ``v002``) must be nonnegative.
    Cross moments are unconstrained so that externally guessed values
    can be fed to the MSE formulas unchanged; inconsistent inputs then
    surface as negative first-order MSEs rather than being masked here.
    """

    v200: float
    v020: float
    v002: float
    v110: float
    v101: float
    v011: float
    dual: bool = False

    def __post_init__(self) -> None:
        for name in _KEYS:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        for name in _KEYS[:3]:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def as_dict(self) -> dict:
        """The six moments by name, plus ``"dual": True`` for a dual set."""
        doc = {name: getattr(self, name) for name in _KEYS}
        if self.dual:
            doc["dual"] = True
        return doc


def DualMomentSet(*args, **kwargs) -> MomentSet:
    """A :class:`MomentSet` of dual moments (``dual=True``)."""
    return MomentSet(*args, **kwargs, dual=True)


#: The combined means a moments document may carry.
_MEANS = ("mean_y", "mean_x", "mean_z")


def _check_means(means: dict) -> None:
    """Raise ``ValueError`` naming ``means`` if any of them is zero, or
    naming the mean whose square overflows.

    Relative moments divide by the combined means and their squares, so
    they, and every MSE or optimum scaled by them, are undefined at a zero
    mean or one past the square root of the largest float.
    """
    if 0 in means.values():
        raise ValueError(
            "combined means must be nonzero to form relative moments ({})"
            .format(", ".join(f"{k}={v}" for k, v in means.items())))
    for k, v in means.items():
        if abs(v) > math.sqrt(sys.float_info.max):
            raise ValueError(f"combined mean {k}={v} is too large to form "
                             "relative moments: its square overflows")


def _moment_kernel(pop: PopulationSummary, k, dual: bool) -> MomentSet:
    """The six moments ``v_rs = (w^2 gamma c_r c_s) @ S_rs / scale``.

    ``c = (1, k, k)`` is the per-stratum factor on the y, x and z
    errors: ``k = 1`` gives the unprimed set and ``k = -g`` the dual
    one.  ``scale`` is ``mean_r**2`` on the diagonal and ``mean_r *
    mean_s`` off it; that, and dotting with the contiguous row
    ``pop.cov[r, s]``, keep the bits of six separate per-field sums.
    """
    mu = (pop.mean_y, pop.mean_x, pop.mean_z)
    _check_means(dict(zip(_MEANS, mu)))
    w2g = pop.w**2 * pop.gamma
    c = (1.0, k, k)

    def v(r: int, s: int) -> float:
        scale = mu[r] ** 2 if r == s else mu[r] * mu[s]
        return float(w2g * (c[r] * c[s]) @ pop.cov[r, s] / scale)

    return MomentSet(v200=v(0, 0), v020=v(1, 1), v002=v(2, 2),
                     v110=v(0, 1), v101=v(0, 2), v011=v(1, 2), dual=dual)


def compute_moments(pop: PopulationSummary) -> MomentSet:
    """Compute the unprimed moment set of a population.

    Requires nonzero combined means.  Census strata contribute nothing
    (``gamma_h = 0``), so an all-census population yields all zeros.
    """
    return _moment_kernel(pop, 1.0, dual=False)


def compute_dual_moments(pop: PopulationSummary) -> MomentSet:
    """Compute the dual moment set (per-stratum ``(-g_h)^(s+t)`` factors).

    Requires every stratum to be non-census (``n_h < N_h``) so that
    ``g_h`` is defined, and nonzero combined means.  ``v200`` carries
    the factor ``1 * 1`` and is therefore bit-identical to the
    unprimed moment.
    """
    pop.require_no_census("dual moment computation")
    return _moment_kernel(pop, -pop.g, dual=True)


def _moment_sets(pop: PopulationSummary) -> tuple[MomentSet, MomentSet | None]:
    """The unprimed and dual moment sets; no dual set with a census stratum."""
    m = compute_moments(pop)
    return m, None if pop.has_census_stratum else compute_dual_moments(pop)


def moments_to_json(
    moments: MomentSet,
    dual: MomentSet | None = None,
    means: dict | None = None,
) -> str:
    """Serialize moment sets to a JSON document.

    The document wraps one or two flat moment objects (each with keys
    ``v200 ... v011``; the dual set carries a ``"dual": true`` marker)
    plus the optional combined means (keys among ``mean_y``, ``mean_x``,
    ``mean_z``) needed to scale MSEs back to absolute units and to
    resolve transform constants.  Floats are serialized at full
    precision so the document reproduces the source values bit for bit.
    """
    doc: dict = {"moments": moments.as_dict()}
    if dual is not None:
        doc["dual_moments"] = dual.as_dict()
    for key in _MEANS:
        if means and means.get(key) is not None:
            doc[key] = float(means[key])
    return json.dumps(doc, indent=2)


def moments_from_dict(
    doc: dict,
) -> tuple[MomentSet, MomentSet | None, dict]:
    """Parse the document produced by :func:`moments_to_json`.

    Also accepts a bare flat (unprimed) moment object.  Returns the
    unprimed set, the dual set when present, and a dict of whichever
    combined means the document carried.  A zero mean raises
    ``ValueError``, as in :func:`compute_moments`: the relative moments
    divide by the combined means.  So does a ``v200`` that is not
    positive, since every efficiency is relative to the classical MSE
    ``mean_y**2 * v200``, and a dual ``v200`` that differs from the
    unprimed one, which it equals by construction.
    """
    def number(obj: dict, key: str) -> float:
        value = obj[key]
        if not _is_number(value):
            raise ValueError(f"moments key {key!r} must be a JSON number, "
                             f"not {value!r:.40}")
        return float(value)

    def parse_set(obj: dict, dual: bool = False) -> MomentSet:
        if not isinstance(obj, dict):
            raise ValueError(f"moment set must be a JSON object, not {obj!r:.40}")
        missing = [k for k in _KEYS if k not in obj]
        if missing:
            raise ValueError(f"moment object missing keys {missing}")
        return MomentSet(**{k: number(obj, k) for k in _KEYS}, dual=dual)

    if not isinstance(doc, dict):
        raise ValueError(
            f"moments document must be a JSON object, not {doc!r:.40}"
        )
    if "moments" in doc:
        moments = parse_set(doc["moments"])
        dual = None
        if "dual_moments" in doc:
            dual = parse_set(doc["dual_moments"], dual=True)
        means = {k: number(doc, k) for k in _MEANS if k in doc}
    elif doc.get("dual"):
        raise ValueError(
            "a bare dual moment set cannot stand alone; supply a document "
            'with both "moments" and "dual_moments"'
        )
    else:
        moments, dual, means = parse_set(doc), None, {}
    if not moments.v200 > 0:
        raise ValueError(f"v200 must be positive, got {moments.v200!r}: every "
                         "efficiency is relative to the classical MSE, "
                         "mean_y**2 * v200")
    if dual is not None and dual.v200 != moments.v200:
        raise ValueError(f"dual_moments v200={dual.v200!r} differs from "
                         f"moments v200={moments.v200!r}; the two are equal "
                         "by construction")
    _check_means(means)
    return moments, dual, means
