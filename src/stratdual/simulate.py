"""Monte Carlo validation of the first-order MSE theory.

Generates synthetic stratified populations with controlled trivariate
correlation structure, draws repeated stratified samples without
replacement, evaluates every requested estimator on each draw, and
compares the empirical mean squared errors against the first-order
formulas computed from the *realized* population (the generated finite
population is the ground truth; the generator targets are not).

Reproducibility contract: results are a pure function of
``(population, design, estimators, R, seed)``.  Replication ``r`` draws
its sample from its own stream, child ``r`` of ``SeedSequence(seed)``,
so replications can be evaluated in any order, or concurrently, with
identical output, and a study is prefix-stable: its first ``R`` draws
are those of any larger study with the same seed.  Replications are
evaluated together in blocks of :data:`BLOCK`, which bounds memory and
does not change any result.  Every sample is shared across estimators
(common random numbers), which sharpens efficiency comparisons at equal
cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    PopulationSummary,
    UnitFrame,
    _weighted_sum,
    combine,
    summarize_stratum,
)
from .estimators import (
    EstimatorSpec,
    SampleMeans,
    _check_estimator,
    _dual_means,
    _estimate_block,
)
from .moments import _moment_sets
from .mse_theory import mse_first_order

__all__ = [
    "StratumSpec",
    "PopulationSpec",
    "EstimatorResult",
    "SimResult",
    "load_population_spec",
    "generate_population",
    "draw_sample",
    "monte_carlo",
]


#: Replications a Monte Carlo study evaluates together.  It bounds the
#: study's index and mean arrays; results do not depend on it.
BLOCK = 256


class AllDrawsRejectedError(RuntimeError):
    """Every replication was degenerate for some estimator."""


def _check_correlation_psd(rho_xy: float, rho_yz: float, rho_xz: float) -> np.ndarray:
    """Build the (y, x, z) correlation matrix, verifying it is PSD.

    Positive semi-definiteness is checked through the leading principal
    minors (with a small tolerance for exactly singular matrices such
    as perfectly correlated variables).
    """
    for name, rho in (("rho_xy", rho_xy), ("rho_yz", rho_yz), ("rho_xz", rho_xz)):
        if abs(rho) > 1.0:
            raise ValueError(f"{name}={rho} outside [-1, 1]")
    R = np.array(
        [
            [1.0, rho_xy, rho_yz],
            [rho_xy, 1.0, rho_xz],
            [rho_yz, rho_xz, 1.0],
        ]
    )
    tol = 1e-12
    minor2 = 1.0 - rho_xy**2
    det = float(np.linalg.det(R))
    if minor2 < -tol or det < -tol:
        raise ValueError(
            f"correlation matrix is not positive semi-definite "
            f"(minor={minor2}, det={det})"
        )
    return R


@dataclass(frozen=True)
class StratumSpec:
    """Generator targets for one stratum.

    ``mu`` and ``sigma`` are the (y, x, z) means and standard
    deviations; ``rho`` holds ``(rho_xy, rho_yz, rho_xz)``.  ``n`` is
    the design sample size used by the sampling stage (optional at
    generation time).
    """

    stratum_id: str
    N: int
    mu: tuple[float, float, float]
    sigma: tuple[float, float, float]
    rho: tuple[float, float, float]
    n: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stratum_id", str(self.stratum_id))
        if self.N < 1:
            raise ValueError("N must be at least 1")
        mu = tuple(float(v) for v in self.mu)
        sigma = tuple(float(v) for v in self.sigma)
        rho = tuple(float(v) for v in self.rho)
        if len(mu) != 3 or len(sigma) != 3 or len(rho) != 3:
            raise ValueError("mu, sigma, rho must each have three entries")
        if any(s < 0 for s in sigma):
            raise ValueError("standard deviations must be nonnegative")
        _check_correlation_psd(*rho)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        if self.n is not None:
            if not 1 <= int(self.n) <= self.N:
                raise ValueError(f"design n={self.n} out of range 1..{self.N}")
            object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class PopulationSpec:
    """A full synthetic-population specification plus the global seed."""

    strata: tuple[StratumSpec, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))
        if not self.strata:
            raise ValueError("at least one stratum is required")
        ids = [s.stratum_id for s in self.strata]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate stratum_id in {ids}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def design(self) -> tuple[int, ...]:
        """Per-stratum design sample sizes; requires every ``n`` set."""
        missing = [s.stratum_id for s in self.strata if s.n is None]
        if missing:
            raise ValueError(f"strata without design sample size n: {missing}")
        return tuple(s.n for s in self.strata)

    @classmethod
    def from_dict(cls, doc: dict) -> "PopulationSpec":
        try:
            strata = tuple(
                StratumSpec(
                    stratum_id=item.get("stratum_id", str(i + 1)),
                    N=int(item["N"]),
                    mu=tuple(item["mu"]),
                    sigma=tuple(item["sigma"]),
                    rho=(
                        float(item["rho"]["xy"]),
                        float(item["rho"]["yz"]),
                        float(item["rho"]["xz"]),
                    ),
                    n=int(item["n"]) if "n" in item else None,
                )
                for i, item in enumerate(doc["strata"])
            )
            return cls(strata=strata, seed=int(doc["seed"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed population spec: {exc}") from exc


def load_population_spec(path: str | Path) -> PopulationSpec:
    """Read a :class:`PopulationSpec` from a JSON document."""
    with Path(path).open() as fh:
        return PopulationSpec.from_dict(json.load(fh))


def _covariance_factor(sigma: tuple[float, float, float], R: np.ndarray) -> np.ndarray:
    """A matrix ``L`` with ``L @ L.T`` equal to the target covariance."""
    D = np.diag(sigma)
    cov = D @ R @ D
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # Singular but PSD (zero sigmas or |rho| = 1): factor by eigendecomposition.
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs @ np.diag(np.sqrt(eigvals))


def generate_population(spec: PopulationSpec) -> list[UnitFrame]:
    """Generate the synthetic finite population, one frame per stratum.

    Each stratum holds ``N`` units drawn from a trivariate Gaussian
    with the requested moments.  Deterministic given ``spec.seed``; the
    realized frames — not the generator targets — define ground truth
    for all downstream comparisons.
    """
    rng = np.random.default_rng(spec.seed)
    frames = []
    for s in spec.strata:
        R = _check_correlation_psd(*s.rho)
        L = _covariance_factor(s.sigma, R)
        draws = np.asarray(s.mu) + rng.standard_normal((s.N, 3)) @ L.T
        frames.append(
            UnitFrame(stratum_id=s.stratum_id, y=draws[:, 0], x=draws[:, 1], z=draws[:, 2])
        )
    return frames


def _check_design(frames: Sequence[UnitFrame], design: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``design`` has one valid size per frame."""
    if len(frames) != len(design):
        raise ValueError("design must provide one sample size per stratum")
    for frame, n in zip(frames, design):
        if not 1 <= n <= frame.size:
            raise ValueError(
                f"sample size {n} out of range 1..{frame.size} "
                f"in stratum {frame.stratum_id}"
            )


def _draw_block(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Per-stratum sample means of one stratified sample per generator.

    Each generator draws ``n_h`` distinct unit indices for every stratum
    in turn.  Returns an array of shape ``(3, len(rngs), L)``: the y, x
    and z means of each draw and stratum, with the units of a sample
    added in index order.
    """
    count = len(rngs)
    idx = [np.empty((count, n), dtype=np.intp) for n in design]
    for r, rng in enumerate(rngs):
        for block, frame, n in zip(idx, frames, design):
            block[r] = rng.choice(frame.size, n, replace=False)
    means = np.empty((3, count, len(frames)))
    for h, (block, frame) in enumerate(zip(idx, frames)):
        block.sort(axis=1)
        for v, column in enumerate((frame.y, frame.x, frame.z)):
            means[v, :, h] = column[block].mean(axis=1)
    return means


def _sample_blocks(
    frames: Sequence[UnitFrame], design: Sequence[int], R: int, seed: int
):
    """Yield ``(start, means)`` for each block of an ``R``-draw study.

    ``means`` is :func:`_draw_block`'s output for replications
    ``start`` to ``start + BLOCK - 1`` (fewer in the last block), drawn
    from children ``start`` onwards of ``SeedSequence(seed)``.
    """
    root = np.random.SeedSequence(seed)
    for start in range(0, R, BLOCK):
        children = root.spawn(min(BLOCK, R - start))
        rngs = [np.random.default_rng(child) for child in children]
        yield start, _draw_block(frames, design, rngs)


def draw_sample(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    rng: np.random.Generator,
) -> SampleMeans:
    """Draw one stratified sample without replacement and summarize it.

    Within each stratum ``n_h`` distinct units are selected uniformly
    over subsets; strata are independent.  Combined means use weights
    proportional to the frame sizes.
    """
    design = tuple(int(n) for n in design)
    _check_design(frames, design)
    sizes = np.array([f.size for f in frames], dtype=float)
    ybar, xbar, zbar = _draw_block(frames, design, [rng])
    return SampleMeans.from_stratum_means(
        [f.stratum_id for f in frames], ybar[0], xbar[0], zbar[0],
        sizes / sizes.sum()
    )


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo aggregates for one estimator."""

    spec: EstimatorSpec
    replications: int
    accepted: int
    rejected: int
    empirical_mean: float
    empirical_bias: float
    empirical_variance: float
    empirical_mse: float
    theoretical_mse: float
    ratio: float

    def as_row(self) -> dict:
        row = {"estimator": self.spec.label}
        row.update((name, getattr(self, name)) for name in ROW_COLUMNS[1:])
        return row


#: The columns of :meth:`EstimatorResult.as_row`: one per field, in field
#: order, with the spec (the first field) shown by its label.
ROW_COLUMNS = ("estimator",) + tuple(f.name for f in fields(EstimatorResult)[1:])


@dataclass(frozen=True)
class SimResult:
    """Full output of one Monte Carlo run.

    ``true_mean_y`` is the realized population mean all biases and MSEs
    refer to.  ``xstar_mean``/``zstar_mean`` (with standard errors) track
    the dual-transformed auxiliary means across replications; they are
    ``None`` under a census design, where the transform is undefined.
    """

    population: PopulationSummary
    true_mean_y: float
    R: int
    seed: int
    design: tuple[int, ...]
    results: tuple[EstimatorResult, ...]
    xstar_mean: float | None = None
    xstar_se: float | None = None
    zstar_mean: float | None = None
    zstar_se: float | None = None

    def rows(self) -> list[dict]:
        """One dict per estimator, suitable for table rendering."""
        return [r.as_row() for r in self.results]


def monte_carlo(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    specs: Sequence[EstimatorSpec],
    R: int,
    seed: int,
) -> SimResult:
    """Run ``R`` replications of sample-then-estimate over ``frames``.

    Replication ``r`` draws one stratified sample from child ``r`` of
    ``SeedSequence(seed)``, so the result is a pure function of
    ``(frames, design, specs, R, seed)`` and its first draws are those
    of any larger ``R``.  Every estimator in ``specs`` is evaluated on
    the same draws, one array operation per block of :data:`BLOCK`
    replications.  Draws that are degenerate for an estimator are
    rejected-and-counted for that estimator only.  Theoretical
    first-order MSEs are computed from the realized population summary
    under the same design.

    Raises
    ------
    AllDrawsRejectedError
        If some estimator rejects all ``R`` draws.
    ValueError
        If a dual-transform estimator is requested under a census
        design (the transform is undefined there), or an estimator is
        undefined on the population whatever the draw; raised before
        any sampling.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    design = tuple(int(n) for n in design)
    specs = tuple(specs)
    _check_design(frames, design)
    strata = [summarize_stratum(f, n) for f, n in zip(frames, design)]
    pop = combine(strata)
    m, md = _moment_sets(pop)
    for spec in specs:
        _check_estimator(spec, pop)

    estimates = np.full((len(specs), R), np.nan)
    track_duals = md is not None
    xstar = np.empty(R) if track_duals else None
    zstar = np.empty(R) if track_duals else None

    for start, (ybar, xbar, zbar) in _sample_blocks(frames, design, R, seed):
        rows = slice(start, start + len(ybar))
        combined = [_weighted_sum(pop.w, v) for v in (ybar, xbar, zbar)]
        if track_duals:
            duals = _dual_means(pop, xbar, zbar)
            xstar[rows], zstar[rows] = duals
            combined += duals
        for j, spec in enumerate(specs):
            estimates[j, rows] = _estimate_block(spec, pop, *combined)[0]

    results = []
    for j, spec in enumerate(specs):
        values = estimates[j]
        accepted = int(np.count_nonzero(~np.isnan(values)))
        rejected = R - accepted
        if accepted == 0:
            raise AllDrawsRejectedError(
                f"all {R} draws were degenerate for {spec.label}"
            )
        kept = values[~np.isnan(values)]
        emp_mean = float(kept.mean())
        emp_bias = emp_mean - pop.mean_y
        emp_var = float(kept.var())
        emp_mse = float(np.mean((kept - pop.mean_y) ** 2))
        theo = mse_first_order(spec, pop, m, md).mse
        ratio = emp_mse / theo if theo > 0 else float("nan")
        results.append(
            EstimatorResult(
                spec=spec,
                replications=R,
                accepted=accepted,
                rejected=rejected,
                empirical_mean=emp_mean,
                empirical_bias=emp_bias,
                empirical_variance=emp_var,
                empirical_mse=emp_mse,
                theoretical_mse=theo,
                ratio=ratio,
            )
        )

    def _mean_se(arr: np.ndarray | None) -> tuple[float | None, float | None]:
        if arr is None:
            return None, None
        se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return float(arr.mean()), se

    xstar_mean, xstar_se = _mean_se(xstar)
    zstar_mean, zstar_se = _mean_se(zstar)
    return SimResult(
        population=pop,
        true_mean_y=pop.mean_y,
        R=R,
        seed=int(seed),
        design=design,
        results=tuple(results),
        xstar_mean=xstar_mean,
        xstar_se=xstar_se,
        zstar_mean=zstar_mean,
        zstar_se=zstar_se,
    )
