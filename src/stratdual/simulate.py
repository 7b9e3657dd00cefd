"""Monte Carlo validation of the first-order MSE theory.

Generates synthetic stratified populations with controlled trivariate
correlation structure, draws repeated stratified samples without
replacement, evaluates every requested estimator on each draw, and
compares the empirical mean squared errors against the first-order
formulas computed from the *realized* population (the generated finite
population is the ground truth; the generator targets are not).

Reproducibility contract, for the fixed block size :data:`BLOCK`:

* a study is a pure function of ``(population, design, estimators, R,
  seed)``;
* it is prefix-stable: its ``R`` draws are the first ``R`` draws of any
  larger study with the same seed;
* it is parallel-safe per block: block ``b`` (replications
  ``b * BLOCK`` onwards) draws only from its own generator, built from
  child ``b`` of ``SeedSequence(seed)``, and writes only its own columns
  of the study's arrays.  :func:`monte_carlo` runs the blocks
  concurrently on up to ``min(4, usable CPUs)`` threads, the calling
  thread included, and its output does not depend on the thread count.

Every block is drawn at full size and the last one is cut to the study's
``R``, which is what keeps a study prefix-stable.  A different
``BLOCK`` gives different (equally valid) draws.  Within a block each
stratum, in turn, fills its ``(BLOCK, n_h)`` index array with one of two
samplers, chosen by the stratum's shape (:func:`_subsets`).  Every
sample is shared across estimators (common random numbers), which
sharpens efficiency comparisons at equal cost.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    PopulationSummary,
    UnitFrame,
    _is_number,
    _is_whole,
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
    _plan,
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


#: Replications a Monte Carlo study draws from one generator and
#: evaluates together.  It bounds the study's index and mean arrays, and
#: it is part of the reproducibility contract: another value gives other
#: draws.
BLOCK = 256

#: Most threads a study runs its blocks on, the calling thread included.
_MAX_THREADS = 4


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
        object.__setattr__(self, "seed", _check_seed(self.seed))

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
                    N=_spec_integer(item, "N"),
                    mu=_spec_numbers(item["mu"], "mu"),
                    sigma=_spec_numbers(item["sigma"], "sigma"),
                    rho=_spec_rho(item["rho"]),
                    n=_spec_integer(item, "n") if "n" in item else None,
                )
                for i, item in enumerate(doc["strata"])
            )
            return cls(strata=strata, seed=_spec_integer(doc, "seed"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed population spec: {exc}") from exc


def _check_seed(seed) -> int:
    """``seed`` as an int; a bool, a string or a fraction raises ``ValueError``."""
    if not _is_whole(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _spec_integer(doc: dict, key: str) -> int:
    """``doc[key]`` as an int.

    Anything but an integer or an integral float (a bool, a string, a
    fraction) raises ``TypeError``, which :meth:`PopulationSpec.from_dict`
    reports as a malformed spec.
    """
    value = doc[key]
    if not _is_whole(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _spec_numbers(values, key: str) -> tuple[float, ...]:
    """``values``, a list of three numbers, as floats.

    Anything else raises ``TypeError`` naming ``key``, which
    :meth:`PopulationSpec.from_dict` reports as a malformed spec.
    """
    if not (isinstance(values, list) and len(values) == 3
            and all(map(_is_number, values))):
        raise TypeError(f"{key} must be a list of three numbers, got {values!r}")
    return tuple(map(float, values))


def _spec_rho(rho) -> tuple[float, ...]:
    """A stratum's ``rho`` object as ``(xy, yz, xz)``; see :func:`_spec_numbers`."""
    pairs = ("xy", "yz", "xz")
    if not (isinstance(rho, dict) and all(_is_number(rho.get(p)) for p in pairs)):
        raise TypeError(f"rho must be an object with numbers xy, yz and xz, "
                        f"got {rho!r}")
    return tuple(float(rho[p]) for p in pairs)


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


def _check_design(frames: Sequence[UnitFrame], design: Sequence[int]
                  ) -> tuple[int, ...]:
    """``design`` as ints, one sample size in ``1..N_h`` per frame.

    Anything else raises ``ValueError``: a wrong length, or a size that
    is out of range or not an integer (a bool, a string, a fraction).
    """
    design = tuple(design)
    if len(frames) != len(design):
        raise ValueError("design must provide one sample size per stratum")
    for frame, n in zip(frames, design):
        if not _is_whole(n):
            raise ValueError(f"design: sample size must be an integer, got "
                             f"{n!r} in stratum {frame.stratum_id}")
        if not 1 <= n <= frame.size:
            raise ValueError(
                f"sample size {n} out of range 1..{frame.size} "
                f"in stratum {frame.stratum_id}"
            )
    return tuple(map(int, design))


def _subsets(rng: np.random.Generator, N: int, n: int, rows: int) -> np.ndarray:
    """``rows`` independent uniform ``n``-subsets of ``range(N)``, sorted.

    Returns an index array of shape ``(rows, n)``, each row ascending.
    Small or high-fraction strata (``N <= 64`` or ``3 n >= N``) rank
    ``N`` iid uniform keys per row and keep the ``n`` smallest.  Larger
    strata draw ``n`` units with replacement, sort, and redraw the extra
    copies of any repeated unit until each row is distinct; only rows
    that still hold a repeat are redrawn and re-sorted.  Which units
    survive depends only on their multiplicities, so the result is
    invariant under relabelling the units and is therefore a uniform
    subset.  The keys sampler costs ``O(N)`` time and memory per row and
    the redraw sampler about ``O(n log n)``, growing fast as ``n``
    nears ``N``.  The rule picks the faster one from timings of both at
    ``rows = 256``, and it bounds the keys sampler's two ``(rows, N)``
    arrays by 256 KiB or by six times the index array.
    """
    if N <= 64 or 3 * n >= N:
        keys = rng.random((rows, N))
        return np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
    idx = rng.integers(N, size=(rows, n))
    idx.sort(axis=1)
    todo = np.arange(rows)
    block = idx
    while True:
        repeat = block[:, 1:] == block[:, :-1]
        has_repeat = repeat.any(axis=1)
        if not has_repeat.all():  # else redraw in place, copying nothing
            if not has_repeat.any():
                return idx
            todo, block, repeat = (todo[has_repeat], block[has_repeat],
                                   repeat[has_repeat])
        block[:, 1:][repeat] = rng.integers(N, size=np.count_nonzero(repeat))
        block.sort(axis=1)
        if block is not idx:
            idx[todo] = block


def _draw_block(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    rng: np.random.Generator,
    rows: int,
    keep: int,
) -> np.ndarray:
    """Per-stratum sample means of the first ``keep`` of ``rows`` draws.

    ``rng`` draws a ``(rows, n_h)`` block of uniform subsets for every
    stratum in turn; the means of the first ``keep`` rows are returned
    as an array of shape ``(3, keep, L)``: the y, x and z means of each
    draw and stratum, with the units of a sample added in index order.
    """
    means = np.empty((3, keep, len(frames)))
    for h, (frame, n) in enumerate(zip(frames, design)):
        units = _subsets(rng, frame.size, n, rows)[:keep]
        for v, column in enumerate((frame.y, frame.x, frame.z)):
            means[v, :, h] = column[units].mean(axis=1)
        del units  # freed before the next stratum draws
    return means


def _block_seeds(seed: int, R: int) -> list[np.random.SeedSequence]:
    """Child ``b`` of ``SeedSequence(seed)`` for each block ``b`` of an
    ``R``-draw study."""
    return np.random.SeedSequence(seed).spawn(-(-R // BLOCK))


def _block_means(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    R: int,
    b: int,
    child: np.random.SeedSequence,
) -> np.ndarray:
    """:func:`_draw_block`'s means of block ``b`` of an ``R``-draw study.

    The block holds replications ``b * BLOCK`` to ``b * BLOCK + BLOCK - 1``
    (fewer in the last block), drawn from the generator of ``child``,
    which is child ``b`` of the study's seed (:func:`_block_seeds`).  The
    last block is drawn at full size and cut, so a study is a prefix of
    any larger one.
    """
    return _draw_block(frames, design, np.random.default_rng(child), BLOCK,
                       min(BLOCK, R - b * BLOCK))


def _thread_count(blocks: int) -> int:
    """Threads for a study of ``blocks`` blocks: at most :data:`_MAX_THREADS`,
    the usable CPUs or ``blocks``, whichever is least."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_THREADS, cpus, blocks)


def _run_blocks(work, blocks: int) -> None:
    """Call ``work(b)`` once for each block ``b`` in ``range(blocks)``.

    The blocks run on :func:`_thread_count` threads, the calling thread
    included: each takes the next block not yet taken until none is
    left, under the caller's numpy floating-point error settings.  A
    block must write only its own output, so the order does not matter.
    A thread that cannot be started leaves its share to the others.  The
    first exception a block raises, such as a ``MemoryError`` or a
    warning turned into an error, stops the taking of blocks and is
    raised here after every thread has been joined.
    """
    todo = iter(range(blocks))
    lock = threading.Lock()
    errors = []
    settings = np.geterr()

    def take():
        with lock:
            return None if errors else next(todo, None)

    def run():
        try:
            with np.errstate(**settings):
                while (b := take()) is not None:
                    work(b)
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                errors.append(exc)

    helpers = []
    for _ in range(_thread_count(blocks) - 1):
        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
        except RuntimeError:  # the system has no thread to spare
            break
        helpers.append(thread)
    try:
        run()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


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
    design = _check_design(frames, design)
    sizes = np.array([f.size for f in frames], dtype=float)
    ybar, xbar, zbar = _draw_block(frames, design, rng, 1, 1)
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

    Block ``b`` of :data:`BLOCK` replications draws its stratified
    samples from child ``b`` of ``SeedSequence(seed)``, so the result is
    a pure function of ``(frames, design, specs, R, seed)`` and its
    draws are the first ``R`` of any larger study.  Every estimator in
    ``specs`` is evaluated on the same draws, one array operation per
    block.  The blocks run on up to ``min(4, usable CPUs)`` threads, the
    calling thread included, with output that does not depend on their
    number; a one-block study starts no thread.  Draws that are
    degenerate for an estimator are rejected-and-counted for that
    estimator only.  Theoretical first-order MSEs are computed from the
    realized population summary under the same design.

    Raises
    ------
    AllDrawsRejectedError
        If some estimator rejects all ``R`` draws.
    ValueError
        If ``R`` is not an integer of at least 1, ``seed`` not a
        non-negative integer or a sample size of ``design`` not an
        integer in ``1..N_h`` (a bool is none of these), if a
        dual-transform estimator is requested under a census design (the
        transform is undefined there), or if an estimator is undefined
        on the population whatever the draw; raised before any sampling
        or thread.
    """
    if not _is_whole(R) or R < 1:
        raise ValueError(f"R must be an integer of at least 1, got {R!r}")
    R, seed = int(R), _check_seed(seed)
    design = _check_design(frames, design)
    specs = tuple(specs)
    pop = combine([summarize_stratum(f, n) for f, n in zip(frames, design)])
    m, md = _moment_sets(pop)
    for spec in specs:
        _check_estimator(spec, pop)

    plan = _plan(specs)
    estimates = np.empty((len(specs), R))
    stars = np.empty((2, R)) if md is not None else None  # xstar, zstar
    children = _block_seeds(seed, R)

    def evaluate(b):
        # Draws block b and fills its own columns of estimates and stars.
        ybar, xbar, zbar = _block_means(frames, design, R, b, children[b])
        rows = slice(b * BLOCK, b * BLOCK + len(ybar))
        ybar_st, *plain = (_weighted_sum(pop.w, v) for v in (ybar, xbar, zbar))
        if stars is not None:
            stars[:, rows] = _dual_means(pop, xbar, zbar)
        estimates[:, rows] = _estimate_block(
            plan, pop, ybar_st, np.array(plain),
            None if stars is None else stars[:, rows])[0]

    _run_blocks(evaluate, len(children))

    # Every aggregate of every estimator at once; rejected draws add 0.
    ok = ~np.isnan(estimates)
    accepted = np.count_nonzero(ok, axis=1)
    if not accepted.all():
        raise AllDrawsRejectedError(f"all {R} draws were degenerate for "
                                    f"{specs[int(np.argmin(accepted))].label}")

    def accepted_mean(values):
        return np.where(ok, values, 0.0).sum(axis=1) / accepted

    means = accepted_mean(estimates)
    variances = accepted_mean((estimates - means[:, None]) ** 2)
    mses = accepted_mean((estimates - pop.mean_y) ** 2)
    results = []
    for spec, n, mean, var, mse in zip(specs, accepted.tolist(), means.tolist(),
                                       variances.tolist(), mses.tolist()):
        theo = mse_first_order(spec, pop, m, md).mse
        results.append(EstimatorResult(
            spec=spec, replications=R, accepted=n, rejected=R - n,
            empirical_mean=mean, empirical_bias=mean - pop.mean_y,
            empirical_variance=var, empirical_mse=mse, theoretical_mse=theo,
            ratio=mse / theo if theo > 0 else float("nan")))

    star_mean = star_se = (None, None)
    if stars is not None:
        star_mean = stars.mean(axis=1).tolist()
        star_se = (0.0, 0.0) if R == 1 else (
            stars.std(axis=1, ddof=1) / np.sqrt(R)).tolist()
    return SimResult(population=pop, true_mean_y=pop.mean_y, R=R,
                     seed=seed, design=design, results=tuple(results),
                     xstar_mean=star_mean[0], xstar_se=star_se[0],
                     zstar_mean=star_mean[1], zstar_se=star_se[1])
