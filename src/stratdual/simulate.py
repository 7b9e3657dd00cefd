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
  A study on one usable CPU, or of one block, starts no thread: the
  calling thread runs its blocks in order.

Every block is drawn at full size and the last one is cut to the study's
``R``, which is what keeps a study prefix-stable; the keys sampler draws
the keys of every row but sorts out the units of the kept rows only.  A
different ``BLOCK`` gives different (equally valid) draws.  Within a block each
stratum, in turn, fills its ``(BLOCK, n_h)`` index array with one of two
samplers, chosen by the stratum's shape (:func:`_subsets`): small or
high-fraction strata keep each row's units whose uniform key is at most
its ``n_h``-th smallest (the lowest index wins a tie), larger ones draw
with replacement and redraw repeats.  The shape rule, the tie rule and
the order in which the redraw sampler consumes its generator are part of
the contract too: another rule or order gives other draws.
Every sample is shared across estimators (common random numbers), which
sharpens efficiency comparisons at equal cost.  The estimators' kernel
constants are compiled once per set-up, with the population summary and
the theory, and every block reads them.
"""

from __future__ import annotations

import operator
import os
import threading
import weakref
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .domain import (
    PopulationSummary,
    UnitFrame,
    _is_number,
    _is_whole,
    _read_json,
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
    _kernel,
    _Kernel,
    _plan,
)
from .moments import MomentSet, _moment_sets
from .mse_theory import mse_first_order

__all__ = [
    "StratumSpec",
    "PopulationSpec",
    "EstimatorResult",
    "SimResult",
    "AllDrawsRejectedError",
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
    generation time).  A value out of its range raises ``ValueError``
    naming the stratum, as in ``stratum a: design n=20 out of range
    1..10``.
    """

    stratum_id: str
    N: int
    mu: tuple[float, float, float]
    sigma: tuple[float, float, float]
    rho: tuple[float, float, float]
    n: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stratum_id", str(self.stratum_id))
        where = f"stratum {self.stratum_id}"
        for name in ("N", "n"):
            value = getattr(self, name)
            if name == "n" and value is None:
                continue
            if not _is_whole(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.N < 1:
            raise ValueError(f"{where}: N must be at least 1, got {self.N}")
        mu = tuple(float(v) for v in self.mu)
        sigma = tuple(float(v) for v in self.sigma)
        rho = tuple(float(v) for v in self.rho)
        if len(mu) != 3 or len(sigma) != 3 or len(rho) != 3:
            raise ValueError("mu, sigma, rho must each have three entries")
        if any(s < 0 for s in sigma):
            raise ValueError(f"{where}: standard deviations must be "
                             f"nonnegative, got {sigma}")
        try:
            _check_correlation_psd(*rho)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        if self.n is not None and not 1 <= self.n <= self.N:
            raise ValueError(f"{where}: design n={self.n} out of range "
                             f"1..{self.N}")


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
    return PopulationSpec.from_dict(_read_json(path))


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


def _subsets(rng: np.random.Generator, N: int, n: int, rows: int,
             keep: int) -> np.ndarray:
    """The first ``keep`` of ``rows`` independent uniform ``n``-subsets of
    ``range(N)``, sorted.

    Returns an ``np.intp`` index array of shape ``(keep, n)``, each row
    ascending.  Every one of the ``rows`` subsets is drawn whatever
    ``keep`` is, so the kept rows and the generator's end state do not
    depend on ``keep``.  Small or high-fraction strata (``N <= 64`` or
    ``3 n >= N``) give each unit of a row an iid uniform key and keep the
    units whose key is at most the row's ``n``-th smallest, a threshold
    found by partitioning a copy of the keys; read off the mask in order,
    the units come out ascending.  All ``rows`` rows of keys are drawn,
    but only the kept rows are partitioned, compared and read off.  Should
    another key tie the ``n``-th smallest (about ``N * 2**-53`` a row),
    the lowest indices among the tied keys are kept.  Larger strata draw
    ``n`` units per row with replacement, sort each row, and redraw the
    extra copies of any repeated unit until each row is distinct.  Each
    round draws all its replacements in one call, handed out in row-major
    order of the copies they replace; only rows that still hold a repeat
    are redrawn and re-sorted.  A round's draws depend on every row's
    repeats, so every row is redrawn, and only the kept rows are cast to
    ``np.intp``.  Which units survive depends only on their
    multiplicities, so the result is invariant under relabelling the
    units and is therefore a uniform subset.

    The shape rule, the tie rule and the redraw order are part of the
    reproducibility contract, like :data:`BLOCK`: another rule or order
    gives other (equally valid) draws.  The shape rule bounds what the
    keys sampler holds at once, its ``(rows, N)`` keys, the partitioned
    copy of the kept rows (the thresholds are a view of it) and their
    one-byte ``(keep, N)`` mask, by 272 KiB or by 6.4 times the index
    array.  The redraw sampler draws ``int32`` values, so it needs
    ``N <= 2**31``, where they equal the default ``int64`` draws.  It
    sorts them as ``int16`` when ``N <= 2**15``, which is faster.  Both
    samplers hand back ``np.intp`` indices, because narrower ones slow the
    gathers.
    """
    if N <= 64 or 3 * n >= N:
        keys = rng.random((rows, N))[:keep]
        kth = np.partition(keys, n - 1, axis=1)[:, n - 1:n]
        chosen = keys <= kth
        units = np.flatnonzero(chosen)
        if units.size != keep * n:  # a key ties some row's n-th smallest
            for r in np.flatnonzero(np.count_nonzero(chosen, axis=1) > n):
                tied = np.flatnonzero(keys[r] == kth[r])
                chosen[r, tied[n - np.count_nonzero(keys[r] < kth[r]):]] = False
            units = np.flatnonzero(chosen)
        units = units.reshape(keep, n)
        units -= np.arange(0, keep * N, N)[:, None]  # flat to column index
        return units
    idx = rng.integers(N, size=(rows, n), dtype=np.int32)
    if N <= 2**15:
        idx = idx.astype(np.int16)
    idx.sort(axis=1)
    todo, block = np.arange(rows), idx
    repeat = np.empty((rows, n), dtype=bool)
    while True:
        # Compared along the flat block, which is contiguous; a row's
        # first unit repeats nothing.
        flat = block.reshape(-1)
        np.equal(flat[1:], flat[:-1], out=repeat.reshape(-1)[1:])
        repeat[:, 0] = False
        count = np.count_nonzero(repeat)
        if not count:
            return idx[:keep].astype(np.intp)
        left = np.flatnonzero(repeat.any(axis=1))
        if left.size < len(block):  # else redraw in place, copying nothing
            todo, block, repeat = (todo.take(left), block.take(left, axis=0),
                                   repeat.take(left, axis=0))
        block[repeat] = rng.integers(N, size=count, dtype=np.int32)
        block.sort(axis=1)
        if block is not idx:
            idx[todo] = block


def _draw_block(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    rng: np.random.Generator,
    rows: int,
    keep: int,
    scratch: threading.local,
) -> np.ndarray:
    """Per-stratum sample means of the first ``keep`` of ``rows`` draws.

    ``rng`` draws a ``(rows, n_h)`` block of uniform subsets for every
    stratum in turn; the means of the first ``keep`` rows are returned
    as an array of shape ``(3, keep, L)``: the y, x and z means of each
    draw and stratum, with the units of a sample added in index order.

    Each variable's sample values are gathered into a ``(keep, n_h)``
    view of one float64 buffer, ``scratch.buffer``, before they are
    added up.  ``scratch`` is a :class:`threading.local` that
    :func:`monte_carlo` makes for one study (:func:`draw_sample` passes a
    fresh one), so each thread keeps one buffer for the whole study,
    grown to the largest ``keep * n_h`` it meets; a fresh gather array
    per variable, stratum and block would be handed back to the system
    and faulted in again each time.  Each row's sum is written straight
    into the means array, and the whole block is then divided by the
    design once: the steps of ``ndarray.mean``, without its Python
    wrapper, so the means are those of ``mean(axis=1)`` on the gathered
    array, bit for bit.
    """
    means = np.empty((3, keep, len(frames)))
    for h, (frame, n) in enumerate(zip(frames, design)):
        units = _subsets(rng, frame.size, n, rows, keep)
        buffer = getattr(scratch, "buffer", None)
        if buffer is None or buffer.size < keep * n:
            buffer = scratch.buffer = np.empty(keep * n)
        values = buffer[:keep * n].reshape(keep, n)
        for v, column in enumerate((frame.y, frame.x, frame.z)):
            # The samplers hand back indices in range(N_h), so "wrap"
            # never wraps; unlike "raise", it writes straight into values
            # instead of through a buffer numpy allocates.
            np.add.reduce(column.take(units, out=values, mode="wrap"),
                          axis=1, out=means[v, :, h])
        del units  # freed before the next stratum draws
    means /= design
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
    scratch: threading.local,
) -> np.ndarray:
    """:func:`_draw_block`'s means of block ``b`` of an ``R``-draw study.

    The block holds replications ``b * BLOCK`` to ``b * BLOCK + BLOCK - 1``
    (fewer in the last block), drawn from the generator of ``child``,
    which is child ``b`` of the study's seed (:func:`_block_seeds`).  The
    last block is drawn at full size and cut, so a study is a prefix of
    any larger one.  ``scratch`` holds the study's per-thread gather buffer
    (see :func:`_draw_block`).
    """
    return _draw_block(frames, design, np.random.default_rng(child), BLOCK,
                       min(BLOCK, R - b * BLOCK), scratch)


def _thread_count(blocks: int) -> int:
    """Threads for a study of ``blocks`` blocks: at most :data:`_MAX_THREADS`,
    the usable CPUs or ``blocks``, whichever is least.  One block needs
    no CPU count."""
    if blocks == 1:
        return 1
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

    With one thread, as for a one-block study or on one usable CPU, the
    calling thread runs the blocks in order itself: it starts no thread,
    takes no lock, and the first exception propagates at once.
    """
    if _thread_count(blocks) == 1:
        for b in range(blocks):
            work(b)
        return
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
    # A fresh gather buffer: nothing of this draw is kept.
    ybar, xbar, zbar = _draw_block(frames, design, rng, 1, 1,
                                   threading.local())
    return SampleMeans.from_stratum_means(
        [f.stratum_id for f in frames], ybar[0], xbar[0], zbar[0],
        sizes / sizes.sum()
    )


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo aggregates for one estimator.

    Of the study's ``replications`` draws, ``accepted`` gave the estimator
    a value and ``rejected`` made it undefined (see
    :class:`~stratdual.estimators.DegenerateSampleError`).  The
    ``empirical_*`` fields are means over the accepted draws only:
    ``empirical_variance`` is the mean squared deviation from
    ``empirical_mean`` and ``empirical_mse`` that from the population
    mean, both with divisor ``accepted``.  ``theoretical_mse`` is the
    first-order MSE of the design, unconditional on acceptance, so
    ``ratio`` (``empirical_mse / theoretical_mse``, ``NaN`` unless the
    theory is positive) compares a mean over accepted draws with it.
    """

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


class _Prepared(NamedTuple):
    """What a study needs of its population besides the draws.

    The population summary under the design, its unprimed and dual
    moment sets (no dual set with a census stratum), the estimator
    kernel's constants compiled from the specs' plan on the population
    (:func:`~stratdual.estimators._kernel`) and each spec's
    :func:`~stratdual.mse_theory.mse_first_order`, in spec order.
    """

    pop: PopulationSummary
    m: MomentSet
    md: MomentSet | None
    kernel: _Kernel
    theory: tuple[float, ...]


#: The last study prepared: ``(frame refs, design, specs, prepared)``.
#: Replaced in one assignment and never changed in place, so a thread
#: reads either the old entry or the new one, each whole; when two
#: threads replace it at once, one entry is lost and costs a later miss.
_last = None


def _prepare(frames: Sequence[UnitFrame], design: tuple[int, ...],
             specs: tuple[EstimatorSpec, ...]) -> _Prepared:
    """The :class:`_Prepared` set-up of a study, reused while the caller
    passes the same objects.

    The last set-up is kept with weak references to its frames, its
    design and its specs.  It is reused when the same frame objects and
    the same spec objects come in the same order with an equal design:
    frames hold read-only arrays and specs are frozen, so identity stands
    for content, at a cost of ``O(L + S)`` a study instead of the
    ``O(N)`` of summarising the frames again.  Anything else prepares
    the study afresh and replaces the kept one.  A set-up that raises,
    such as a spec undefined on the population, is not kept.  Frames are
    held only by weak references, so the kept set-up keeps none alive.
    """
    global _last
    last = _last  # one read: another thread may replace it meanwhile
    if last is not None:
        refs, last_design, last_specs, prepared = last
        # An equal design has one size per frame, so the zips are whole.
        if (last_design == design and len(last_specs) == len(specs)
                and all(map(operator.is_, last_specs, specs))
                and all(ref() is frame for ref, frame in zip(refs, frames))):
            return prepared
    pop = combine([summarize_stratum(f, n) for f, n in zip(frames, design)])
    m, md = _moment_sets(pop)
    for spec in specs:
        _check_estimator(spec, pop)
    theory = tuple(mse_first_order(spec, pop, m, md).mse for spec in specs)
    prepared = _Prepared(pop, m, md, _kernel(_plan(specs), pop), theory)
    _last = (tuple(map(weakref.ref, frames)), design, specs, prepared)
    return prepared


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
    number; a study of one block, or on one usable CPU, starts no thread.
    Draws that are degenerate for an estimator are rejected-and-counted
    for that estimator only: the kernel marks them ``NaN`` and builds no
    rejection code.  Each spec's theoretical MSE is
    :func:`~stratdual.mse_theory.mse_first_order` on the realized
    population summary under the same design.

    Every draw's estimates fill one ``(S, R)`` array.  The aggregates of
    all estimators are then computed in place in it and in one workspace
    of its shape, by plain ufunc calls: the rejected draws are zeroed,
    each row summed and divided by its accepted draws, for the means, the
    variances and the MSEs alike.  The dual means' averages and standard
    errors take the steps of ``mean`` and ``std(ddof=1)`` one by one.
    Either way the sums are numpy's, so the result is that of the plain
    numpy formulas bit for bit.

    A study's set-up (the population summary, its moment sets, the
    estimator checks, the estimator kernel's compiled constants and the
    theoretical MSEs) is kept for the next study and reused while the
    same frame objects and the same spec objects come in the same order
    with an equal design, as when a caller runs many seeds on one
    population.  Frames are
    read-only, so the reused set-up is the one a fresh study computes;
    the result is the same bit for bit either way, and ``population`` is
    then the same (read-only) summary object across those studies.

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
    pop, _, md, kernel, theory = _prepare(frames, design, specs)
    estimates = np.empty((len(specs), R))
    stars = np.empty((2, R)) if md is not None else None  # xstar, zstar
    children = _block_seeds(seed, R)
    scratch = threading.local()  # each thread's gather buffer, this study only

    def evaluate(b):
        # Draws block b and fills its own columns of estimates and stars.
        means = _block_means(frames, design, R, b, children[b], scratch)
        rows = slice(b * BLOCK, b * BLOCK + means.shape[1])
        combined = _weighted_sum(pop.w, means)  # y, x and z, (3, keep)
        dual = None
        if stars is not None:
            dual = stars[:, rows] = _dual_means(pop, means[1:])
        estimates[:, rows] = _estimate_block(kernel, combined[0],
                                             combined[1:], dual)[0]

    _run_blocks(evaluate, len(children))

    # Every aggregate of every estimator at once, in place in estimates
    # and one workspace of its shape; rejected draws add 0.
    rejected = np.isnan(estimates)
    accepted = R - np.count_nonzero(rejected, axis=1)
    if not accepted.all():
        raise AllDrawsRejectedError(f"all {R} draws were degenerate for "
                                    f"{specs[int(np.argmin(accepted))].label}")

    def accepted_mean(values):
        # Overwrites values.
        np.copyto(values, 0.0, where=rejected)
        total = np.add.reduce(values, axis=1)
        total /= accepted
        return total

    mean_y = pop.mean_y
    means = accepted_mean(estimates)
    work = np.subtract(estimates, means[:, None])
    variances = accepted_mean(np.square(work, out=work))
    np.subtract(estimates, mean_y, out=work)
    mses = accepted_mean(np.square(work, out=work))
    nan = float("nan")
    # A list, not a generator: tuple() growing from a generator left
    # about 0.5 MiB more resident after a few thousand grid studies.
    results = tuple([
        EstimatorResult(spec, R, n, R - n, mean, mean - mean_y, var, mse,
                        theo, mse / theo if theo > 0 else nan)
        for spec, n, mean, var, mse, theo in zip(
            specs, accepted.tolist(), means.tolist(), variances.tolist(),
            mses.tolist(), theory)])

    star_mean = star_se = (None, None)
    if stars is not None:
        # The steps of stars.mean(axis=1) and stars.std(axis=1, ddof=1),
        # bit for bit, overwriting stars.
        total = np.add.reduce(stars, axis=1, keepdims=True)
        total /= R
        star_mean = total[:, 0].tolist()
        if R == 1:
            star_se = (0.0, 0.0)
        else:
            np.subtract(stars, total, out=stars)
            variance = np.add.reduce(np.square(stars, out=stars), axis=1)
            variance /= R - 1
            star_se = (np.sqrt(variance, out=variance) / np.sqrt(R)).tolist()
    return SimResult(population=pop, true_mean_y=mean_y, R=R,
                     seed=seed, design=design, results=results,
                     xstar_mean=star_mean[0], xstar_se=star_se[0],
                     zstar_mean=star_mean[1], zstar_se=star_se[1])
