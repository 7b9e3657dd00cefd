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
  of the study's arrays.  :func:`monte_carlo` splits the blocks evenly
  into runs of at most :data:`_RUN_BLOCKS` consecutive blocks
  (:func:`_runs`) and runs them concurrently on up to ``min(4, usable
  CPUs)`` threads, the calling thread included.  A thread draws and
  evaluates a run at once: the run's blocks share one array of draws,
  one sort and one pass of repeat finding per redraw round of each
  redraw-sampler stratum, one array of means and one kernel call, so
  the run makes fewer numpy calls, each of which releases and retakes
  the interpreter lock.  Each block still draws from its own generator
  exactly what it would draw alone, so the output depends neither on
  the run length nor on the thread count.  A study on one usable CPU,
  or of one block, starts no thread: the calling thread runs its runs
  in order.

Every block is drawn at full size and the last one is cut to the study's
``R``, which is what keeps a study prefix-stable; the keys sampler draws
the keys of every row but sorts out the units of the kept rows only.  A
different ``BLOCK`` gives different (equally valid) draws.  Within a run
each stratum, in turn, gathers one ``(BLOCK, n_h)`` index array per block,
the last cut to its kept rows, from one of two samplers chosen by the
stratum's shape (:func:`_subsets`): small or high-fraction strata keep
each row's units whose uniform key is at most its ``n_h``-th smallest
(the lowest index wins a tie), larger ones draw with replacement and
redraw repeats.  The shape rule, the tie rule and the order in which the
redraw sampler consumes its generator are part of the contract too:
another rule or order gives other draws.
Every sample is shared across estimators (common random numbers), which
sharpens efficiency comparisons at equal cost.  The estimators' kernel
constants are compiled once per set-up, with the population summary and
the theory, and every run reads them.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
import weakref
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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

#: Most blocks a thread draws as one run (see :func:`_runs`).
_RUN_BLOCKS = 5


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
    1..10``; so does a value that is not finite, or a ``sigma`` whose
    square overflows a float.
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
        for name, values in (("mu", mu), ("sigma", sigma), ("rho", rho)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: {name} must be finite, got {values}")
        if any(s < 0 for s in sigma):
            raise ValueError(f"{where}: standard deviations must be "
                             f"nonnegative, got {sigma}")
        for column, s in zip("yxz", sigma):
            if s > math.sqrt(sys.float_info.max):
                raise ValueError(f"{where}: sigma_{column}={s} is too large to "
                                 "form a variance: its square overflows")
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


def _subsets(rngs: Sequence[np.random.Generator], N: int, n: int, rows: int,
             keep: int) -> Iterator[np.ndarray]:
    """The kept rows of a run of independent uniform ``n``-subsets of
    ``range(N)``, each row sorted.

    The run is one block of ``rows`` subsets from each generator of
    ``rngs``, in order, the last block cut to its first ``keep`` rows.
    Yields one ``np.intp`` index array per block, in order: ``(rows,
    n)``, the last one ``(keep, n)``.  Every one of a block's ``rows``
    subsets is drawn whatever ``keep`` is, so the kept rows and each
    generator's end state depend neither on ``keep`` nor on how the
    blocks are grouped into runs: each generator draws what it would
    draw for its block alone.

    Small or high-fraction strata (``N <= 64`` or ``3 n >= N``) take the
    keys sampler, one block at a time (:func:`_key_subsets`).  Larger
    ones take the redraw sampler over the whole run at once
    (:func:`_redraw_subsets`), whose blocks are then cut out of it.  The
    shape rule, the tie rule and the redraw order are part of the
    reproducibility contract, like :data:`BLOCK`: another rule or order
    gives other (equally valid) draws.

    Memory is bounded per block for the keys sampler and per run for the
    redraw sampler.  The keys sampler holds at once a block's
    ``(rows, N)`` keys, the partitioned copy of its kept rows (the
    thresholds are a view of it) and their one-byte ``(keep, N)`` mask;
    the shape rule bounds them by 272 KiB or by 6.4 times the block's
    index array.  The redraw sampler holds the run's ``(len(rngs) * rows,
    n)`` draws, as ``int16`` when ``N <= 2**15`` and else as ``int32``,
    and a one-byte repeat mask of that shape, so 3 or 5 bytes a value of
    the run; besides, one block's ``int32`` draws while they are copied
    in.  The mask is freed before the gathers, which hold one block's
    ``np.intp`` array at a time.  A run of 5 blocks of ``(256, 200)`` at
    ``int16`` thus holds 750 KiB + 200 KiB while it draws and 500 KiB +
    400 KiB while it gathers.  It draws ``int32`` values, so it needs
    ``N <= 2**31``, where they equal the default ``int64`` draws.  Both
    samplers hand back ``np.intp`` indices, as narrower ones slow the
    gathers.
    """
    if N <= 64 or 3 * n >= N:
        last = len(rngs) - 1
        for j, rng in enumerate(rngs):
            yield _key_subsets(rng, N, n, rows, keep if j == last else rows)
        return
    idx = _redraw_subsets(rngs, N, n, rows)
    kept = (len(rngs) - 1) * rows + keep
    for start in range(0, kept, rows):
        yield idx[start:min(start + rows, kept)].astype(np.intp)


def _key_subsets(rng: np.random.Generator, N: int, n: int, rows: int,
                 keep: int) -> np.ndarray:
    """The first ``keep`` of ``rows`` uniform ``n``-subsets of ``range(N)``
    by uniform keys, as a sorted ``np.intp`` array of shape ``(keep, n)``.

    Each unit of a row gets an iid uniform key, and the row keeps the
    units whose key is at most its ``n``-th smallest, a threshold found
    by partitioning a copy of the keys; read off the mask in order, the
    units come out ascending.  All ``rows`` rows of keys are drawn, but
    only the kept rows are partitioned, compared and read off.  Should
    another key tie the ``n``-th smallest (about ``N * 2**-53`` a row),
    the lowest indices among the tied keys are kept.
    """
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


def _redraw_subsets(rngs: Sequence[np.random.Generator], N: int, n: int,
                    rows: int) -> np.ndarray:
    """One block of ``rows`` uniform ``n``-subsets of ``range(N)`` from each
    generator of ``rngs``, drawn with replacement and redrawn.

    Returns the blocks stacked in order, shape ``(len(rngs) * rows, n)``,
    each row ascending, as ``int16`` when ``N <= 2**15`` (which sorts
    faster) and else as ``int32``.  Each generator draws its block's
    ``(rows, n)`` values with replacement, and the run sorts every row
    at once.  Then, round after round, the extra copies of each repeated
    unit are redrawn until every row is distinct: each block draws all
    its replacements of the round in one call, from its own generator,
    and the replacements are handed out in row-major order of the copies
    they replace, which takes the blocks in order; every row is sorted
    again.  A block with no repeat left draws nothing more, so each
    generator makes the calls it would make for its block alone.  The
    rounds work on the whole run until its repeats number at most a
    quarter of its rows, and then only on the rows that still hold one,
    so the first rounds copy nothing.  Which units survive depends only on
    their multiplicities, so the result is invariant under relabelling
    the units and is therefore a uniform subset.
    """
    blocks = len(rngs)
    idx = np.empty((blocks * rows, n), np.int16 if N <= 2**15 else np.int32)
    for j, rng in enumerate(rngs):
        idx[j * rows:(j + 1) * rows] = rng.integers(N, size=(rows, n),
                                                    dtype=np.int32)
    idx.sort(axis=1)
    work, todo, mask = idx, None, np.empty(idx.shape, dtype=bool)
    # The first row of each block and the end of the last, in idx and, as
    # offsets into the flat rows, in work.
    firsts = np.arange(0, (blocks + 1) * rows, rows)
    starts = firsts * n
    while True:
        # Compared along the flat rows, which are contiguous; a row's
        # first unit repeats nothing.
        flat, repeat = work.reshape(-1), mask[:len(work)]
        np.equal(flat[1:], flat[:-1], out=repeat.reshape(-1)[1:])
        repeat[:, 0] = False
        # Array methods, not numpy's Python wrappers: fewer lock retakes.
        at = repeat.reshape(-1).nonzero()[0]
        if not at.size:
            break
        if 4 * at.size <= len(work):
            # So at most a quarter of the rows hold a repeat: keep only
            # those, and find their repeats again.  Each kept row holds
            # one, so the next pass does not shrink.
            left = np.logical_or.reduce(repeat, axis=1).nonzero()[0]
            if todo is not None:
                idx[todo] = work
            todo = left if todo is None else todo.take(left)
            work = work.take(left, axis=0)
            starts = todo.searchsorted(firsts) * n
            continue
        bounds = at.searchsorted(starts).tolist()
        counts = [b - a for a, b in zip(bounds, bounds[1:])]
        flat[at] = np.concatenate([rng.integers(N, size=count, dtype=np.int32)
                                   for rng, count in zip(rngs, counts) if count])
        work.sort(axis=1)
    if todo is not None:
        idx[todo] = work
    return idx


def _draw_run(
    frames: Sequence[UnitFrame],
    design: Sequence[int],
    rngs: Sequence[np.random.Generator],
    rows: int,
    keep: int,
    scratch: threading.local,
) -> np.ndarray:
    """Per-stratum sample means of a run's kept draws.

    Each generator of ``rngs`` draws one block of ``rows`` draws, the
    last one cut to its first ``keep``: for every stratum in turn, the
    run fills its blocks' ``(rows, n_h)`` index arrays (:func:`_subsets`).
    The means of the ``(len(rngs) - 1) * rows + keep`` kept draws are
    returned as an array of shape ``(3, kept, L)``: the y, x and z means
    of each draw and stratum, with the units of a sample added in index
    order.

    Each variable's sample values are gathered, one block's index array
    of :func:`_subsets` at a time, into a view of one float64 buffer,
    ``scratch.buffer``, before they are added up.  ``scratch`` is a
    :class:`threading.local` that :func:`monte_carlo` makes for one study
    (:func:`draw_sample` passes a fresh one), so each thread keeps one
    buffer for the whole study, grown to the largest block it meets; a
    fresh gather array per variable and block would be handed back to
    the system and faulted in again each time.  A thread thus holds a
    ``(rows, n_h)`` ``np.intp`` array and ``rows * n_h`` float64 values
    while it gathers, 400 + 400 KiB at ``(256, 200)``.  Each row's sum
    is written straight into the means array, and the whole run is then
    divided by the design once: the steps of ``ndarray.mean``, without
    its Python wrapper, so the means are those of ``mean(axis=1)`` on
    the gathered array, bit for bit.
    """
    means = np.empty((3, (len(rngs) - 1) * rows + keep, len(frames)))
    for h, (frame, n) in enumerate(zip(frames, design)):
        start = 0
        for units in _subsets(rngs, frame.size, n, rows, keep):
            stop = start + len(units)
            buffer = getattr(scratch, "buffer", None)
            if buffer is None or buffer.size < units.size:
                buffer = scratch.buffer = np.empty(units.size)
            values = buffer[:units.size].reshape(units.shape)
            for v, column in enumerate((frame.y, frame.x, frame.z)):
                # The samplers hand back indices in range(N_h), so "wrap"
                # never wraps; unlike "raise", it writes straight into
                # values instead of through a buffer numpy allocates.
                np.add.reduce(column.take(units, out=values, mode="wrap"),
                              axis=1, out=means[v, start:stop, h])
            start = stop
            del units  # freed before the next index array is made
    means /= design
    return means


def _thread_count(blocks: int) -> int:
    """Threads for ``blocks`` blocks, or runs, of a study: at most
    :data:`_MAX_THREADS`, the usable CPUs or ``blocks``, whichever is
    least.  One needs no CPU count."""
    if blocks == 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_THREADS, cpus, blocks)


def _runs(blocks: int) -> list[range]:
    """The runs of a study of ``blocks`` blocks: its blocks, in order, split
    as evenly as can be into runs of at most :data:`_RUN_BLOCKS` blocks.

    The number of runs is the least multiple of :func:`_thread_count`
    that allows that length, but no more than ``blocks``, so that the
    threads get about as many blocks each.  The runs' lengths differ by
    at most one block.
    """
    threads = _thread_count(blocks)
    count = min(blocks, threads * -(-blocks // (threads * _RUN_BLOCKS)))
    bounds = [blocks * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_blocks(work, runs: int) -> None:
    """Call ``work(i)`` once for each run ``i`` in ``range(runs)``.

    The runs go to :func:`_thread_count` threads, the calling thread
    included: each takes the next run not yet taken until none is left,
    under the caller's numpy floating-point error settings.  A run must
    write only its own output, so the order does not matter.  A thread
    that cannot be started leaves its share to the others.  The first
    exception a run raises, such as a ``MemoryError`` or a warning
    turned into an error, stops the taking of runs and is raised here
    after every thread has been joined.

    With one thread, as for a one-block study or on one usable CPU, the
    calling thread runs the runs in order itself: it starts no thread,
    takes no lock, and the first exception propagates at once.
    """
    threads = _thread_count(runs)
    if threads == 1:
        for i in range(runs):
            work(i)
        return
    todo = iter(range(runs))
    lock = threading.Lock()
    errors = []
    settings = np.geterr()

    def take():
        with lock:
            return None if errors else next(todo, None)

    def run():
        try:
            with np.errstate(**settings):
                while (i := take()) is not None:
                    work(i)
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                errors.append(exc)

    helpers = []
    for _ in range(threads - 1):
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
    # A run of one one-row block, with a fresh gather buffer: nothing of
    # this draw is kept.
    ybar, xbar, zbar = _draw_run(frames, design, [rng], 1, 1,
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

    The population summary under the design, its dual moment set (none
    with a census stratum), the estimator kernel's constants compiled from
    the specs' rows on the population
    (:func:`~stratdual.estimators._kernel`) and each spec's
    :func:`~stratdual.mse_theory.mse_first_order`, in spec order.
    """

    pop: PopulationSummary
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
    prepared = _Prepared(pop, md, _kernel([s._row for s in specs], pop),
                         theory)
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
    run of consecutive blocks (:func:`_runs`).  The runs go to up to
    ``min(4, usable CPUs)`` threads, the calling thread included, with
    output that depends neither on their number nor on the run length;
    a study of one block, or on one usable CPU, starts no thread.
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
        or thread.  Also if an estimator's accepted draws overflow a
        float, so that its empirical variance or MSE is not finite.
    """
    if not _is_whole(R) or R < 1:
        raise ValueError(f"R must be an integer of at least 1, got {R!r}")
    R, seed = int(R), _check_seed(seed)
    design = _check_design(frames, design)
    specs = tuple(specs)
    pop, md, kernel, theory = _prepare(frames, design, specs)
    estimates = np.empty((len(specs), R))
    stars = np.empty((2, R)) if md is not None else None  # xstar, zstar
    children = np.random.SeedSequence(seed).spawn(-(-R // BLOCK))
    runs = _runs(len(children))
    scratch = threading.local()  # each thread's gather buffer, this study only

    def evaluate(i):
        # Draws run i, its last block cut to the study's R, and fills its
        # own columns of estimates and stars.
        run = runs[i]
        means = _draw_run(frames, design,
                          [np.random.default_rng(children[b]) for b in run],
                          BLOCK, min(BLOCK, R - run[-1] * BLOCK), scratch)
        rows = slice(run[0] * BLOCK, run[0] * BLOCK + means.shape[1])
        combined = _weighted_sum(pop.w, means)  # y, x and z, (3, kept)
        dual = None
        if stars is not None:
            dual = stars[:, rows] = _dual_means(pop, means[1:])
        estimates[:, rows] = _estimate_block(kernel, combined[0],
                                             combined[1:], dual)[0]

    _run_blocks(evaluate, len(runs))

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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        means = accepted_mean(estimates)
        work = np.subtract(estimates, means[:, None])
        variances = accepted_mean(np.square(work, out=work))
        np.subtract(estimates, mean_y, out=work)
        mses = accepted_mean(np.square(work, out=work))
    overflowed = ~(np.isfinite(variances) & np.isfinite(mses))
    if overflowed.any():
        raise ValueError(f"the estimates of "
                         f"{specs[int(np.argmax(overflowed))].label} "
                         "overflow a float: their empirical variance or MSE "
                         "is not finite")
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
