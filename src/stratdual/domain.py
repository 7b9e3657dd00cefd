"""Core data model for stratified populations with two auxiliary variables.

Holds the unit-level and summary-level containers used throughout the
package, summarization of unit data under finite-population conventions
(divisor ``N - 1``), combination of strata into population-level
quantities, input validation with an optional auto-correction pass,
Neyman allocation, and CSV readers/writers for the two supported input
schemas (summary-level and unit-level).

All types are immutable after construction and every operation is a
pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "UnitFrame",
    "StratumSummary",
    "PopulationSummary",
    "Finding",
    "ValidationReport",
    "summarize_stratum",
    "combine",
    "validate",
    "neyman_allocation",
    "read_summary_csv",
    "write_summary_csv",
    "read_units_csv",
    "SUMMARY_COLUMNS",
    "SUMMARY_RHO_COLUMNS",
    "UNITS_COLUMNS",
]

#: Columns of the unit-level CSV schema (one row per population unit).
UNITS_COLUMNS = ("stratum_id", "y", "x", "z")


@dataclass(frozen=True)
class UnitFrame:
    """Unit-level data for one stratum.

    Parameters
    ----------
    stratum_id : str
        Identifier of the stratum.
    y, x, z : array_like
        Parallel sequences (study variable, first auxiliary, second
        auxiliary), one entry per population unit.  Must share the same
        nonzero length and contain only finite values.  The frame holds
        read-only float copies, so writing to the source arrays after
        construction leaves it unchanged, and a frame can be recognised
        by identity (:func:`stratdual.simulate.monte_carlo` does).
    """

    stratum_id: str
    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stratum_id", str(self.stratum_id))
        for name in UNITS_COLUMNS[1:]:
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.y) == len(self.x) == len(self.z)):
            raise ValueError("y, x, z must have identical lengths")
        if len(self.y) == 0:
            raise ValueError("unit frame must contain at least one unit")
        for name in UNITS_COLUMNS[1:]:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"stratum {self.stratum_id}: non-finite "
                                 f"values in {name}")

    @property
    def size(self) -> int:
        """Number of population units in the stratum."""
        return len(self.y)


@dataclass(frozen=True)
class StratumSummary:
    """Summary statistics of one stratum.

    ``N`` is the stratum population size and ``n`` the sample size to be
    drawn from it.  Standard deviations and covariances use divisor
    ``N - 1``.  The optional ``rho_*`` fields carry externally supplied
    correlations used only for cross-validation; computations never read
    them.

    Construction is intentionally permissive about statistical
    consistency (for example ``n > N`` or a covariance that implies
    ``|rho| > 1``): :func:`validate` is the gate that reports such
    defects, so that flawed published tables can be loaded, diagnosed
    and optionally repaired.
    """

    stratum_id: str
    N: int
    n: int
    mean_y: float
    mean_x: float
    mean_z: float
    s_y: float
    s_x: float
    s_z: float
    s_xy: float
    s_yz: float
    s_xz: float
    rho_xy: float | None = None
    rho_yz: float | None = None
    rho_xz: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stratum_id", str(self.stratum_id))
        for name in SUMMARY_COLUMNS[1:3]:  # N, n
            value = getattr(self, name)
            if not _is_whole(value):
                raise ValueError(f"{name} must be an integer count")
            object.__setattr__(self, name, int(value))
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for name in SUMMARY_COLUMNS[3:] + SUMMARY_RHO_COLUMNS:
            value = getattr(self, name)
            if value is None and name in SUMMARY_RHO_COLUMNS:
                continue
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def is_census(self) -> bool:
        """True when the design samples the whole stratum (``n == N``)."""
        return self.n == self.N


#: Required columns of the summary-level CSV schema, in order: the
#: ``StratumSummary`` fields without a default.  The CSV column order is
#: the field order, so a row and a summary convert by position.
SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(StratumSummary)
                        if f.default is dataclasses.MISSING)

#: Optional trailing columns of the summary-level schema (cross-validation only).
SUMMARY_RHO_COLUMNS = tuple(f.name for f in dataclasses.fields(StratumSummary)
                            if f.default is None)


@dataclass(frozen=True)
class PopulationSummary:
    """A stratified population with per-stratum design quantities.

    Built by :func:`combine`.  Stores the stratum summaries together
    with the per-stratum table, stratum on the last axis,

    - ``means``: shape ``(3, L)``, the stratum means, rows y, x, z,
    - ``cov``: shape ``(3, 3, L)``, the symmetric stratum covariance
      matrices ``S_h`` in the same order, variances on the diagonal,
    - ``w``: stratum weights ``N_h / N``,
    - ``f``: sampling fractions ``n_h / N_h``,
    - ``gamma``: finite-population variance factors ``(1 - f_h) / n_h``,
    - ``g``: dual-transform coefficients ``n_h / (N_h - n_h)``
      (``nan`` for a census stratum, where the transform is undefined),

    and the combined means ``mean_y``, ``mean_x``, ``mean_z`` (weighted
    stratum means).  ``strata`` stays for validation and CSV output.
    The arrays are read-only, so a summary can be shared freely.
    """

    strata: tuple[StratumSummary, ...]
    means: np.ndarray
    cov: np.ndarray
    w: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    g: np.ndarray
    mean_y: float
    mean_x: float
    mean_z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))

    @property
    def L(self) -> int:
        """Number of strata."""
        return len(self.strata)

    @property
    def N(self) -> int:
        """Total population size across strata."""
        return sum(s.N for s in self.strata)

    @property
    def stratum_ids(self) -> tuple[str, ...]:
        return tuple(s.stratum_id for s in self.strata)

    @property
    def has_census_stratum(self) -> bool:
        """True when any stratum is sampled completely (``n_h == N_h``)."""
        return any(s.is_census for s in self.strata)

    def require_no_census(self, operation: str) -> None:
        """Raise ``ValueError`` if any stratum is a census stratum."""
        if self.has_census_stratum:
            ids = [s.stratum_id for s in self.strata if s.is_census]
            raise ValueError(
                f"{operation} is undefined for census strata (n == N): {ids}"
            )


@dataclass(frozen=True)
class Finding:
    """One validation finding.

    ``severity`` is ``"warning"`` or ``"error"``; ``stratum_id`` is
    ``None`` for population-level findings; ``code`` is a stable
    machine-readable tag and ``message`` a human-readable explanation.
    """

    severity: str
    stratum_id: str | None
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Findings from :func:`validate`, plus the repaired population.

    ``corrected`` is populated only when the correction policy was
    ``"auto"`` and at least one repair was applied.  An error-severity
    finding means downstream computation must not proceed on the
    *uncorrected* input.
    """

    findings: tuple[Finding, ...]
    corrected: PopulationSummary | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """True when no error-severity findings were raised."""
        return not self.errors


def summarize_stratum(units: UnitFrame, n: int) -> StratumSummary:
    """Summarize unit-level data for one stratum.

    Means are arithmetic means over all ``N`` units; variances and
    covariances use divisor ``N - 1``.  A single-unit stratum has all
    variances and covariances defined as 0.

    Parameters
    ----------
    units : UnitFrame
        The stratum's unit-level data.
    n : int
        Sample size to associate with the stratum, ``1 <= n <= N``.

    Raises
    ------
    ValueError
        If ``n`` is out of range, or if a mean or a spread overflows a
        float, naming the stratum, the statistic and its columns.
    """
    N = units.size
    if not 1 <= n <= N:
        raise ValueError(f"sample size n={n} out of range 1..{N}")
    y, x, z = units.y, units.x, units.z
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        means = [float(np.mean(v)) for v in (y, x, z)]  # mean_y, mean_x, mean_z
        if N == 1:
            spreads = [0.0] * 6
        else:
            dy, dx, dz = (v - m for v, m in zip((y, x, z), means))
            denom = N - 1
            # s_y, s_x, s_z, then s_xy, s_yz, s_xz
            spreads = [float(np.sqrt(d @ d / denom)) for d in (dy, dx, dz)]
            spreads += [float(a @ b / denom)
                        for a, b in ((dx, dy), (dy, dz), (dx, dz))]
    for name, value in zip(SUMMARY_COLUMNS[3:], means + spreads):
        if not math.isfinite(value):
            columns = " and ".join(name.partition("_")[2])
            raise ValueError(f"stratum {units.stratum_id}: {name} is {value}: "
                             f"the {columns} values are too large to summarise")
    return StratumSummary(units.stratum_id, N, int(n), *means, *spreads)


def _weighted_sum(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_h w[h] * values[..., h]``, added in stratum order.

    Combines per-stratum values (last axis) into population-level ones,
    for one draw or a block of draws.  The sum is elementwise, so each
    row of a block gets the same bits as when it is combined alone; a
    BLAS matrix-vector product does not promise that.
    """
    total = w[0] * values[..., 0]
    for h in range(1, len(w)):
        total = total + w[h] * values[..., h]
    return total


def combine(strata: Sequence[StratumSummary]) -> PopulationSummary:
    """Combine stratum summaries into a :class:`PopulationSummary`.

    Builds the per-stratum ``means`` and ``cov`` table and computes
    weights ``w_h = N_h / N``, sampling fractions, the
    finite-population factors ``gamma_h``, the dual coefficients
    ``g_h`` (``nan`` where ``n_h == N_h``), and the weighted combined
    means.

    Raises
    ------
    ValueError
        On an empty list, duplicate stratum identifiers, or a standard
        deviation whose square overflows (naming its stratum and column).
    """
    strata = tuple(strata)
    if not strata:
        raise ValueError("at least one stratum is required")
    ids = [s.stratum_id for s in strata]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate stratum_id in {ids}")
    # One row per column N ... s_xz, stratum axis last: every row the
    # moment kernel dots with is contiguous.
    table = np.array([[getattr(s, name) for s in strata]
                      for name in SUMMARY_COLUMNS[1:]])
    N_h, n_h, means = table[0], table[1], table[2:5]
    s_y, s_x, s_z, s_xy, s_yz, s_xz = table[5:]
    if np.any(N_h == 0):
        raise ValueError("stratum population size N must be positive")
    w = N_h / N_h.sum()
    f = n_h / N_h
    gamma = (1.0 - f) / n_h
    g = np.full(len(strata), np.nan)
    noncensus = n_h < N_h
    g[noncensus] = n_h[noncensus] / (N_h[noncensus] - n_h[noncensus])
    huge = np.abs(table[5:8]) > math.sqrt(sys.float_info.max)  # s_y, s_x, s_z
    if huge.any():
        v, h = np.argwhere(huge)[0]
        raise ValueError(f"stratum {ids[h]}: {SUMMARY_COLUMNS[6 + v]}="
                         f"{table[5 + v, h]} is too large to form a "
                         "variance: its square overflows")
    cov = np.array([[s_y**2, s_xy, s_yz],
                    [s_xy, s_x**2, s_xz],
                    [s_yz, s_xz, s_z**2]])
    mean_y, mean_x, mean_z = (float(_weighted_sum(w, row)) for row in means)
    for arr in (means, cov, w, f, gamma, g):  # a summary is shared freely
        arr.flags.writeable = False
    return PopulationSummary(
        strata=strata, means=means, cov=cov, w=w, f=f, gamma=gamma, g=g,
        mean_y=mean_y, mean_x=mean_x, mean_z=mean_z)


#: Relative slack applied to Cauchy-Schwarz bounds before flagging.
_CS_RTOL = 1e-9

#: Absolute tolerance for supplied-vs-implied correlation cross-checks.
_RHO_TOL = 5e-3

#: (covariance, first sd, second sd, pair) for each variable pair; the
#: supplied correlation of the pair is ``rho_<pair>``.
_COV_FIELDS = (
    ("s_xy", "s_x", "s_y", "xy"),
    ("s_yz", "s_y", "s_z", "yz"),
    ("s_xz", "s_x", "s_z", "xz"),
)


def _exceeds_bound(cov: float, a: float, b: float) -> bool:
    """True when ``|cov| > a * b`` beyond rounding slack (implied ``|rho| > 1``).

    Never true when ``a`` or ``b`` is negative: that is reported as
    ``negative_sd`` instead.
    """
    return a >= 0 and b >= 0 and abs(cov) > a * b * (1.0 + _CS_RTOL)


def _scan_stratum(s: StratumSummary) -> list[Finding]:
    findings: list[Finding] = []
    sid = s.stratum_id
    if s.n > s.N:
        findings.append(Finding(
            "error", sid, "n_gt_N",
            f"sample size n={s.n} exceeds population size N={s.N}",
        ))
    for name in SUMMARY_COLUMNS[6:9]:  # s_y, s_x, s_z
        if getattr(s, name) < 0:
            findings.append(Finding(
                "error", sid, "negative_sd",
                f"negative standard deviation {name}={getattr(s, name)}",
            ))
    for cov, sa, sb, pair in _COV_FIELDS:
        value, a, b = getattr(s, cov), getattr(s, sa), getattr(s, sb)
        if _exceeds_bound(value, a, b):
            findings.append(Finding(
                "error", sid, "impossible_covariance",
                f"implied |rho_{pair}| > 1: |{cov}|={abs(value)} "
                f"exceeds {sa}*{sb}={a * b}",
            ))
    for cov, sa, sb, pair in _COV_FIELDS:
        rho = getattr(s, f"rho_{pair}")
        a, b = getattr(s, sa), getattr(s, sb)
        if rho is None or a <= 0 or b <= 0:
            continue
        implied = getattr(s, cov) / (a * b)
        if abs(rho - implied) > _RHO_TOL:
            findings.append(Finding(
                "warning", sid, "rho_mismatch",
                f"supplied rho_{pair}={rho} differs from implied "
                f"{cov}/({sa}*{sb})={implied:.6f} by more than {_RHO_TOL}",
            ))
    return findings


def _try_decimal_shift(s: StratumSummary) -> tuple[StratumSummary, list[Finding]]:
    """Attempt a single divide-by-ten repair on impossible covariances."""
    notes: list[Finding] = []
    repaired = s
    for cov, sa, sb, pair in _COV_FIELDS:
        value, a, b = getattr(s, cov), getattr(s, sa), getattr(s, sb)
        if _exceeds_bound(value, a, b) and not _exceeds_bound(value / 10.0, a, b):
            repaired = dataclasses.replace(repaired, **{cov: value / 10.0})
            notes.append(Finding(
                "warning", s.stratum_id, "decimal_shift",
                f"corrected {cov} from {value} to {value / 10.0} "
                f"(one decimal shift restores |rho_{pair}| <= 1)",
            ))
    return repaired, notes


def validate(pop: PopulationSummary, corrections: str = "off") -> ValidationReport:
    """Check a population for internal consistency.

    Reports, per stratum: ``n > N``, negative standard deviations,
    covariances violating the Cauchy-Schwarz bound (implied
    ``|rho| > 1``), and — when correlations are supplied alongside
    covariances — any absolute gap above 0.005 between the supplied and
    implied correlation.  A census stratum (``n == N``) is legal and
    produces no finding; dual-transform operations reject it later.

    With ``corrections="auto"``, a decimal-shift repair is attempted on
    each impossible covariance (divide by ten once, then re-check); the
    repaired population is returned in ``ValidationReport.corrected``
    with a warning finding documenting each applied shift.  Original
    error findings are retained either way.
    """
    if corrections not in ("off", "auto"):
        raise ValueError(f"unknown corrections policy {corrections!r}")
    findings: list[Finding] = []
    for s in pop.strata:
        findings.extend(_scan_stratum(s))
    corrected = None
    if corrections == "auto" and any(f.severity == "error" for f in findings):
        new_strata: list[StratumSummary] = []
        applied: list[Finding] = []
        for s in pop.strata:
            repaired, notes = _try_decimal_shift(s)
            new_strata.append(repaired)
            applied.extend(notes)
        if applied:
            findings.extend(applied)
            corrected = combine(new_strata)
    return ValidationReport(findings=tuple(findings), corrected=corrected)


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (not a bool) that a float can hold."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _is_whole(value) -> bool:
    """True for an integer or an integral float; a bool or a string is not one."""
    if type(value) is int:  # the common case, before the ABC check
        return True
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, float) and value.is_integer()


def _read_json(path: str | Path):
    """The JSON document at ``path``; a syntax error names the file."""
    with Path(path).open() as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def neyman_allocation(
    strata: Iterable[tuple[int, float]],
    n_total: int,
) -> list[int]:
    """Allocate a total sample size across strata proportionally to ``N_h * s_yh``.

    Parameters
    ----------
    strata : iterable of (N, s_y) pairs
        Stratum population sizes and study-variable standard deviations.
    n_total : int
        Total sample size, an integer with ``L <= n_total <= sum(N_h)``.
        Every ``N_h`` must be an integer of at least 1.

    Returns
    -------
    list of int
        Per-stratum sample sizes with ``sum == n_total`` and
        ``1 <= n_h <= N_h`` (excess beyond a stratum's capacity is
        redistributed to unsaturated strata by largest remainder).
    """
    if not _is_whole(n_total):
        raise ValueError(f"n_total must be an integer, got {n_total!r}")
    n_total = int(n_total)
    pairs = [(N, float(s)) for N, s in strata]
    if not pairs:
        raise ValueError("at least one stratum is required")
    for h, (N, _) in enumerate(pairs, start=1):
        if not _is_whole(N):
            raise ValueError(f"stratum {h} has N={N!r}; N must be an integer")
        if N < 1:
            raise ValueError(f"stratum {h} has N={N}; every stratum needs N >= 1")
    pairs = [(int(N), s) for N, s in pairs]
    L = len(pairs)
    cap = sum(N for N, _ in pairs)
    if not L <= n_total <= cap:
        raise ValueError(
            f"n_total={n_total} infeasible for {L} strata with total size {cap}"
        )
    if any(s < 0 for _, s in pairs):
        raise ValueError("standard deviations must be nonnegative")
    total_share = sum(N * s for N, s in pairs)
    if total_share <= 0:
        raise ValueError("at least one stratum must have positive N * s_y")
    raw = [n_total * N * s / total_share for N, s in pairs]
    alloc = [min(max(int(math.floor(r)), 1), N) for r, (N, _) in zip(raw, pairs)]
    remainders = [r - math.floor(r) for r in raw]
    # Step the strata by one unit each, in turn, until the total matches,
    # respecting 1 <= n_h <= N_h: largest remainder first when adding,
    # smallest first when removing.
    gap = n_total - sum(alloc)
    step = 1 if gap > 0 else -1
    order = sorted(range(L), key=lambda i: remainders[i], reverse=step > 0)
    while gap:
        progressed = False
        for i in order:
            if not gap:
                break
            if 1 <= alloc[i] + step <= pairs[i][0]:
                alloc[i] += step
                gap -= step
                progressed = True
        if not progressed:  # pragma: no cover - excluded by feasibility check
            raise ValueError("allocation failed to converge")
    return alloc


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _read_csv(path: str | Path, what: str, read, columns, optional=()):
    """``read(rows)`` over the rows of the CSV file at ``path``.

    ``rows`` iterates over each row's cells in the ``columns`` the header
    must name, then in the ``optional`` ones, which are ``""`` where the
    header or the row has none.  Columns are found by header name; as in
    ``csv.DictReader``, the last of a repeated name wins and blank rows
    are skipped.  An error that ``read`` raises on a row names the file
    and line as a malformed row, and an empty result is an error naming
    ``what``, such as ``no unit rows``.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file or missing header")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        width = len(header)
        index = {name: i for i, name in enumerate(header)}
        cells = operator.itemgetter(*[index.get(c, width)
                                      for c in (*columns, *optional)])
        if optional:
            get, blank = cells, [""] * (width + 1)

            def cells(row):  # every cell past a row's end or the header's is ""
                return get(row[:width] + blank)
        try:
            # Rows are read one at a time, so the reader's line is the
            # line of the row that failed.
            made = read(map(cells, filter(None, reader)))
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    if not made:
        raise ValueError(f"{path}: no {what} rows")
    return made


def _summary_row(*cells) -> StratumSummary:
    """The summary of a row's cells in :data:`SUMMARY_COLUMNS` order, then
    :data:`SUMMARY_RHO_COLUMNS` order; an empty rho cell is ``None``."""
    stratum_id, N, n, *values = cells[:len(SUMMARY_COLUMNS)]
    rho = [float(c) if c else None for c in cells[len(SUMMARY_COLUMNS):]]
    return StratumSummary(stratum_id, int(N), int(n), *map(float, values), *rho)


def read_summary_csv(path: str | Path) -> list[StratumSummary]:
    """Read stratum summaries from the summary-level CSV schema.

    The required columns are :data:`SUMMARY_COLUMNS`; the optional
    :data:`SUMMARY_RHO_COLUMNS` (empty cells allowed) carry
    cross-validation correlations.  Columns are found by header name.
    """
    return _read_csv(path, "stratum",
                     lambda rows: list(itertools.starmap(_summary_row, rows)),
                     SUMMARY_COLUMNS, SUMMARY_RHO_COLUMNS)


def write_summary_csv(path: str | Path, strata: Sequence[StratumSummary]) -> None:
    """Write stratum summaries in the summary-level CSV schema.

    Floats are rendered with ``repr`` (shortest round-trip form), so a
    file produced by this writer re-reads to bit-identical values and a
    read-write cycle reproduces the file byte for byte.  The rho columns
    are included only when at least one stratum carries a correlation.
    """
    include_rho = any(
        getattr(s, col) is not None for s in strata for col in SUMMARY_RHO_COLUMNS
    )
    columns = SUMMARY_COLUMNS + (SUMMARY_RHO_COLUMNS if include_rho else ())
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for s in strata:
            writer.writerow([_format_cell(getattr(s, col)) for col in columns])


def read_units_csv(path: str | Path) -> list[UnitFrame]:
    """Read unit-level data (columns ``stratum_id, y, x, z``).

    Rows are grouped by ``stratum_id``; strata are returned in order of
    first appearance.
    """
    def group(rows) -> dict[str, list[tuple[float, float, float]]]:
        groups = collections.defaultdict(list)
        for stratum_id, y, x, z in rows:
            groups[stratum_id].append((float(y), float(x), float(z)))
        return groups

    frames = []
    for sid, rows in _read_csv(path, "unit", group, UNITS_COLUMNS).items():
        arr = np.array(rows, dtype=float)
        frames.append(UnitFrame(stratum_id=sid, y=arr[:, 0], x=arr[:, 1], z=arr[:, 2]))
    return frames
