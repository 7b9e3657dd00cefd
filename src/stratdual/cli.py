"""Command-line workflows over the estimator library.

Commands
--------
validate   report data-consistency findings (optionally auto-repair)
moments    export the moment sets of a population as JSON
mse        first-order MSE/PRE table for a list of estimators
pre        the canonical four-estimators-plus-optimum efficiency table
sweep      MSE of the transformed product-with-z estimator over a theta grid
optimize   closed-form optimal parameters with their MSEs and bias
simulate   Monte Carlo comparison of empirical vs first-order MSE

Inputs are summary-level or unit-level CSV (``--input`` with
``--schema``), or a previously exported moments JSON (``--moments``).
A JSON config file (``--config``) can supply any option; explicit flags
win on conflict.  Exit status is nonzero when an error-severity
validation finding survives the corrections policy, and on any
data/usage error.
"""

from __future__ import annotations

import argparse
import array
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .domain import (
    PopulationSummary,
    StratumSummary,
    ValidationReport,
    _is_number,
    _read_json,
    combine,
    neyman_allocation,
    read_summary_csv,
    read_units_csv,
    summarize_stratum,
    validate,
)
from .estimators import DUAL_KINDS, _LABEL_KEYS, EstimatorSpec, parse_estimator
from .moments import (
    MomentSet,
    _moment_sets,
    moments_from_dict,
    moments_to_json,
)
from .mse_theory import (
    A_of_theta,
    MseReport,
    _NoOptimum,
    _form,
    _linearisation,
    bias_first_order_dual,
    mse_first_order,
    optimize_alphas,
    optimize_theta,
    var_yst,
)
from .simulate import (
    ROW_COLUMNS,
    generate_population,
    load_population_spec,
    monte_carlo,
)

__all__ = ["RunConfig", "build_parser", "main"]

_FORMATS = ("csv", "markdown", "json")
_EXTENSIONS = {"csv": "csv", "markdown": "md", "json": "json"}

#: Default estimator list for the `mse` and `simulate` commands.
DEFAULT_ESTIMATORS = (
    "classical",
    "combined_ratio",
    "combined_product",
    "ratio_cum_product",
    "tracy_product:opt",
    "plikusas_dual",
    "dual_family:opt",
)

#: Largest number of points a `sweep` range grid may have.
MAX_SWEEP_POINTS = 10**6

#: Default number of Monte Carlo replications of the `simulate` command.
DEFAULT_REPLICATIONS = 10000


# ---------------------------------------------------------------------------
# Options: one converter per kind of value, one RunConfig field per option
# ---------------------------------------------------------------------------
#
# A converter takes a flag's text or a config file's JSON value, and
# ``where`` ("argument --flag" or "config key 'key'") to name it in errors.


def _path(value, where: str) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"{where}: {value!r:.40} is not a path")
    return Path(value)


def _integer(value, where: str) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif type(value) is int:
        return value
    raise ValueError(f"{where}: {value!r:.40} is not an integer")


def _at_least(low: int):
    """The converter of integers of at least ``low``."""
    def convert(value, where: str) -> int:
        number = _integer(value, where)
        if number < low:
            raise ValueError(f"{where}: must be at least {low}, got {number}")
        return number
    return convert


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{where}: {value!r:.40} is not true or false")
    return value


def _specs(value, where: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{where}: {value!r:.40} is not a list of estimator specs")
    return tuple(value)


def _one_of(choices: tuple[str, ...]):
    def convert(value, where: str) -> str:
        if value not in choices:
            raise ValueError(
                f"{where}: {value!r:.40} is not one of {', '.join(choices)}")
        return value
    return convert


def _sweep_grid(grid, where: str) -> array.array:
    """The theta grid of the ``sweep`` command: finite and nonzero.

    ``grid`` is ``START:STOP:STEP`` or ``V1,V2,...`` text, or an object
    with ``values`` or with ``start``, ``stop`` and ``step``.  A range
    grid may have at most :data:`MAX_SWEEP_POINTS` points.
    """
    def number(text):
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{where}: grid entry {text!r:.40} "
                             "is not a number") from None

    if isinstance(grid, str) and ":" in grid:
        parts = grid.split(":")
        if len(parts) != 3:
            raise ValueError(f"{where}: bad grid {grid!r}; "
                             "expected START:STOP:STEP")
        grid = dict(zip(("start", "stop", "step"), map(number, parts)))
    elif isinstance(grid, str):
        grid = {"values": list(map(number, grid.split(",")))}
    elif not isinstance(grid, dict):
        raise ValueError(f"{where} must hold a JSON object, not {grid!r:.40}")
    else:
        unknown = set(grid) - {"values", "start", "stop", "step"}
        if unknown:
            raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    if "values" in grid:
        values = grid["values"]
        if not isinstance(values, list):
            raise ValueError(f"{where}: values {values!r:.40} is not a list")
        for value in values:
            if not _is_number(value):
                raise ValueError(f"{where}: values entry {value!r:.40} "
                                 "is not a number")
        values = np.array(values, dtype=float)
    else:
        missing = [k for k in ("start", "stop", "step") if k not in grid]
        if missing:
            raise ValueError(f"{where}: missing keys {missing}")
        for key in ("start", "stop", "step"):
            if not _is_number(grid[key]):
                raise ValueError(f"{where}: {key} {grid[key]!r:.40} "
                                 "is not a number")
        start, stop, step = grid["start"], grid["stop"], grid["step"]
        if step <= 0:
            raise ValueError(f"{where}: step must be positive")
        if start > stop:
            raise ValueError(f"{where}: start must not exceed stop")
        for key in ("start", "stop", "step"):
            if not math.isfinite(grid[key]):
                raise ValueError(f"{where}: {key} {grid[key]!r} is not finite")
        span = (stop - start) / step
        count = round(span) + 1 if math.isfinite(span) else math.inf
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"{where}: grid of {count} points exceeds the "
                             f"limit of {MAX_SWEEP_POINTS}")
        values = start + step * np.arange(count)
        values = values[values <= stop + step * 1e-9]
    if values.size == 0:
        raise ValueError(f"{where}: empty grid")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{where}: grid entry {float(bad[0])!r} "
                         "is not finite")
    if np.any(values == 0):
        raise ValueError(f"{where}: grid must not contain theta = 0")
    # An array.array compares with == and, unlike a tuple, holds no Python
    # float per point; numpy reads it back with its dtype.
    return array.array(values.dtype.char, values.tobytes())


def _option(default, convert=None, help: str = "", *, choices=None,
            commands=None, flag=None, key=None, **argparse_kw):
    """A :class:`RunConfig` field that declares one option.

    ``default`` is written as the option's flag or config value; the
    field's default is its converted value.  ``choices`` gives the
    converter of a choice option.  ``commands`` lists the subcommands
    that take the flag (every one when ``None``).  ``flag`` defaults to
    ``--`` plus the field name with dashes, ``key`` (the config key
    path) to the field name; ``argparse_kw`` goes to ``add_argument``.
    """
    if choices is not None:
        convert = _one_of(choices)
        argparse_kw["choices"] = choices
    metadata = {"convert": convert, "default": default, "help": help,
                "commands": commands, "flag": flag, "key": key,
                "argparse": argparse_kw}
    if default is None:
        return dataclasses.field(default=None, metadata=metadata)
    # Converted on first use, so importing the module runs no numpy code.
    typed = functools.cache(functools.partial(convert, default, "default"))
    return dataclasses.field(default_factory=typed, metadata=metadata)


@dataclass
class RunConfig:
    """Merged options of one CLI invocation (config file plus flags).

    Every field but ``command`` declares one option, with its converter,
    default, help, flag, config key and subcommands (see :func:`_option`);
    :func:`build_parser` and :func:`merge_config` read nothing else.
    """

    command: str
    input: Path | None = _option(
        None, _path, "input CSV (summary- or unit-level schema)")
    schema: str = _option("summary", choices=("summary", "units"),
                          help="input CSV schema")
    moments: Path | None = _option(
        None, _path, "moments JSON document replacing --input")
    allocate: int | None = _option(
        None, _at_least(1), "total sample size for unit-level input "
                        "(Neyman-allocated across strata)")
    corrections: str = _option("off", choices=("off", "auto"),
                               help="validation repair policy")
    estimators: tuple[str, ...] | None = _option(
        list(DEFAULT_ESTIMATORS), _specs,
        "estimator spec (repeatable), e.g. 'tracy_product:A=18631.62', "
        "'dual_family:opt'",
        commands=("mse", "simulate"), flag="--estimator", action="append",
        metavar="SPEC")
    sweep: array.array = _option(
        "0.8:2.4:0.1", _sweep_grid, "theta grid", commands=("sweep",),
        flag="--grid", metavar="START:STOP:STEP|V1,V2,...")
    population: Path | None = _option(
        None, _path, "population spec JSON", commands=("simulate",),
        key=("simulate", "population"))
    replications: int = _option(
        DEFAULT_REPLICATIONS, _at_least(1),
        "number of Monte Carlo replications",
        commands=("simulate",), key=("simulate", "replications"))
    seed: int | None = _option(
        None, _at_least(0), "override the population spec's seed",
        commands=("simulate",), key=("simulate", "seed"))
    output_dir: Path | None = _option(
        None, _path, "directory for rendered artifacts")
    format: str = _option("markdown", choices=_FORMATS, help="table format")
    full_precision: bool = _option(
        False, _boolean, "render numbers with 17 significant digits",
        action="store_true")


#: ``(name, flag, config key path, metadata)`` of every option, in field order.
_OPTIONS = tuple(
    (f.name, f.metadata["flag"] or "--" + f.name.replace("_", "-"),
     f.metadata["key"] or (f.name,), f.metadata)
    for f in dataclasses.fields(RunConfig) if f.metadata
)
_CONFIG_KEYS = frozenset(key for _, _, key, _ in _OPTIONS)
#: Config keys that hold an object of further keys.
_CONFIG_BLOCKS = frozenset(key[0] for key in _CONFIG_KEYS if len(key) > 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value, full: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g" if full else ".6g")


def _json_column(column) -> list[str] | None:
    """The JSON text of each value of one column, or ``None`` if not scalar.

    A float64 array is checked by one ``np.isfinite`` call; in other
    columns numpy scalars are taken as their Python values.  Each
    distinct string is encoded once.  The text is what ``json.dumps``
    writes for the value inside any document.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        if np.isfinite(column).all():
            return list(map(float.__repr__, column.tolist()))
        column = column.tolist()
    kinds = set(map(type, column))
    if any(issubclass(k, np.generic) for k in kinds):
        column = [v.item() if isinstance(v, np.generic) else v for v in column]
        kinds = set(map(type, column))
    if kinds == {float} and all(map(math.isfinite, column)):
        return list(map(float.__repr__, column))
    if kinds == {str}:
        text = {v: encode_basestring_ascii(v) for v in set(column)}
        return list(map(text.__getitem__, column))
    if kinds <= {str, int, float, bool, type(None)}:
        return list(map(json.dumps, column))
    return None


def _render_json(headers, columns, size: int) -> str:
    """``json.dumps(indent=2)`` of the table's ``size`` rows as objects.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder,
    which is slow on long tables.  Here each column is encoded once,
    and the document is one join of the keys interleaved with the
    cells; the text is byte-identical.  Tables this cannot express
    (non-string or repeated headers, non-scalar cells) go through
    ``json.dumps`` itself.
    """
    if not size:
        return "[]"
    cells = None
    if (all(type(h) is str for h in headers)
            and len(set(headers)) == len(headers)):
        cells = list(map(_json_column, columns))
    if cells is None or None in cells:
        payload = [
            {h: (v.item() if isinstance(v, np.generic) else v)
             for h, v in zip(headers, row)}
            for row in zip(*columns)
        ]
        return json.dumps(payload, indent=2)
    # Each cell follows its key.  A row's first key also closes the row
    # before it, except in the first row, which opens the document.
    keys = list(map(encode_basestring_ascii, headers))
    leads = [f"\n  }},\n  {{\n    {keys[0]}: "]
    leads += [f",\n    {key}: " for key in keys[1:]]
    width = 2 * len(keys)
    parts = [""] * (width * size)
    for j, (lead, column) in enumerate(zip(leads, cells)):
        parts[2 * j::width] = [lead] * size
        parts[2 * j + 1::width] = column
    parts[0] = f"[\n  {{\n    {keys[0]}: "
    parts.append("\n  }\n]")
    return "".join(parts)


def render_table(headers, columns, fmt: str, full: bool = False) -> str:
    """Render a table given as columns, one per header, as csv/markdown/json.

    A column is a sequence, or a 1-D float64 array; all have one length.
    JSON output equals ``json.dumps(indent=2)`` of one object per row,
    with numpy scalars taken as their Python values.  csv and markdown
    format each column, then write it row by row.
    """
    headers, columns = tuple(headers), tuple(columns)
    lengths = [len(column) for column in columns]
    if len(columns) != len(headers) or len(set(lengths)) > 1:
        raise ValueError(f"a table of {len(headers)} headers got columns "
                         f"of lengths {lengths}")
    if fmt == "json":
        return _render_json(headers, columns, lengths[0] if lengths else 0)
    rows = zip(*[[_fmt(v, full) for v in column] for column in columns])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _publish(config: RunConfig, filename: str, text: str) -> None:
    """Print ``text``, and write it to ``filename`` in the output dir if set."""
    print(text)
    if config.output_dir is not None:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        (config.output_dir / filename).write_text(text + "\n")


def _emit(config: RunConfig, name: str, headers, columns) -> None:
    text = render_table(headers, columns, config.format, config.full_precision)
    _publish(config, f"{name}.{_EXTENSIONS[config.format]}", text)


def _print_findings(report: ValidationReport, stream) -> None:
    for f in report.findings:
        where = f"stratum {f.stratum_id}" if f.stratum_id is not None else "global"
        print(f"{f.severity.upper()} [{where}] {f.code}: {f.message}", file=stream)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def load_input(
    config: RunConfig,
) -> tuple[PopulationSummary, ValidationReport, tuple]:
    """Load, validate and (optionally) repair the ``--input`` population.

    For the unit-level schema an ``--allocate`` total sample size is
    required; per-stratum sizes are then assigned by Neyman allocation
    on the realized study-variable standard deviations.

    Returns ``(population, report, blocking)`` where ``population`` is
    the corrected population when a repair was applied (the original
    otherwise) and ``blocking`` lists the error findings that survive
    the corrections policy; downstream computation must not proceed
    when it is nonempty.
    """
    if config.schema == "summary":
        strata = read_summary_csv(config.input)
    else:
        frames = read_units_csv(config.input)
        if config.allocate is None:
            raise ValueError(
                "unit-level input needs --allocate TOTAL to assign sample sizes"
            )
        prelim = [summarize_stratum(f, 1) for f in frames]
        sizes = neyman_allocation([(s.N, s.s_y) for s in prelim],
                                  config.allocate)
        strata = [dataclasses.replace(s, n=n_h) for s, n_h in zip(prelim, sizes)]
    pop = combine(strata)
    report = validate(pop, config.corrections)
    effective = report.corrected if report.corrected is not None else pop
    blocking = ()
    if not report.ok:
        blocking = validate(effective, "off").errors
    return effective, report, blocking


def _load_for_command(config: RunConfig):
    """Common input resolution for the table-producing commands.

    Returns ``(pop, m, md)``: the population (a means-only shell when
    the input is a moments document), the unprimed moment set, and the
    dual set or ``None``.
    """
    if config.moments is not None:
        m, md, means = moments_from_dict(_read_json(config.moments))
        shell = StratumSummary(
            stratum_id="(moments)",
            N=2,
            n=1,
            mean_y=means.get("mean_y", 1.0),
            mean_x=means.get("mean_x", 1.0),
            mean_z=means.get("mean_z", 1.0),
            s_y=0.0, s_x=0.0, s_z=0.0, s_xy=0.0, s_yz=0.0, s_xz=0.0,
        )
        return combine([shell]), m, md
    if config.input is None:
        raise ValueError("no input: pass --input CSV or --moments JSON")
    pop, report, blocking = load_input(config)
    _print_findings(report, sys.stderr)
    if blocking:
        raise ValueError(
            f"validation found {len(blocking)} blocking error(s); "
            "rerun with --corrections auto or fix the input"
        )
    m, md = _moment_sets(pop)
    return pop, m, md


def _optimum(kind: str, name: str, pop: PopulationSummary, m: MomentSet,
             md: MomentSet | None, note: str = "skipping {name} ({reason})",
             ) -> tuple[MseReport, tuple[float, float, float]] | None:
    """The closed-form optimum of ``kind``, the one path of every command.

    Returns ``(report, found)``: the :class:`MseReport` of the spec the
    optimum resolves to, and the optimizer's ``(theta_opt, A_opt,
    mse_min)`` or ``(alpha1, alpha2, mse_min)``.  Where the population
    has no such optimum (no dual moment set, or the optimizer says so),
    ``note`` goes to stderr with ``name`` and the reason, and the result
    is ``None``.  Any other error of the optimum is raised again with
    ``name`` before its message.
    """
    if kind not in ("tracy_product", "dual_family"):
        raise ValueError(f"no closed-form optimum implemented for {kind!r}")
    try:
        if kind == "tracy_product":
            found = optimize_theta(pop, m)
            spec = EstimatorSpec(kind=kind, A=found[1])
        elif md is None:
            raise _NoOptimum("no dual moments available")
        else:
            found = optimize_alphas(md, pop)
            spec = EstimatorSpec(kind=kind, alpha1=found[0], alpha2=found[1])
        return MseReport(spec, found[2], var_yst(pop, m)), found
    except _NoOptimum as exc:
        print(note.format(name=name, reason=exc), file=sys.stderr)
        return None
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _resolve_estimators(
    texts, pop: PopulationSummary, m: MomentSet, md: MomentSet | None,
) -> tuple[list[str], list[EstimatorSpec]]:
    """Parse estimator strings, resolving ``:opt`` by :func:`_optimum`.

    ``texts`` empty means :data:`DEFAULT_ESTIMATORS`.  Without a dual
    moment set the dual kinds are skipped, with one note, and so is an
    ``:opt`` the population has no optimum for.  Returns the kept texts,
    stripped, and their specs.
    """
    texts = [t.strip() for t in texts or DEFAULT_ESTIMATORS]
    if md is None:
        dropped = [t for t in texts if t.split(":")[0] in DUAL_KINDS]
        if dropped:
            print(f"skipping dual estimators (no dual moments): {dropped}",
                  file=sys.stderr)
        texts = [t for t in texts if t.split(":")[0] not in DUAL_KINDS]
    kept = []
    for text in texts:
        if not text.endswith(":opt"):
            kept.append((text, parse_estimator(text)))
        elif found := _optimum(text[: -len(":opt")], text, pop, m, md):
            kept.append((text, found[0].estimator))
    return [text for text, _ in kept], [spec for _, spec in kept]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(config: RunConfig) -> int:
    if config.input is None:
        raise ValueError("validate requires --input")
    pop, report, blocking = load_input(config)
    findings = report.findings
    _emit(config, "validate", ("severity", "stratum_id", "code", "message"), (
        [f.severity for f in findings],
        [f.stratum_id if f.stratum_id is not None else "" for f in findings],
        [f.code for f in findings],
        [f.message for f in findings],
    ))
    if report.corrected is not None:
        print(f"applied corrections; population has {pop.L} strata", file=sys.stderr)
    if blocking:
        print(f"{len(blocking)} blocking error(s)", file=sys.stderr)
        return 1
    return 0


def cmd_moments(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    text = moments_to_json(
        m,
        md,
        {"mean_y": pop.mean_y, "mean_x": pop.mean_x, "mean_z": pop.mean_z},
    )
    _publish(config, "moments.json", text)
    return 0


def _warned(report: MseReport) -> MseReport:
    """``report``, each of its warnings printed to stderr as a ``warning:``
    line: the one place where ``mse``, ``pre`` and ``optimize`` say why a
    PRE cell is empty."""
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return report


def _params_cell(spec: EstimatorSpec, full: bool) -> str:
    return ",".join(f"{_LABEL_KEYS[name]}={_fmt(getattr(spec, name), full)}"
                    for name in spec._row.params)


def cmd_mse(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    _, specs = _resolve_estimators(config.estimators, pop, m, md)
    reports = [_warned(mse_first_order(spec, pop, m, md)) for spec in specs]
    _emit(config, "mse", ("estimator", "params", "mse", "pre"), (
        [spec.kind for spec in specs],
        [_params_cell(spec, config.full_precision) for spec in specs],
        [r.mse for r in reports],
        [r.pre for r in reports],
    ))
    return 0


def cmd_pre(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    texts, specs = _resolve_estimators(
        ("classical", "combined_ratio", "ratio_cum_product", "plikusas_dual",
         "dual_family:opt"), pop, m, md)
    alpha1, alpha2, pre = [], [], []
    for spec in specs:
        # alpha1 and alpha2 are the exponents of the spec's x and z
        # factors, whole numbers unless the spec takes them.
        (_, _, e_x), (_, _, e_z) = spec._row[:2]
        if not spec._row.takes:
            e_x, e_z = int(e_x), int(e_z)
        alpha1.append(e_x)
        alpha2.append(e_z)
        pre.append(_warned(mse_first_order(spec, pop, m, md)).pre)
    _emit(config, "pre", ("estimator", "alpha1", "alpha2", "pre"),
          (texts, alpha1, alpha2, pre))
    return 0


def cmd_sweep(config: RunConfig) -> int:
    """Tracy-product MSE over the theta grid, evaluated as one array expression.

    Each row's ``A`` and ``mse`` are bit for bit those of ``A_of_theta``
    and ``mse_first_order`` called on that row alone.  The ``theta``,
    ``A`` and ``mse`` arrays, with the optimum put in by ``np.insert``,
    go to :func:`render_table` as they are, with two lists of strings.
    """
    pop, m, _ = _load_for_command(config)
    baseline = var_yst(pop, m)
    theta = np.array(config.sweep)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        A = A_of_theta(pop, theta)
        (bx, _), (bz, _) = _linearisation(pop, "tracy_product", A=A)
        mse = pop.mean_y**2 * _form(m, bx, bz)
    for name, column in (("transform constant A", A),
                         ("first-order MSE", mse)):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"theta = {float(theta[i])!r} gives a non-finite "
                             f"{name} = {float(column[i])!r}")
    order = np.argsort(theta, kind="stable")
    theta, A, mse = theta[order], A[order], mse[order]
    notes = [""] * theta.size
    if found := _optimum("tracy_product", "tracy_product optimum", pop, m,
                         None, "no optimum row: {reason}"):
        theta_opt, A_opt, mse_min = found[1]
        at = int(np.searchsorted(theta, theta_opt, side="right"))
        theta, A, mse = (np.insert(column, at, value) for column, value in
                         ((theta, theta_opt), (A, A_opt), (mse, mse_min)))
        notes.insert(at, "*")
    labels = np.where(mse < baseline, "better",
                      np.where(mse > baseline, "worse", "equal")).tolist()
    _emit(config, "sweep", ("theta", "A", "mse", "vs_classical", "note"),
          (theta, A, mse, labels, notes))
    return 0


def cmd_optimize(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    values = {"var_classical": var_yst(pop, m)}
    if found := _optimum("tracy_product", "tracy_product optimum", pop, m, md):
        values.update(zip(("theta_opt", "A_opt", "mse_tracy_product_min"),
                          found[1]),
                      pre_tracy_product_opt=_warned(found[0]).pre)
    if found := _optimum("dual_family", "dual_family optimum", pop, m, md,
                         "skipping dual optimum ({reason})"):
        a1, a2, dual_min = found[1]
        values.update(alpha1_opt=a1, alpha2_opt=a2,
                      mse_dual_family_min=dual_min,
                      pre_dual_family_opt=_warned(found[0]).pre,
                      bias_dual_family_opt=bias_first_order_dual(md, pop, a1, a2))
    _emit(config, "optimize", ("parameter", "value"),
          (list(values), list(values.values())))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    if config.population is None:
        raise ValueError("simulate requires --population SPEC.json")
    spec = load_population_spec(config.population)
    if config.seed is not None:
        spec = dataclasses.replace(spec, seed=config.seed)
    design = spec.design
    frames = generate_population(spec)
    pop = combine([summarize_stratum(f, n) for f, n in zip(frames, design)])
    m, md = _moment_sets(pop)
    _, specs = _resolve_estimators(config.estimators, pop, m, md)

    result = monte_carlo(frames, design, specs, config.replications, spec.seed)
    print(f"true mean_y = {_fmt(result.true_mean_y, config.full_precision)}; "
          f"R = {result.R}; seed = {result.seed}; design = {list(result.design)}",
          file=sys.stderr)
    if result.xstar_mean is not None:
        print(f"dual transform tracking: mean xstar_st = "
              f"{_fmt(result.xstar_mean, config.full_precision)} "
              f"(se {_fmt(result.xstar_se, config.full_precision)}), "
              f"mean zstar_st = {_fmt(result.zstar_mean, config.full_precision)} "
              f"(se {_fmt(result.zstar_se, config.full_precision)})",
              file=sys.stderr)
    rows = result.rows()
    _emit(config, "simulate", ROW_COLUMNS,
          [[row[name] for row in rows] for name in ROW_COLUMNS])
    return 0


_COMMANDS = {
    "validate": (cmd_validate, "report data-consistency findings"),
    "moments": (cmd_moments, "export moment sets as JSON"),
    "mse": (cmd_mse, "first-order MSE/PRE table"),
    "pre": (cmd_pre, "canonical efficiency table with the dual-family optimum"),
    "sweep": (cmd_sweep, "theta sweep of the transformed product-with-z MSE"),
    "optimize": (cmd_optimize, "closed-form optimal parameters and their MSEs"),
    "simulate": (cmd_simulate, "Monte Carlo empirical-vs-theory comparison"),
}


# ---------------------------------------------------------------------------
# Argument parsing and config merging
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag per :class:`RunConfig` option.

    Flags default to ``None``, so :func:`merge_config` can tell a given
    flag from an absent one.
    """
    parser = argparse.ArgumentParser(
        prog="stratdual",
        description="Stratified-sampling estimators with two auxiliary "
                    "variables: MSE theory, efficiency tables, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file; explicit flags win on conflict")
        for name, flag, _, meta in _OPTIONS:
            if meta["commands"] is not None and command not in meta["commands"]:
                continue
            text, default = meta["help"], meta["default"]
            if default is not None and not isinstance(default, bool):
                shown = ", ".join(default) if isinstance(default, list) else default
                text += f" (default: {shown})"
            p.add_argument(flag, dest=name, default=None, help=text,
                           **meta["argparse"])
    return parser


def _json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; a precise ``ValueError`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must hold a JSON object, not {value!r:.40}")
    return value


def _config_values(doc: dict) -> dict:
    """The config document's values by key path; unknown keys are errors."""
    values = {}
    for key, value in doc.items():
        if key in _CONFIG_BLOCKS:
            block = _json_object(value, f"config key {key!r}")
            values.update(((key, sub), v) for sub, v in block.items())
        else:
            values[key,] = value
    for key in values:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config key {'.'.join(key)!r}: unknown key")
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file (if any) under the explicitly given flags.

    A flag's text and a config value go through the same converter.
    """
    file_values = {}
    if getattr(args, "config", None) is not None:
        doc = _json_object(_read_json(args.config),
                           f"config file {args.config}")
        file_values = _config_values(doc)
    options = {}
    for name, flag, key, meta in _OPTIONS:
        value = getattr(args, name, None)
        if value is not None:
            options[name] = meta["convert"](value, f"argument {flag}")
        elif key in file_values:
            options[name] = meta["convert"](
                file_values[key], f"config key {'.'.join(key)!r}")
    return RunConfig(command=args.command, **options)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process.

    Parsing leaves a parser unchanged (every ``append`` option defaults
    to ``None`` and collects into a fresh list), so one parser serves
    every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = merge_config(args)
        return _COMMANDS[config.command][0](config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
