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
    combine,
    neyman_allocation,
    read_summary_csv,
    read_units_csv,
    summarize_stratum,
    validate,
)
from .estimators import (
    DUAL_KINDS,
    TRANSFORM_KINDS,
    EstimatorSpec,
    parse_estimator,
)
from .moments import (
    MomentSet,
    _moment_sets,
    moments_from_dict,
    moments_to_json,
)
from .mse_theory import (
    A_of_theta,
    MseReport,
    _form,
    bias_first_order_dual,
    mse_first_order,
    optimize_alphas,
    optimize_theta,
    theta_of_A,
    var_yst,
)
from .simulate import (
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

#: Default theta grid of the `sweep` command.
DEFAULT_SWEEP = {"start": 0.8, "stop": 2.4, "step": 0.1}

#: Largest number of points a `sweep` range grid may have.
MAX_SWEEP_POINTS = 10**6

#: Default number of Monte Carlo replications of the `simulate` command.
DEFAULT_REPLICATIONS = 10000


@dataclass
class RunConfig:
    """Merged options of one CLI invocation (config file plus flags)."""

    command: str
    input: Path | None = None
    schema: str = "summary"
    moments: Path | None = None
    allocate: int | None = None
    corrections: str = "off"
    estimators: tuple[str, ...] | None = None
    sweep: dict | None = None
    population: Path | None = None
    replications: int = DEFAULT_REPLICATIONS
    seed: int | None = None
    output_dir: Path | None = None
    format: str = "markdown"
    full_precision: bool = False

    def __post_init__(self) -> None:
        if self.schema not in ("summary", "units"):
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.corrections not in ("off", "auto"):
            raise ValueError(f"unknown corrections policy {self.corrections!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.sweep is not None and "values" not in self.sweep:
            missing = [k for k in ("start", "stop", "step") if k not in self.sweep]
            if missing:
                raise ValueError(f"sweep grid missing keys {missing}")
            for key in ("start", "stop", "step"):
                value = self.sweep[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"sweep {key} {value!r} is not a number")
            if self.sweep["step"] <= 0:
                raise ValueError("sweep step must be positive")
            if self.sweep["start"] > self.sweep["stop"]:
                raise ValueError("sweep start must not exceed stop")


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


def _json_column(values) -> list[str] | None:
    """The JSON text of each value of one column, or ``None`` if not scalar.

    Numpy scalars are taken as their Python values.  The text is what
    ``json.dumps`` writes for the value inside any document.
    """
    kinds = set(map(type, values))
    if any(issubclass(k, np.generic) for k in kinds):
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
        kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(repr, values))  # float.__repr__, called faster
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds <= {str, int, float, bool, type(None)}:
        return list(map(json.dumps, values))
    return None


def _render_json(headers, rows) -> str:
    """``json.dumps(indent=2)`` of the rows as objects, encoded by column.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder,
    which is slow on long tables.  Here each column is encoded once and
    one row template is filled per row; the text is byte-identical.
    Tables the template cannot express (non-string or repeated headers,
    ragged rows, non-scalar cells) go through ``json.dumps`` itself.
    """
    rows = list(rows)
    headers = tuple(headers)
    columns = None
    if (rows and headers and all(type(h) is str for h in headers)
            and len(set(headers)) == len(headers)
            and all(len(row) == len(headers) for row in rows)):
        columns = [_json_column(column) for column in zip(*rows)]
    if columns is None or None in columns:
        payload = [
            {h: (v.item() if isinstance(v, np.generic) else v)
             for h, v in zip(headers, row)}
            for row in rows
        ]
        return json.dumps(payload, indent=2)
    keys = [encode_basestring_ascii(h).replace("%", "%%") for h in headers]
    template = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
    objects = [template % cells for cells in zip(*columns)]
    # Brackets go on the first and last object, not around the joined
    # text, which would copy the whole table twice more.
    objects[0] = "[\n" + objects[0]
    objects[-1] += "\n]"
    return ",\n".join(objects)


def render_table(headers, rows, fmt: str, full: bool = False) -> str:
    """Render rows (sequences aligned with ``headers``) as csv/markdown/json.

    JSON output equals ``json.dumps(indent=2)`` of one object per row,
    with numpy scalars taken as their Python values.
    """
    if fmt == "json":
        return _render_json(headers, rows)
    cells = [[_fmt(v, full) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return buf.getvalue().rstrip("\n")
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _publish(config: RunConfig, filename: str, text: str) -> None:
    """Print ``text``, and write it to ``filename`` in the output dir if set."""
    print(text)
    if config.output_dir is not None:
        directory = Path(config.output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / filename).write_text(text + "\n")


def _emit(config: RunConfig, name: str, headers, rows) -> None:
    text = render_table(headers, rows, config.format, config.full_precision)
    _publish(config, f"{name}.{_EXTENSIONS[config.format]}", text)


def _print_findings(report: ValidationReport, stream) -> None:
    for f in report.findings:
        where = f"stratum {f.stratum_id}" if f.stratum_id is not None else "global"
        print(f"{f.severity.upper()} [{where}] {f.code}: {f.message}", file=stream)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def load_input(
    path: str | Path,
    schema: str = "summary",
    corrections: str = "off",
    allocate: int | None = None,
) -> tuple[PopulationSummary, ValidationReport, tuple]:
    """Load, validate and (optionally) repair an input population.

    For the unit-level schema an ``allocate`` total sample size is
    required; per-stratum sizes are then assigned by Neyman allocation
    on the realized study-variable standard deviations.

    Returns ``(population, report, blocking)`` where ``population`` is
    the corrected population when a repair was applied (the original
    otherwise) and ``blocking`` lists the error findings that survive
    the corrections policy; downstream computation must not proceed
    when it is nonempty.
    """
    if schema == "summary":
        strata = read_summary_csv(path)
    else:
        frames = read_units_csv(path)
        if allocate is None:
            raise ValueError(
                "unit-level input needs --allocate TOTAL to assign sample sizes"
            )
        prelim = [summarize_stratum(f, 1) for f in frames]
        sizes = neyman_allocation([(s.N, s.s_y) for s in prelim], allocate)
        strata = [dataclasses.replace(s, n=n_h) for s, n_h in zip(prelim, sizes)]
    pop = combine(strata)
    report = validate(pop, corrections)
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
        with Path(config.moments).open() as fh:
            doc = json.load(fh)
        m, md, means = moments_from_dict(doc)
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
    pop, report, blocking = load_input(
        config.input, config.schema, config.corrections, config.allocate
    )
    _print_findings(report, sys.stderr)
    if blocking:
        raise ValueError(
            f"validation found {len(blocking)} blocking error(s); "
            "rerun with --corrections auto or fix the input"
        )
    m, md = _moment_sets(pop)
    return pop, m, md


def _resolve_estimators(
    config: RunConfig, pop: PopulationSummary, m: MomentSet,
    md: MomentSet | None,
) -> list[EstimatorSpec]:
    """Parse the command's estimator strings, resolving ``:opt`` via the optimizers.

    Without a dual moment set the dual kinds are skipped, with a note.
    """
    texts = config.estimators or DEFAULT_ESTIMATORS
    if md is None:
        dropped = [t for t in texts if t.split(":")[0] in DUAL_KINDS]
        if dropped:
            print(f"skipping dual estimators (no dual moments): {dropped}",
                  file=sys.stderr)
        texts = [t for t in texts if t.split(":")[0] not in DUAL_KINDS]
    resolved = []
    for text in texts:
        text = text.strip()
        if text.endswith(":opt"):
            kind = text[: -len(":opt")]
            if kind == "tracy_product":
                _, A_opt, _ = optimize_theta(pop, m)
                resolved.append(EstimatorSpec(kind=kind, A=A_opt))
            elif kind == "dual_family":
                if md is None:
                    raise ValueError(
                        "dual_family:opt needs dual moments "
                        "(census strata or missing dual set)"
                    )
                a1, a2, _ = optimize_alphas(md, pop)
                resolved.append(EstimatorSpec(kind=kind, alpha1=a1, alpha2=a2))
            else:
                raise ValueError(f"no closed-form optimum implemented for {kind!r}")
        else:
            resolved.append(parse_estimator(text))
    return resolved


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(config: RunConfig) -> int:
    if config.input is None:
        raise ValueError("validate requires --input")
    pop, report, blocking = load_input(
        config.input, config.schema, config.corrections, config.allocate
    )
    headers = ("severity", "stratum_id", "code", "message")
    rows = [
        (f.severity, f.stratum_id if f.stratum_id is not None else "", f.code,
         f.message)
        for f in report.findings
    ]
    _emit(config, "validate", headers, rows)
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


def _params_cell(spec: EstimatorSpec, full: bool) -> str:
    if spec.kind in TRANSFORM_KINDS:
        return f"A={_fmt(spec.A, full)}"
    if spec.kind in DUAL_KINDS:
        return f"a1={_fmt(spec.alpha1, full)},a2={_fmt(spec.alpha2, full)}"
    return ""


def cmd_mse(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    headers = ("estimator", "params", "mse", "pre")
    rows = []
    for spec in _resolve_estimators(config, pop, m, md):
        report = mse_first_order(spec, pop, m, md)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        rows.append((spec.kind, _params_cell(spec, config.full_precision),
                     report.mse, report.pre))
    _emit(config, "mse", headers, rows)
    return 0


def cmd_pre(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    baseline = var_yst(pop, m)
    headers = ("estimator", "alpha1", "alpha2", "pre")
    named = [
        ("classical", 0, 0),
        ("combined_ratio", 1, 0),
        ("ratio_cum_product", 1, 1),
    ]
    rows = []
    for kind, a1, a2 in named:
        report = mse_first_order(EstimatorSpec(kind=kind), pop, m, md)
        rows.append((kind, a1, a2, report.pre))
    if md is not None:
        report = mse_first_order(EstimatorSpec(kind="plikusas_dual"), pop, m, md)
        rows.append(("plikusas_dual", 1, 1, report.pre))
        a1, a2, mse_min = optimize_alphas(md, pop)
        spec = EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2)
        rows.append(("dual_family:opt", a1, a2,
                     MseReport(spec, mse_min, baseline).pre))
    else:
        print("skipping dual rows (no dual moments available)", file=sys.stderr)
    _emit(config, "pre", headers, rows)
    return 0


def _sweep_grid(config: RunConfig) -> np.ndarray:
    """The theta grid of the ``sweep`` command: finite and nonzero."""
    sweep = config.sweep or dict(DEFAULT_SWEEP)
    if "values" in sweep:
        values = np.array([float(v) for v in sweep["values"]], dtype=float)
    else:
        for key in ("start", "stop", "step"):
            if not math.isfinite(sweep[key]):
                raise ValueError(f"sweep {key} {sweep[key]!r} is not finite")
        start, stop, step = sweep["start"], sweep["stop"], sweep["step"]
        span = (stop - start) / step
        count = round(span) + 1 if math.isfinite(span) else math.inf
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep grid of {count} points exceeds the "
                             f"limit of {MAX_SWEEP_POINTS}")
        values = start + step * np.arange(count)
        values = values[values <= stop + step * 1e-9]
    if values.size == 0:
        raise ValueError("empty sweep grid")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"sweep grid entry {float(bad[0])!r} is not finite")
    if np.any(values == 0):
        raise ValueError("sweep grid must not contain theta = 0")
    return values


def cmd_sweep(config: RunConfig) -> int:
    """Tracy-product MSE over the theta grid, evaluated as one array expression.

    Each row's ``A`` and ``mse`` are bit for bit those of ``A_of_theta``
    and ``mse_first_order`` called on that row alone.
    """
    pop, m, _ = _load_for_command(config)
    baseline = var_yst(pop, m)
    theta = _sweep_grid(config)
    with np.errstate(over="ignore"):
        A = A_of_theta(pop, theta)
    bad = np.flatnonzero(~np.isfinite(A))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"theta = {float(theta[i])!r} gives a non-finite "
                         f"transform constant A = {float(A[i])!r}")
    # The tracy-product form, (b_x, b_z) = (-theta, 1), over the whole grid.
    mse = pop.mean_y**2 * _form(m, -theta_of_A(pop, A), 1.0)
    order = np.argsort(theta, kind="stable")
    theta, A, mse = theta[order], A[order], mse[order]
    labels = np.where(mse < baseline, "better", "worse").tolist()
    rows = list(zip(theta.tolist(), A.tolist(), mse.tolist(), labels,
                    [""] * theta.size))
    try:
        theta_opt, A_opt, mse_min = optimize_theta(pop, m)
        at = int(np.searchsorted(theta, theta_opt, side="right"))
        rows.insert(at, (theta_opt, A_opt, mse_min,
                         "better" if mse_min < baseline else "worse", "*"))
    except ValueError as exc:
        print(f"no optimum row: {exc}", file=sys.stderr)
    headers = ("theta", "A", "mse", "vs_classical", "note")
    _emit(config, "sweep", headers, rows)
    return 0


def cmd_optimize(config: RunConfig) -> int:
    pop, m, md = _load_for_command(config)
    baseline = var_yst(pop, m)
    rows = [("var_classical", baseline)]
    theta_opt, A_opt, mse_min = optimize_theta(pop, m)
    spec = EstimatorSpec(kind="tracy_product", A=A_opt)
    rows += [
        ("theta_opt", theta_opt),
        ("A_opt", A_opt),
        ("mse_tracy_product_min", mse_min),
        ("pre_tracy_product_opt", MseReport(spec, mse_min, baseline).pre),
    ]
    if md is not None:
        a1, a2, dual_min = optimize_alphas(md, pop)
        spec = EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2)
        rows += [
            ("alpha1_opt", a1),
            ("alpha2_opt", a2),
            ("mse_dual_family_min", dual_min),
            ("pre_dual_family_opt", MseReport(spec, dual_min, baseline).pre),
            ("bias_dual_family_opt", bias_first_order_dual(md, pop, a1, a2)),
        ]
    else:
        print("skipping dual optimum (no dual moments available)", file=sys.stderr)
    _emit(config, "optimize", ("parameter", "value"), rows)
    return 0


def cmd_simulate(config: RunConfig) -> int:
    if config.population is None:
        raise ValueError("simulate requires --population SPEC.json")
    spec = load_population_spec(config.population)
    seed = config.seed if config.seed is not None else spec.seed
    if config.seed is not None:
        spec = dataclasses.replace(spec, seed=config.seed)
    design = spec.design
    frames = generate_population(spec)
    pop = combine([summarize_stratum(f, n) for f, n in zip(frames, design)])
    m, md = _moment_sets(pop)
    specs = _resolve_estimators(config, pop, m, md)

    result = monte_carlo(frames, design, specs, config.replications, seed)
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
    headers = ("estimator", "replications", "accepted", "rejected",
               "empirical_mean", "empirical_bias", "empirical_variance",
               "empirical_mse", "theoretical_mse", "ratio")
    rows = [[row[h] for h in headers] for row in result.rows()]
    _emit(config, "simulate", headers, rows)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "moments": cmd_moments,
    "mse": cmd_mse,
    "pre": cmd_pre,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


# ---------------------------------------------------------------------------
# Argument parsing and config merging
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file; explicit flags win on conflict")
    common.add_argument("--input", type=Path, default=None,
                        help="input CSV (summary- or unit-level schema)")
    common.add_argument("--schema", choices=("summary", "units"), default=None,
                        help="input CSV schema (default: summary)")
    common.add_argument("--moments", type=Path, default=None,
                        help="moments JSON document replacing --input")
    common.add_argument("--allocate", type=int, default=None,
                        help="total sample size for unit-level input "
                             "(Neyman-allocated across strata)")
    common.add_argument("--corrections", choices=("off", "auto"), default=None,
                        help="validation repair policy (default: off)")
    common.add_argument("--output-dir", type=Path, default=None,
                        help="directory for rendered artifacts")
    common.add_argument("--format", choices=_FORMATS, default=None,
                        help="table format (default: markdown)")
    common.add_argument("--full-precision", action="store_true", default=None,
                        help="render numbers with 17 significant digits")

    parser = argparse.ArgumentParser(
        prog="stratdual",
        description="Stratified-sampling estimators with two auxiliary "
                    "variables: MSE theory, efficiency tables, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="report data-consistency findings")
    sub.add_parser("moments", parents=[common],
                   help="export moment sets as JSON")
    p_mse = sub.add_parser("mse", parents=[common],
                           help="first-order MSE/PRE table")
    p_mse.add_argument("--estimator", action="append", dest="estimators",
                       metavar="SPEC",
                       help="estimator spec (repeatable), e.g. "
                            "'tracy_product:A=18631.62', 'dual_family:opt'")
    sub.add_parser("pre", parents=[common],
                   help="canonical efficiency table with the dual-family optimum")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="theta sweep of the transformed product-with-z MSE")
    p_sweep.add_argument("--grid", default=None, metavar="START:STOP:STEP|V1,V2,...",
                         help="theta grid (default 0.8:2.4:0.1)")
    sub.add_parser("optimize", parents=[common],
                   help="closed-form optimal parameters and their MSEs")
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="Monte Carlo empirical-vs-theory comparison")
    p_sim.add_argument("--population", type=Path, default=None,
                       help="population spec JSON")
    p_sim.add_argument("--replications", type=int, default=None,
                       help="number of Monte Carlo replications "
                            f"(default {DEFAULT_REPLICATIONS})")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the population spec's seed")
    p_sim.add_argument("--estimator", action="append", dest="estimators",
                       metavar="SPEC", help="estimator spec (repeatable)")
    return parser


def _parse_grid(text: str) -> dict:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid {text!r}; expected START:STOP:STEP")
        start, stop, step = (float(p) for p in parts)
        return {"start": start, "stop": stop, "step": step}
    return {"values": [float(p) for p in text.split(",")]}


def _json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; a precise ``ValueError`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must hold a JSON object, not {value!r:.40}")
    return value


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file (if any) under the explicitly given flags."""
    file_cfg: dict = {}
    if getattr(args, "config", None) is not None:
        with Path(args.config).open() as fh:
            file_cfg = _json_object(json.load(fh), f"config file {args.config}")
    sim_cfg = _json_object(file_cfg.get("simulate", {}), "config key 'simulate'")

    def pick(flag, key, default, transform=lambda v: v):
        if flag is not None:
            return flag
        if key is not None and key in file_cfg:
            return transform(file_cfg[key])
        return default

    estimators = getattr(args, "estimators", None)
    if estimators is None and "estimators" in file_cfg:
        estimators = tuple(file_cfg["estimators"])
    elif estimators is not None:
        estimators = tuple(estimators)

    sweep = None
    grid_flag = getattr(args, "grid", None)
    if grid_flag is not None:
        sweep = _parse_grid(grid_flag)
    elif "sweep" in file_cfg:
        sweep = dict(_json_object(file_cfg["sweep"], "config key 'sweep'"))

    population = getattr(args, "population", None)
    if population is None and "population" in sim_cfg:
        population = Path(sim_cfg["population"])
    replications = getattr(args, "replications", None)
    if replications is None:
        replications = int(sim_cfg.get("replications", DEFAULT_REPLICATIONS))
    seed = getattr(args, "seed", None)
    if seed is None and "seed" in sim_cfg:
        seed = int(sim_cfg["seed"])

    return RunConfig(
        command=args.command,
        input=pick(args.input, "input", None, Path),
        schema=pick(args.schema, "schema", "summary"),
        moments=pick(args.moments, "moments", None, Path),
        allocate=pick(args.allocate, "allocate", None, int),
        corrections=pick(args.corrections, "corrections", "off"),
        estimators=estimators,
        sweep=sweep,
        population=population,
        replications=replications,
        seed=seed,
        output_dir=pick(args.output_dir, "output_dir", None, Path),
        format=pick(args.format, "format", "markdown"),
        full_precision=bool(pick(args.full_precision, "full_precision", False)),
    )


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
        return _COMMANDS[config.command](config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
