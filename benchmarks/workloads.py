"""The benchmark workloads and the checks on their outputs.

A workload is built from the benchmark seed alone: it generates its
populations, unit-level CSV and Monte Carlo seeds, resolves ``:opt``
estimators and computes the reference values its checks compare with.
One *round* is one pass over ``labels``; each label is one top-level call
into the library.  Every output is checked; a check returns a list of
failure messages, empty when the output is correct.

Monte Carlo outputs are checked against statistical bands, not pinned bit
for bit, so that a change of random streams with the same distribution
still passes.  CLI outputs on the bundled table are pinned to
``reference.json`` at 1e-9 relative; those on the generated unit-level
CSV are compared, at the same tolerance, with values computed here in
numpy without the library.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

from stratdual import cli, datasets, domain, moments, mse_theory, simulate
from stratdual.estimators import EstimatorSpec

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

#: Relative tolerance of every exact (non-statistical) comparison.
REL_TOL = 1e-9

#: Width of the statistical bands, in standard errors.
SE_BAND = 5.0


def close(got, want, rel=REL_TOL) -> bool:
    """``got`` equals ``want`` to ``rel`` relative (exact zero allowed)."""
    got, want = float(got), float(want)
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _seed_stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def classical_z(ratio: float, draws: int) -> float:
    """Standard score of a classical empirical/theoretical MSE ratio.

    The ratio, a mean of ``draws`` squared errors over their expectation,
    is distributed as chi-square(draws) / draws when the sampling
    distribution is normal.  On the Wilson-Hilferty cube-root scale that
    distribution is close to normal, with mean ``1 - k`` and standard
    error ``sqrt(k)``, ``k = 2 / (9 draws)``.
    """
    k = 2.0 / (9.0 * max(draws, 1))
    return (math.copysign(abs(ratio) ** (1 / 3), ratio) - (1.0 - k)) / math.sqrt(k)


def check_study(result, R: int, expected_mse: dict[str, float],
                mean_x: float) -> list[str]:
    """Checks on one ``monte_carlo`` result.

    ``expected_mse`` maps each estimator label to ``mse_first_order`` on
    the realized population.  The classical first-order MSE is exact, so
    its empirical/theoretical ratio must lie within ``SE_BAND`` standard
    errors of its mean (see :func:`classical_z`).  The dual-transformed
    x-mean is design-unbiased for the population x-mean, so it must lie
    within ``SE_BAND`` reported standard errors.
    """
    failures = []
    if result.R != R:
        failures.append(f"R={result.R}, expected {R}")
    labels = [row.spec.label for row in result.results]
    if labels != list(expected_mse):
        failures.append(f"estimators {labels}, expected {list(expected_mse)}")
    for row in result.results:
        label = row.spec.label
        if row.accepted + row.rejected != R or row.replications != R:
            failures.append(f"{label}: accepted {row.accepted} + rejected "
                            f"{row.rejected} != R={R}")
        aggregates = (row.empirical_mean, row.empirical_bias,
                      row.empirical_variance, row.empirical_mse,
                      row.theoretical_mse, row.ratio)
        if not all(math.isfinite(v) for v in aggregates):
            failures.append(f"{label}: non-finite aggregate {aggregates}")
        want = expected_mse.get(label)
        if want is not None and not close(row.theoretical_mse, want):
            failures.append(f"{label}: theoretical_mse {row.theoretical_mse!r}"
                            f" != mse_first_order {want!r}")
        if row.spec.kind == "classical":
            z = classical_z(row.ratio, row.accepted)
            if not abs(z) <= SE_BAND:
                failures.append(f"classical MSE ratio {row.ratio:.5f} is "
                                f"{z:.2f} se from its mean (band {SE_BAND})")
    if result.xstar_mean is None or result.xstar_se is None:
        failures.append("xstar_mean not reported")
    elif not abs(result.xstar_mean - mean_x) <= SE_BAND * result.xstar_se:
        failures.append(f"xstar_mean {result.xstar_mean!r} is more than "
                        f"{SE_BAND} se ({result.xstar_se!r}) from the "
                        f"population x-mean {mean_x!r}")
    return failures


class MonteCarloWorkload:
    """Repeated ``monte_carlo`` studies on one generated population.

    Each call is one study with a fresh seed; its units are replications.
    A traced run traces ``traced_rounds`` studies, a fixed amount of work.
    """

    labels = ("study",)
    call_metric_prefix = None
    R: int
    traced_rounds: int

    def __init__(self, seed: int) -> None:
        spec = self.population_spec(int(_seed_stream(seed, 0).integers(2**32)))
        self.frames = self.adjust(simulate.generate_population(spec))
        self.design = spec.design
        pop = domain.combine([domain.summarize_stratum(f, n)
                              for f, n in zip(self.frames, self.design)])
        m = moments.compute_moments(pop)
        md = moments.compute_dual_moments(pop)
        self.specs = self.estimators(pop, m, md)
        self.expected_mse = {
            s.label: mse_theory.mse_first_order(s, pop, m, md).mse
            for s in self.specs
        }
        self.mean_x = pop.mean_x
        self._seeds = _seed_stream(seed, 1)
        self._classical = []  # (ratio, accepted) of every checked study

    def population_spec(self, pop_seed: int) -> simulate.PopulationSpec:
        raise NotImplementedError

    def adjust(self, frames):
        return frames

    def estimators(self, pop, m, md) -> list[EstimatorSpec]:
        raise NotImplementedError

    def call(self, label: str):
        study_seed = int(self._seeds.integers(2**63))
        return simulate.monte_carlo(self.frames, self.design, self.specs,
                                    self.R, study_seed)

    def units(self, label: str, output) -> int:
        return output.R

    def check(self, label: str, output) -> list[str]:
        self._classical += [(row.ratio, row.accepted) for row in output.results
                            if row.spec.kind == "classical"]
        return check_study(output, self.R, self.expected_mse, self.mean_x)

    def final_check(self) -> list[str]:
        """The classical ratio pooled over every study checked so far.

        One study of a few hundred draws only detects gross errors; the
        pooled ratio, over all draws of a run, detects a few per cent.
        """
        draws = sum(n for _, n in self._classical)
        if not draws:
            return []
        pooled = sum(r * n for r, n in self._classical) / draws
        z = classical_z(pooled, draws)
        if abs(z) <= SE_BAND:
            return []
        return [f"classical MSE ratio pooled over {draws} draws {pooled:.5f} "
                f"is {z:.2f} se from its mean (band {SE_BAND})"]

    def estimates(self, output) -> tuple[int, int]:
        """(accepted, attempted) estimates of one study."""
        accepted = sum(row.accepted for row in output.results)
        return accepted, output.R * len(output.results)


class McSampling(MonteCarloWorkload):
    """Three large strata (N=2000, n=200), ``classical`` only.

    The population follows the generator targets of ACCEPTANCE 5, so the
    time goes to drawing samples and to the per-replication loop.  Each
    study has the R of the smaller run of the classical-ratio convergence
    test (``tests/test_simulate.py``); ACCEPTANCE 5 runs one study of
    ten times that.
    """

    R = 5000
    traced_rounds = 8

    def population_spec(self, pop_seed):
        rho = (0.9, 0.6, 0.5)
        strata = tuple(
            simulate.StratumSpec(stratum_id=sid, N=2000, n=200, mu=mu,
                                 sigma=sigma, rho=rho)
            for sid, mu, sigma in (
                ("a", (180.0, 3600.0, 130.0), (21.6, 432.0, 19.5)),
                ("b", (200.0, 4000.0, 120.0), (24.0, 480.0, 18.0)),
                ("c", (220.0, 4400.0, 110.0), (26.4, 528.0, 16.5)),
            )
        )
        return simulate.PopulationSpec(strata=strata, seed=pop_seed)

    def estimators(self, pop, m, md):
        return [EstimatorSpec(kind="classical")]


#: Fractional (alpha1, alpha2) exponents of the dual-family sweep.
DUAL_GRID = tuple((a1, a2) for a1 in (0.25, 0.75)
                  for a2 in (-0.75, -0.25, 0.25, 0.75, 1.25))

#: Target z-mean of each grid-workload stratum; z has spread 10.
GRID_Z_MEAN = {"p": 3.0, "q": 2.5}


class McEstimatorGrid(MonteCarloWorkload):
    """Two small strata with high sampling fractions, 18 estimators a draw.

    The z-mean sits near zero relative to its spread, so the
    dual-transformed z-mean is sometimes negative and the fractional
    exponents reject a few per cent of draws.  The generated z values
    are recentred on their target means, which keeps that rejection rate
    from drifting with the seed.
    """

    R = 200
    traced_rounds = 100

    def population_spec(self, pop_seed):
        rho = (0.8, -0.5, -0.4)
        strata = (
            simulate.StratumSpec(stratum_id="p", N=60, n=40,
                                 mu=(50.0, 100.0, GRID_Z_MEAN["p"]),
                                 sigma=(10.0, 15.0, 10.0), rho=rho),
            simulate.StratumSpec(stratum_id="q", N=40, n=30,
                                 mu=(60.0, 120.0, GRID_Z_MEAN["q"]),
                                 sigma=(12.0, 18.0, 10.0), rho=rho),
        )
        return simulate.PopulationSpec(strata=strata, seed=pop_seed)

    def adjust(self, frames):
        return [dataclasses.replace(
                    f, z=f.z - f.z.mean() + GRID_Z_MEAN[f.stratum_id])
                for f in frames]

    def estimators(self, pop, m, md):
        _, A_opt, _ = mse_theory.optimize_theta(pop, m)
        a1_opt, a2_opt, _ = mse_theory.optimize_alphas(md, pop)
        fixed = [
            EstimatorSpec(kind="classical"),
            EstimatorSpec(kind="combined_ratio"),
            EstimatorSpec(kind="combined_product"),
            EstimatorSpec(kind="transformed_product",
                          A=mse_theory.A_of_theta(pop, 1.0)),
            EstimatorSpec(kind="ratio_cum_product"),
            EstimatorSpec(kind="tracy_product", A=A_opt),
            EstimatorSpec(kind="plikusas_dual"),
            EstimatorSpec(kind="dual_family", alpha1=a1_opt, alpha2=a2_opt),
        ]
        return fixed + [EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2)
                        for a1, a2 in DUAL_GRID]


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

#: Fine theta grid of the ``sweep`` command, with the 0.1 steps of
#: ACCEPTANCE 3 on it, and the 2561 thetas it must print.
SWEEP_GRID = "0.8:2.4:0.000625"
SWEEP_THETA = 0.8 + 0.000625 * np.arange(2561)

#: Stratum sizes of the generated unit-level CSV (those of the bundled
#: table, 923 units) and the total sample allocated across them.
UNITS_N = (127, 117, 103, 170, 205, 201)
UNITS_ALLOCATE = 180

#: Relative moment ``v_rst`` by the pair of variables (0 y, 1 x, 2 z) whose
#: covariance it scales.
MOMENT_INDEX = {"v200": (0, 0), "v020": (1, 1), "v002": (2, 2),
                "v110": (0, 1), "v101": (0, 2), "v011": (1, 2)}


def _rows_match(rows, reference, keys) -> list[str]:
    failures = []
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, expected {len(reference)}"]
    for i, (row, want) in enumerate(zip(rows, reference)):
        if row.get("estimator") != want["estimator"]:
            failures.append(f"row {i}: estimator {row.get('estimator')!r}, "
                            f"expected {want['estimator']!r}")
        for key in keys:
            if not close(row[key], want[key]):
                failures.append(f"row {i} {want['estimator']}: {key} "
                                f"{row[key]!r} != {want[key]!r}")
    return failures


def check_validate(rows, reference=REFERENCE) -> list[str]:
    found = {(r["severity"], str(r["stratum_id"]), r["code"]) for r in rows}
    required = {tuple(item) for item in reference["validate_required"]}
    failures = [f"missing finding {item}" for item in sorted(required - found)]
    failures += [f"unexpected error finding {item}"
                 for item in sorted(found - required) if item[0] == "error"]
    return failures


def check_moments(doc, reference=REFERENCE) -> list[str]:
    failures = []
    for group in ("moments", "dual_moments"):
        for key, want in reference[group].items():
            if not close(doc[group][key], want):
                failures.append(f"{group}.{key} {doc[group][key]!r} != {want!r}")
    for key, want in reference["means"].items():
        if not close(doc[key], want):
            failures.append(f"{key} {doc[key]!r} != {want!r}")
    return failures


def check_optimize(rows, reference=REFERENCE) -> list[str]:
    got = {row["parameter"]: row["value"] for row in rows}
    want = reference["optimize"]
    if set(got) != set(want):
        return [f"parameters {sorted(got)}, expected {sorted(want)}"]
    return [f"{key} {got[key]!r} != {want[key]!r}"
            for key in want if not close(got[key], want[key])]


def check_sweep(rows, reference=REFERENCE) -> list[str]:
    """Every sweep row against the tracy-product form on pinned moments."""
    opt = reference["optimize"]
    starred = [row for row in rows if row["note"] == "*"]
    grid = [row for row in rows if row["note"] != "*"]
    failures = []
    if len(grid) != len(SWEEP_THETA) or len(starred) != 1:
        return [f"{len(grid)} grid rows and {len(starred)} optimum rows, "
                f"expected {len(SWEEP_THETA)} and 1"]
    star = starred[0]
    for key, want in (("theta", opt["theta_opt"]), ("A", opt["A_opt"]),
                      ("mse", opt["mse_tracy_product_min"])):
        if not close(star[key], want):
            failures.append(f"optimum row {key} {star[key]!r} != {want!r}")
    theta = np.array([row["theta"] for row in grid])
    A = np.array([row["A"] for row in grid])
    mse = np.array([row["mse"] for row in grid])
    if not np.allclose(theta, SWEEP_THETA, rtol=0.0, atol=1e-12):
        failures.append(f"theta column off the {SWEEP_GRID} grid")
    v, means = reference["moments"], reference["means"]
    want_A = means["mean_x"] * (1.0 + theta) / theta
    want_mse = means["mean_y"] ** 2 * (
        v["v200"] + theta**2 * v["v020"] + v["v002"]
        - 2.0 * (theta * v["v110"] - v["v101"] + theta * v["v011"]))
    for name, got, want in (("A", A, want_A), ("mse", mse, want_mse)):
        bad = np.flatnonzero(np.abs(got - want) > REL_TOL * np.abs(want))
        if bad.size:
            i = int(bad[0])
            failures.append(f"{bad.size} rows with {name} off; first theta "
                            f"{theta[i]!r}: {got[i]!r} != {want[i]!r}")
    var = opt["var_classical"]
    clear = np.abs(mse - var) > REL_TOL * var
    labels = np.array([row["vs_classical"] for row in grid])
    expected = np.where(mse < var, "better", "worse")
    if np.any(labels[clear] != expected[clear]):
        failures.append("vs_classical column disagrees with the mse column")
    return failures


def neyman_sizes(N, s_y, total: int) -> list[int]:
    """Neyman allocation ``n_h ~ N_h s_h`` rounded by largest remainder.

    Only the case the workload needs: every floor is at least 1 and no
    stratum reaches its size, so the shortfall is handed out one unit
    each to the strata with the largest remainders.
    """
    raw = total * N * s_y / np.sum(N * s_y)
    sizes = np.floor(raw).astype(int)
    short = total - int(sizes.sum())
    sizes[np.argsort(-(raw - sizes), kind="stable")[:short]] += 1
    if np.any(sizes < 1) or np.any(sizes >= N) or sizes.sum() != total:
        raise ValueError(f"allocation {sizes} of {total} outside the simple case")
    return sizes.tolist()


def units_reference(strata, total: int) -> list[dict]:
    """The ``mse --schema units --allocate total`` rows, in numpy alone.

    ``strata`` holds one ``(y, x, z)`` triple of unit arrays per stratum.
    Stratum (co)variances use divisor ``N_h - 1``; sizes come from
    :func:`neyman_sizes`; each estimator's first-order MSE is
    ``mean_y**2`` times its quadratic form in the relative moments, and
    the tracy-product and dual-family rows sit at the stationary points
    of their forms.
    """
    N = np.array([len(y) for y, _, _ in strata], dtype=float)
    data = [np.vstack(triple) for triple in strata]
    means = np.array([d.mean(axis=1) for d in data])       # (L, 3): y, x, z
    cov = np.array([np.cov(d, ddof=1) for d in data])      # (L, 3, 3)
    n = np.array(neyman_sizes(N, np.sqrt(cov[:, 0, 0]), total), dtype=float)
    w = N / N.sum()
    gamma = w**2 * (1.0 / n - 1.0 / N)
    g = n / (N - n)
    bar = w @ means
    rel = cov / np.multiply.outer(bar, bar)                 # S_ab / (A B)
    v = {key: float(gamma @ rel[:, a, b]) for key, (a, b) in MOMENT_INDEX.items()}
    sign = {"v200": 1.0, "v020": g**2, "v002": g**2, "v110": -g, "v101": -g,
            "v011": g**2}
    vd = {key: float((gamma * sign[key]) @ rel[:, a, b])
          for key, (a, b) in MOMENT_INDEX.items()}

    def tracy(t):
        return (v["v200"] + t**2 * v["v020"] + v["v002"]
                - 2.0 * t * v["v110"] + 2.0 * v["v101"] - 2.0 * t * v["v011"])

    def dual(a1, a2):
        return (v["v200"] + a1**2 * vd["v020"] + a2**2 * vd["v002"]
                + 2.0 * a1 * vd["v110"] - 2.0 * a2 * vd["v101"]
                - 2.0 * a1 * a2 * vd["v011"])

    a1, a2 = np.linalg.solve([[vd["v020"], -vd["v011"]],
                              [-vd["v011"], vd["v002"]]],
                             [-vd["v110"], vd["v101"]])
    forms = {
        "classical": v["v200"],
        "combined_ratio": v["v200"] + v["v020"] - 2.0 * v["v110"],
        "combined_product": v["v200"] + v["v002"] + 2.0 * v["v101"],
        "ratio_cum_product": (v["v200"] + v["v020"] + v["v002"]
                              + 2.0 * (v["v101"] - v["v110"] - v["v011"])),
        "tracy_product": tracy((v["v110"] + v["v011"]) / v["v020"]),
        "plikusas_dual": dual(1.0, 1.0),
        "dual_family": dual(float(a1), float(a2)),
    }
    return [{"estimator": kind, "mse": bar[0]**2 * form,
             "pre": 100.0 * v["v200"] / form} for kind, form in forms.items()]


class CliSession:
    """An analyst's closed loop through every table command of the CLI.

    Each call is one in-process ``stratdual.cli.main(argv)`` with JSON
    output and captured streams; its unit is one command.  A traced run
    traces ``traced_rounds`` passes through the commands.
    """

    labels = ("validate", "moments", "mse", "pre", "optimize", "sweep",
              "mse_units")
    call_metric_prefix = "cli"
    traced_rounds = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        units_csv = workdir / f"units_seed{seed}.csv"
        self.expected_units = self._write_units(seed, units_csv)
        printed = str(datasets.demo_path(corrected=False))
        corrected = str(datasets.demo_path(corrected=True))
        fmt = ["--format", "json"]
        self.argv = {
            "validate": ["validate", "--input", printed,
                         "--corrections", "auto", *fmt],
            "moments": ["moments", "--input", corrected, *fmt],
            "mse": ["mse", "--input", corrected, *fmt],
            "pre": ["pre", "--input", corrected, *fmt],
            "optimize": ["optimize", "--input", corrected, *fmt],
            "sweep": ["sweep", "--input", corrected, "--grid", SWEEP_GRID, *fmt],
            "mse_units": ["mse", "--input", str(units_csv), "--schema", "units",
                          "--allocate", str(UNITS_ALLOCATE), *fmt],
        }

    @staticmethod
    def _write_units(seed: int, path: Path) -> list[dict]:
        """Write a generated six-stratum unit-level CSV.

        Stratum means follow the bundled table, with 40 % coefficients of
        variation.  Returns the rows ``mse --schema units`` must print,
        computed by :func:`units_reference` from the values written.
        """
        table = {s.stratum_id: s for s in datasets.demo_strata()}
        strata = tuple(
            simulate.StratumSpec(
                stratum_id=sid, N=N,
                mu=(s.mean_y, s.mean_x, s.mean_z),
                sigma=(0.4 * s.mean_y, 0.4 * s.mean_x, 0.4 * s.mean_z),
                rho=(0.9, 0.9, 0.85))
            for N, (sid, s) in zip(UNITS_N, table.items())
        )
        spec = simulate.PopulationSpec(
            strata=strata, seed=int(_seed_stream(seed, 2).integers(2**32)))
        frames = simulate.generate_population(spec)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(domain.UNITS_COLUMNS)
            for f in frames:
                for y, x, z in zip(f.y.tolist(), f.x.tolist(), f.z.tolist()):
                    writer.writerow((f.stratum_id, repr(y), repr(x), repr(z)))

        return units_reference([(f.y, f.x, f.z) for f in frames],
                               UNITS_ALLOCATE)

    def call(self, label: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv[label])
        return code, out.getvalue(), err.getvalue()

    def units(self, label: str, output) -> int:
        return 1

    def check(self, label: str, output) -> list[str]:
        code, stdout, stderr = output
        if code != 0:
            return [f"{label}: exit status {code}: {stderr.strip()[-300:]}"]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"{label}: stdout is not JSON: {exc}"]
        try:
            failures = self._check_doc(label, doc)
        except (KeyError, TypeError, ValueError) as exc:
            failures = [f"malformed output: {exc!r}"]
        return [f"{label}: {msg}" for msg in failures]

    def _check_doc(self, label: str, doc) -> list[str]:
        if label == "validate":
            return check_validate(doc)
        if label == "moments":
            return check_moments(doc)
        if label == "mse":
            return _rows_match(doc, REFERENCE["mse"], ("mse", "pre"))
        if label == "pre":
            return _rows_match(doc, REFERENCE["pre"], ("alpha1", "alpha2", "pre"))
        if label == "optimize":
            return check_optimize(doc)
        if label == "sweep":
            return check_sweep(doc)
        return _rows_match(doc, self.expected_units, ("mse", "pre"))

    def estimates(self, output) -> tuple[int, int]:
        return 0, 0

    def final_check(self) -> list[str]:
        return []


WORKLOADS = {
    "mc_sampling": McSampling,
    "mc_estimator_grid": McEstimatorGrid,
    "cli_session": CliSession,
}


def build(name: str, seed: int, workdir: Path):
    """Set up workload ``name`` for ``seed``; generated files go to ``workdir``."""
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliSession else cls(seed)
