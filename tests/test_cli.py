"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratdual.cli import (
    RunConfig, build_parser, main, merge_config, render_table,
)
from stratdual.datasets import demo_path
from test_domain import make_summary
from stratdual import (
    A_of_theta,
    EstimatorSpec,
    compute_moments,
    mse_first_order,
    optimize_theta,
    var_yst,
    write_summary_csv,
)

CORRECTED = str(demo_path(corrected=True))
PRINTED = str(demo_path(corrected=False))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out):
    return json.loads(out)


@pytest.fixture()
def units_csv(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(
        "stratum_id,y,x,z\n"
        "a,10,100,50\n"
        "a,14,130,44\n"
        "a,12,110,48\n"
        "a,16,150,41\n"
        "b,20,200,60\n"
        "b,24,230,54\n"
        "b,22,215,57\n"
        "b,28,260,47\n"
    )
    return str(path)


@pytest.fixture()
def population_json(tmp_path):
    doc = {
        "seed": 7,
        "strata": [
            {"stratum_id": "a", "N": 30, "n": 6,
             "mu": [100, 50, 80], "sigma": [10, 5, 8],
             "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}},
            {"stratum_id": "b", "N": 40, "n": 8,
             "mu": [120, 60, 70], "sigma": [12, 6, 7],
             "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}},
        ],
    }
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_bundled_corrected_fixture_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [r["code"] for r in rows] == ["rho_mismatch"]
        assert rows[0]["severity"] == "warning"
        assert rows[0]["stratum_id"] == "5"

    def test_bundled_printed_fixture_blocks(self, capsys):
        code, out, err = run(capsys, "validate", "--input", PRINTED,
                             "--format", "json")
        assert code == 1
        codes = [r["code"] for r in json_rows(out)]
        assert "impossible_covariance" in codes
        assert "blocking error" in err

    def test_corrections_auto_repairs_printed_fixture(self, capsys):
        code, out, err = run(capsys, "validate", "--input", PRINTED,
                             "--corrections", "auto", "--format", "json")
        assert code == 0
        assert "applied corrections" in err
        codes = [r["code"] for r in json_rows(out)]
        assert "decimal_shift" in codes

    def test_requires_input(self, capsys):
        code, out, err = run(capsys, "validate")
        assert code == 1
        assert err.startswith("error:")


class TestMoments:
    def test_document_structure(self, capsys):
        code, out, err = run(capsys, "moments", "--input", CORRECTED)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["moments"]) >= {"v200", "v020", "v002",
                                       "v110", "v101", "v011"}
        assert doc["dual_moments"]["dual"] is True
        assert doc["mean_y"] == pytest.approx(436.433022751896, rel=1e-12)

    def test_writes_json_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, out, err = run(capsys, "moments", "--input", CORRECTED,
                             "--output-dir", str(out_dir))
        assert code == 0
        saved = (out_dir / "moments.json").read_text()
        assert saved == out


class TestMse:
    def test_default_estimator_table(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [r["estimator"] for r in rows] == [
            "classical", "combined_ratio", "combined_product",
            "ratio_cum_product", "tracy_product", "plikusas_dual",
            "dual_family",
        ]
        byname = {r["estimator"]: r for r in rows}
        assert byname["classical"]["pre"] == pytest.approx(100.0)
        assert byname["combined_ratio"]["mse"] == pytest.approx(
            241.15175125811226, rel=1e-12)
        assert byname["tracy_product"]["params"].startswith("A=18981.8")
        assert byname["dual_family"]["mse"] == pytest.approx(
            267.4810870350276, rel=1e-12)

    def test_repeated_flag_does_not_leak_into_the_next_call(self, capsys):
        # main() reuses one parser per process; an --estimator list from
        # one call must not survive into the next.
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--estimator", "classical", "--format", "json")
        assert code == 0
        assert [r["estimator"] for r in json_rows(out)] == ["classical"]
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        assert len(json_rows(out)) == 7

    def test_explicit_estimator_flags(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--estimator", "dual_family:a1=1,a2=1",
                             "--estimator", "plikusas_dual",
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 2
        assert rows[0]["mse"] == pytest.approx(rows[1]["mse"], rel=1e-15)
        assert rows[0]["mse"] == pytest.approx(1858.8863086336705, rel=1e-12)

    def test_census_input_drops_dual_estimators(self, capsys, tmp_path):
        path = tmp_path / "census.csv"
        write_summary_csv(path, [make_summary(stratum_id="1"),
                                 make_summary(stratum_id="2", n=20)])
        code, out, err = run(capsys, "mse", "--input", str(path),
                             "--format", "json")
        assert code == 0
        kinds = [r["estimator"] for r in json_rows(out)]
        assert "plikusas_dual" not in kinds
        assert "dual_family" not in kinds
        assert "tracy_product" in kinds
        assert "skipping dual estimators" in err

    def test_unknown_estimator_is_an_error(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--estimator", "bogus_kind")
        assert code == 1
        assert "error:" in err


class TestPre:
    def test_efficiency_table_golden_values(self, capsys):
        code, out, err = run(capsys, "pre", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [(r["estimator"], r["alpha1"], r["alpha2"])
                for r in rows[:4]] == [
            ("classical", 0, 0),
            ("combined_ratio", 1, 0),
            ("ratio_cum_product", 1, 1),
            ("plikusas_dual", 1, 1),
        ]
        pres = [r["pre"] for r in rows]
        assert pres[0] == pytest.approx(100.0)
        assert pres[1] == pytest.approx(924.1152586305793, rel=1e-12)
        assert pres[2] == pytest.approx(173.84386047372354, rel=1e-12)
        assert pres[3] == pytest.approx(119.88469222031632, rel=1e-12)
        opt = rows[4]
        assert opt["estimator"] == "dual_family:opt"
        assert opt["alpha1"] == pytest.approx(0.6088536732633183, rel=1e-12)
        assert opt["alpha2"] == pytest.approx(-3.922981837318862, rel=1e-12)
        assert opt["pre"] == pytest.approx(833.1505432902786, rel=1e-12)

    def test_moments_document_round_trip(self, capsys, tmp_path):
        # The pre table computed from an exported moments document must
        # match the table computed from the raw fixture.
        out_dir = tmp_path / "artifacts"
        code, direct, _ = run(capsys, "pre", "--input", CORRECTED,
                              "--format", "json")
        assert code == 0
        code, _, _ = run(capsys, "moments", "--input", CORRECTED,
                         "--output-dir", str(out_dir))
        assert code == 0
        code, from_doc, _ = run(capsys, "pre", "--moments",
                                str(out_dir / "moments.json"),
                                "--format", "json")
        assert code == 0
        direct_rows = json_rows(direct)
        doc_rows = json_rows(from_doc)
        for a, b in zip(direct_rows, doc_rows):
            assert a["estimator"] == b["estimator"]
            assert a["pre"] == pytest.approx(b["pre"], rel=1e-12)


class TestSweep:
    def test_default_grid_with_optimum_row(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 18
        thetas = [r["theta"] for r in rows]
        assert thetas == sorted(thetas)
        starred = [r for r in rows if r["note"] == "*"]
        assert len(starred) == 1
        assert starred[0]["theta"] == pytest.approx(
            1.5170454051701316, rel=1e-12)
        assert starred[0]["mse"] == pytest.approx(
            611.6825813791314, rel=1e-12)
        at_one = next(r for r in rows if abs(r["theta"] - 1.0) < 1e-12)
        assert at_one["mse"] == pytest.approx(1281.9090209791536, rel=1e-12)
        labels = {r["vs_classical"] for r in rows}
        assert labels == {"better", "worse"}

    def test_explicit_range_grid(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "1.0:2.0:0.5", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 4
        grid = [r["theta"] for r in rows if r["note"] != "*"]
        assert grid == pytest.approx([1.0, 1.5, 2.0])

    def test_explicit_value_list_is_sorted_with_optimum(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "2.0,1.0", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [round(r["theta"], 4) for r in rows] == [1.0, 1.517, 2.0]
        assert rows[1]["note"] == "*"

    def test_rejects_zero_in_grid(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "0.0:1.0:0.5")
        assert code == 1
        assert "theta = 0" in err

    def test_rejects_backwards_range(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "2.0:1.0:0.1")
        assert code == 1
        assert "start" in err

    @pytest.mark.parametrize("grid, entry", [
        ("1.0,nan", "nan"), ("1.0,inf", "inf"), ("1.0,-inf", "-inf"),
        ("1.0:inf:0.1", "inf"), ("nan:2.0:0.1", "nan"),
    ])
    def test_rejects_non_finite_grid_entry(self, capsys, grid, entry):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", grid)
        assert code == 1
        assert out == ""
        assert f" {entry} is not finite" in err

    @pytest.mark.parametrize("grid, count", [
        ("1:2:1e-15", "1000000000000001"), ("1:2:1e-320", "inf"),
        ("0:1000000:1", "1000001"),
    ])
    def test_rejects_range_grid_over_the_point_limit(self, capsys, grid,
                                                    count):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", grid)
        assert code == 1
        assert out == ""
        assert (f"error: sweep grid of {count} points exceeds the limit of "
                "1000000") in err
        assert "Traceback" not in err

    def test_rejects_theta_whose_A_overflows(self, capsys):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "1.0,1e-320")
        assert code == 1
        assert out == ""
        assert "theta = 1e-320 gives a non-finite transform constant" in err
        assert "Warning" not in err

    def test_fine_grid_rows_equal_the_scalar_path(self, capsys,
                                                  corrected_pop, corrected_m):
        # The array sweep gives each row the bits of A_of_theta and
        # mse_first_order called on that row alone.
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", "0.8:2.4:0.000625", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        grid = [r for r in rows if r["note"] != "*"]
        starred = [r for r in rows if r["note"] == "*"]
        assert len(grid) == 2561 and len(starred) == 1
        pop, m = corrected_pop, corrected_m
        baseline = var_yst(pop, m)
        for k, row in enumerate(grid):
            assert row["theta"] == 0.8 + k * 0.000625
            assert row["A"] == A_of_theta(pop, row["theta"])
            spec = EstimatorSpec(kind="tracy_product", A=row["A"])
            assert row["mse"] == mse_first_order(spec, pop, m).mse
            assert row["vs_classical"] == (
                "better" if row["mse"] < baseline else "worse")
        theta_opt, A_opt, mse_min = optimize_theta(pop, m)
        assert starred[0] == {"theta": theta_opt, "A": A_opt, "mse": mse_min,
                              "vs_classical": "better", "note": "*"}
        at = rows.index(starred[0])
        assert rows[at - 1]["theta"] <= theta_opt < rows[at + 1]["theta"]


class TestOptimize:
    def test_parameter_table_golden_values(self, capsys):
        code, out, err = run(capsys, "optimize", "--input", CORRECTED,
                             "--format", "json")
        assert code == 0
        rows = json_rows(out)
        values = {r["parameter"]: r["value"] for r in rows}
        assert list(values) == [
            "var_classical", "theta_opt", "A_opt",
            "mse_tracy_product_min", "pre_tracy_product_opt",
            "alpha1_opt", "alpha2_opt", "mse_dual_family_min",
            "pre_dual_family_opt", "bias_dual_family_opt",
        ]
        expected = {
            "var_classical": 2228.5201298310753,
            "theta_opt": 1.5170454051701316,
            "A_opt": 18981.80109960682,
            "mse_tracy_product_min": 611.6825813791314,
            "pre_tracy_product_opt": 364.3262367887831,
            "alpha1_opt": 0.6088536732633183,
            "alpha2_opt": -3.922981837318862,
            "mse_dual_family_min": 267.4810870350276,
            "pre_dual_family_opt": 833.1505432902786,
            "bias_dual_family_opt": -2.765965850704165,
        }
        for key, want in expected.items():
            assert values[key] == pytest.approx(want, rel=1e-12), key


class TestOptimumRowsAgree:
    """The tracy-product optimum is one value in every command."""

    @pytest.mark.parametrize("path,corrections", [
        (CORRECTED, "off"), (CORRECTED, "auto"), (PRINTED, "auto")])
    def test_mse_optimize_and_sweep_rows_are_bit_equal(self, capsys, path,
                                                       corrections):
        common = ("--input", path, "--corrections", corrections,
                  "--format", "json")
        code, out, _ = run(capsys, "mse", "--estimator", "tracy_product:opt",
                           *common)
        assert code == 0
        row, = json_rows(out)
        code, out, _ = run(capsys, "optimize", *common)
        assert code == 0
        values = {r["parameter"]: r["value"] for r in json_rows(out)}
        code, out, _ = run(capsys, "sweep", *common)
        assert code == 0
        star, = [r for r in json_rows(out) if r["note"] == "*"]
        assert row["mse"] == values["mse_tracy_product_min"] == star["mse"]
        assert row["pre"] == values["pre_tracy_product_opt"]
        assert star["theta"] == values["theta_opt"]
        assert star["A"] == values["A_opt"]


class TestSimulate:
    def test_small_run_writes_artifact(self, capsys, tmp_path,
                                       population_json):
        out_dir = tmp_path / "artifacts"
        code, out, err = run(capsys, "simulate",
                             "--population", population_json,
                             "--replications", "200",
                             "--format", "csv",
                             "--output-dir", str(out_dir))
        assert code == 0
        assert "true mean_y = " in err
        assert "mean xstar_st" in err
        saved = (out_dir / "simulate.csv").read_text()
        assert saved == out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        assert all(int(r["replications"]) == 200 for r in rows)

    def test_seed_override_changes_draws(self, capsys, population_json):
        args = ("simulate", "--population", population_json,
                "--replications", "50", "--estimator", "classical",
                "--format", "json")
        code, base, _ = run(capsys, *args)
        assert code == 0
        code, repeat, _ = run(capsys, *args)
        assert repeat == base
        code, reseeded, _ = run(capsys, *args, "--seed", "99")
        assert code == 0
        assert json_rows(reseeded)[0]["empirical_mean"] != \
            json_rows(base)[0]["empirical_mean"]

    def test_requires_population(self, capsys):
        code, out, err = run(capsys, "simulate")
        assert code == 1
        assert "population" in err

    def test_census_run_without_estimators_prints_the_header(
            self, capsys, tmp_path, population_json):
        spec = json.loads((tmp_path / "pop.json").read_text())
        spec["strata"][0]["n"] = spec["strata"][0]["N"]
        census = tmp_path / "census.json"
        census.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--population", str(census),
                             "--replications", "20",
                             "--estimator", "plikusas_dual", "--format", "csv")
        assert code == 0
        assert out == ("estimator,replications,accepted,rejected,"
                       "empirical_mean,empirical_bias,empirical_variance,"
                       "empirical_mse,theoretical_mse,ratio\n")
        assert "skipping dual estimators" in err


class TestUnitsSchema:
    def test_units_input_with_allocation(self, capsys, units_csv):
        code, out, err = run(capsys, "mse", "--input", units_csv,
                             "--schema", "units", "--allocate", "4",
                             "--format", "json")
        assert code == 0
        assert len(json_rows(out)) == 7

    def test_units_input_requires_allocate(self, capsys, units_csv):
        code, out, err = run(capsys, "validate", "--input", units_csv,
                             "--schema", "units")
        assert code == 1
        assert "--allocate" in err


#: One option set by flag and by config key, per RunConfig option.
_ROUND_TRIPS = [
    ("mse", ["--input", CORRECTED], {"input": CORRECTED}),
    ("mse", ["--schema", "units"], {"schema": "units"}),
    ("pre", ["--moments", "m.json"], {"moments": "m.json"}),
    ("mse", ["--allocate", "180"], {"allocate": 180}),
    ("validate", ["--corrections", "auto"], {"corrections": "auto"}),
    ("mse", ["--estimator", "classical", "--estimator", "dual_family:opt"],
     {"estimators": ["classical", "dual_family:opt"]}),
    ("sweep", ["--grid", "1:2:0.25"],
     {"sweep": {"start": 1, "stop": 2, "step": 0.25}}),
    ("sweep", ["--grid", "2,1.5"], {"sweep": {"values": [2, 1.5]}}),
    ("simulate", ["--population", "p.json"],
     {"simulate": {"population": "p.json"}}),
    ("simulate", ["--replications", "40"],
     {"simulate": {"replications": 40}}),
    ("simulate", ["--seed", "3"], {"simulate": {"seed": 3}}),
    ("moments", ["--output-dir", "out"], {"output_dir": "out"}),
    ("optimize", ["--format", "csv"], {"format": "csv"}),
    ("pre", ["--full-precision"], {"full_precision": True}),
]


class TestFormatsAndConfig:
    def test_markdown_is_default(self, capsys):
        code, out, err = run(capsys, "pre", "--input", CORRECTED)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| estimator | alpha1 | alpha2 | pre |"
        assert set(lines[1]) <= {"|", "-", " "}
        assert len(lines) == 2 + 5

    def test_csv_round_trips(self, capsys):
        code, out, err = run(capsys, "pre", "--input", CORRECTED,
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["estimator"] for r in rows] == [
            "classical", "combined_ratio", "ratio_cum_product",
            "plikusas_dual", "dual_family:opt",
        ]

    def test_full_precision_round_trips_floats(self, capsys):
        code, brief, _ = run(capsys, "pre", "--input", CORRECTED,
                             "--format", "csv")
        code, full, _ = run(capsys, "pre", "--input", CORRECTED,
                            "--format", "csv", "--full-precision")
        assert code == 0
        brief_cell = list(csv.DictReader(io.StringIO(brief)))[1]["pre"]
        full_cell = list(csv.DictReader(io.StringIO(full)))[1]["pre"]
        assert brief_cell != full_cell
        assert float(full_cell) == 924.1152586305793

    def test_output_dir_writes_named_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, out, err = run(capsys, "pre", "--input", CORRECTED,
                             "--format", "markdown",
                             "--output-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "pre.md").read_text() == out

    def test_config_file_supplies_options(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": CORRECTED, "format": "csv"}))
        code, out, err = run(capsys, "pre", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "estimator,alpha1,alpha2,pre"

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": PRINTED, "format": "csv"}))
        code, out, err = run(capsys, "pre", "--config", str(cfg),
                             "--input", CORRECTED, "--format", "markdown")
        assert code == 0
        assert out.startswith("| estimator |")

    def test_config_simulate_block(self, capsys, tmp_path, population_json):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "format": "json",
            "simulate": {"population": population_json,
                         "replications": 40, "seed": 3},
        }))
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--estimator", "classical")
        assert code == 0
        row, = json_rows(out)
        assert row["replications"] == 40
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--estimator", "classical",
                             "--replications", "25")
        assert code == 0
        row, = json_rows(out)
        assert row["replications"] == 25

    def test_config_that_is_not_an_object_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, out, err = run(capsys, "mse", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: config file {cfg} must hold a JSON object, not [1, 2]\n"

    def test_moments_document_that_is_not_an_object_is_an_error(self, capsys,
                                                                 tmp_path):
        doc = tmp_path / "moments.json"
        doc.write_text("[1]")
        code, out, err = run(capsys, "mse", "--moments", str(doc))
        assert (code, out) == (1, "")
        assert err == "error: moments document must be a JSON object, not [1]\n"

    def test_config_sweep_bound_that_is_not_a_number_is_an_error(self, capsys,
                                                                 tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "input": CORRECTED,
            "sweep": {"start": "a", "stop": 1, "step": 0.1},
        }))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: sweep start 'a' is not a number\n"

    @pytest.mark.parametrize("command, doc, message", [
        ("mse", {"estimators": 5},
         "config key 'estimators': 5 is not a list of estimator specs"),
        ("mse", {"estimators": "classical"},
         "config key 'estimators': 'classical' is not a list of estimator "
         "specs"),
        ("mse", {"input": 5}, "config key 'input': 5 is not a path"),
        ("sweep", {"sweep": {"values": 5}},
         "config key 'sweep': values 5 is not a list"),
        ("sweep", {"sweep": {"values": [True, 2]}},
         "config key 'sweep': values entry True is not a number"),
        ("mse", {"allocate": 180.7},
         "config key 'allocate': 180.7 is not an integer"),
        ("simulate", {"simulate": {"replications": True}},
         "config key 'simulate.replications': True is not an integer"),
        ("pre", {"full_precision": "no"},
         "config key 'full_precision': 'no' is not true or false"),
        ("pre", {"format": "xml"},
         "config key 'format': 'xml' is not one of csv, markdown, json"),
        ("pre", {"fromat": "csv"}, "config key 'fromat': unknown key"),
        ("sweep", {"sweep": {"start": 1, "stop": 2, "step": 0.5, "stpe": 3}},
         "config key 'sweep': unknown keys ['stpe']"),
        ("simulate", {"simulate": {"sead": 3}},
         "config key 'simulate.sead': unknown key"),
    ])
    def test_config_value_of_the_wrong_type_is_an_error(self, capsys,
                                                        tmp_path, command,
                                                        doc, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flags, doc", _ROUND_TRIPS)
    def test_flag_and_config_key_give_the_same_options(self, tmp_path,
                                                       command, flags, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        parser = build_parser()
        by_flag = merge_config(parser.parse_args([command, *flags]))
        by_key = merge_config(parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag == by_key != RunConfig(command)

    def test_round_trip_cases_cover_every_option(self):
        names = {f.name for f in dataclasses.fields(RunConfig)}
        covered = set()
        for command, flags, _ in _ROUND_TRIPS:
            config = merge_config(build_parser().parse_args([command, *flags]))
            default = RunConfig(command)
            covered |= {n for n in names
                        if getattr(config, n) != getattr(default, n)}
        assert covered == names - {"command"}

    @pytest.mark.parametrize("command", [
        "validate", "moments", "mse", "pre", "sweep", "optimize", "simulate"])
    def test_help_shows_each_default(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = ["(default: summary)", "(default: off)",
                    "(default: markdown)"]
        if command in ("mse", "simulate"):
            defaults.append("(default: classical, combined_ratio, "
                            "combined_product, ratio_cum_product, "
                            "tracy_product:opt, plikusas_dual, "
                            "dual_family:opt)")
        if command == "sweep":
            defaults.append("(default: 0.8:2.4:0.1)")
        if command == "simulate":
            defaults.append("(default: 10000)")
        for default in defaults:
            assert default in text
        assert text.count("(default:") == len(defaults)

    def test_missing_input_is_an_error(self, capsys):
        code, out, err = run(capsys, "pre")
        assert code == 1
        assert "no input" in err

    def test_bad_flag_value_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["pre", "--format", "bogus"])


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


#: Cell strategies of the JSON renderer's property test, by column kind.
_CELLS = {
    "str": st.text(),
    "int": st.integers(),
    "bool": st.booleans(),
    "none": st.none(),
    "float": st.floats(),
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "np.float64": st.floats().map(np.float64),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    headers = draw(st.lists(st.text(), max_size=5, unique=True))
    kinds = [draw(st.sampled_from(sorted(_CELLS))) for _ in headers]
    n_rows = draw(st.integers(0, 6))
    rows = [tuple(draw(_CELLS[kind]) for kind in kinds)
            for _ in range(n_rows)]
    return headers, rows


class TestJsonRendering:
    @settings(deadline=None)
    @given(_tables())
    def test_equals_json_dumps_with_indent(self, table):
        headers, rows = table
        want = json.dumps(
            [dict(zip(headers, map(_plain, row))) for row in rows], indent=2)
        assert render_table(headers, rows, "json") == want

    @pytest.mark.parametrize("headers, rows", [
        (("a", "b"), []),
        (("theta", "note"), [(-0.0, "é \"%s\" 100%"), (float("nan"), "")]),
        (("x", "x"), [(1, 2)]),
        (("a", "b"), [(1,), (1, 2)]),
        ((), [(), ()]),
        (("a",), [([1, 2],), ({"k": None},)]),
        ((1, None), [(np.float64(0.5), np.int64(3))]),
    ])
    def test_edge_tables(self, headers, rows):
        want = json.dumps(
            [dict(zip(headers, map(_plain, row))) for row in rows], indent=2)
        assert render_table(headers, rows, "json") == want
