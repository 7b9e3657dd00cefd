"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratdual.cli import (
    RunConfig, build_parser, main, merge_config, render_table,
)
import stratdual
from stratdual.datasets import demo_path, demo_population, demo_strata
from test_domain import make_summary
from stratdual import (
    A_of_theta,
    EstimatorSpec,
    PopulationSpec,
    StratumSpec,
    compute_dual_moments,
    compute_moments,
    generate_population,
    moments_to_json,
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
def census_csv(tmp_path):
    """A summary CSV whose second stratum is a census (n = N)."""
    path = tmp_path / "census.csv"
    write_summary_csv(path, [make_summary(stratum_id="1"),
                             make_summary(stratum_id="2", n=20)])
    return str(path)


def moments_file(tmp_path, **moments):
    """A bare moments document holding ``moments``."""
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(moments))
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

    def test_census_input_drops_dual_estimators(self, capsys, census_csv):
        code, out, err = run(capsys, "mse", "--input", census_csv,
                             "--format", "json")
        assert code == 0
        kinds = [r["estimator"] for r in json_rows(out)]
        assert "plikusas_dual" not in kinds
        assert "dual_family" not in kinds
        assert "tracy_product" in kinds
        assert "skipping dual estimators" in err

    @pytest.mark.parametrize("text", [" plikusas_dual", "dual_family:opt ",
                                      " dual_family:opt"])
    def test_census_input_skips_padded_dual_specs(self, capsys, census_csv,
                                                  text):
        code, out, err = run(capsys, "mse", "--input", census_csv,
                             "--estimator", "classical", "--estimator", text,
                             "--format", "json")
        assert code == 0
        assert [r["estimator"] for r in json_rows(out)] == ["classical"]
        assert err == ("skipping dual estimators (no dual moments): "
                       f"[{text.strip()!r}]\n")

    def test_blocking_finding_stops_the_command(self, capsys):
        code, out, err = run(capsys, "mse", "--input", PRINTED)
        assert (code, out) == (1, "")
        assert err.endswith(
            "error: validation found 1 blocking error(s); rerun with "
            "--corrections auto or fix the input\n")

    def test_opt_without_a_closed_form_is_an_error(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--estimator", "classical:opt")
        assert (code, out) == (1, "")
        assert err.endswith(
            "error: no closed-form optimum implemented for 'classical'\n")

    def test_inconsistent_moments_warn_of_a_nonpositive_mse(self, capsys,
                                                            tmp_path):
        # |v110| > sqrt(v200 v020): no population has these moments.
        doc = moments_file(tmp_path, v200=1.0, v020=1.0, v002=1.0, v110=2.0,
                           v101=0.0, v011=0.0)
        code, out, err = run(capsys, "mse", "--moments", doc, "--estimator",
                             "combined_ratio", "--format", "csv")
        assert code == 0
        assert out == "estimator,params,mse,pre\ncombined_ratio,,-2,\n"
        assert err == ("warning: first-order MSE of combined_ratio is "
                       "nonpositive (-2.0); the supplied moments are "
                       "internally inconsistent at this order\n")

    def test_unknown_estimator_is_an_error(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--estimator", "bogus_kind")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("text, key", [
        ("plikusas_dual:a1=3", "a1"),
        ("classical:A=5", "A"),
        ("dual_family:a1=0.5,a2=2,a=3", "a"),
    ])
    def test_a_parameter_the_kind_does_not_take_is_an_error(
            self, capsys, tmp_path, text, key):
        # Once read silently (plikusas_dual:a1=3 printed the a1 = 1 row);
        # now an error from a flag and from a config file's estimators.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": CORRECTED, "estimators": [text]}))
        kind = text.partition(":")[0]
        for argv in (["--input", CORRECTED, "--estimator", text],
                     ["--config", str(cfg)]):
            code, out, err = run(capsys, "mse", *argv)
            assert (code, out) == (1, "")
            assert [line for line in err.splitlines()
                    if line.startswith("error:")] == [
                f"error: {kind} takes no parameter {key!r} in {text!r}"]


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

    def test_census_input_leaves_out_the_dual_rows(self, capsys, census_csv):
        code, out, err = run(capsys, "pre", "--input", census_csv,
                             "--format", "json")
        assert code == 0
        assert [r["estimator"] for r in json_rows(out)] == [
            "classical", "combined_ratio", "ratio_cum_product"]
        assert err == ("skipping dual estimators (no dual moments): "
                       "['plikusas_dual', 'dual_family:opt']\n")

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


class TestZeroMeanMomentsDocument:
    @pytest.mark.parametrize("command",
                             ["mse", "pre", "optimize", "sweep", "moments"])
    def test_every_command_refuses_it_with_one_message(self, capsys, tmp_path,
                                                       command):
        # A zero combined mean leaves the relative moments undefined, and
        # with them the transform constant: no command may resolve an
        # optimum or print an MSE from such a document.
        m = dict(v200=0.02, v020=0.03, v002=0.01, v110=0.015, v101=-0.004,
                 v011=-0.006)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "moments": m, "dual_moments": dict(m, dual=True),
            "mean_y": 5, "mean_x": 0, "mean_z": 2}))
        code, out, err = run(capsys, command, "--moments", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: combined means must be nonzero to form "
                       "relative moments (mean_y=5.0, mean_x=0.0, "
                       "mean_z=2.0)\n")


class TestHugeMeans:
    """A combined mean whose square overflows a float is one error naming
    it, not an ``OverflowError`` traceback."""

    @staticmethod
    def errors(err):
        return [line for line in err.splitlines() if line.startswith("error:")]

    @pytest.mark.parametrize("command", ["pre", "mse"])
    def test_a_huge_stratum_mean(self, capsys, tmp_path, command):
        with open(CORRECTED, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1]["mean_z"] = "1e308"  # stratum 2
        path = tmp_path / "huge.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (1, "")
        assert self.errors(err) == [
            "error: combined mean mean_z=1.2676056338028169e+307 is too "
            "large to form relative moments: its square overflows"]

    def test_a_huge_mean_in_a_moments_document(self, capsys, tmp_path):
        m = dict(v200=0.02, v020=0.03, v002=0.01, v110=0.015, v101=-0.004,
                 v011=-0.006)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "moments": m, "dual_moments": dict(m, dual=True),
            "mean_y": 1e200, "mean_x": 3, "mean_z": 2}))
        code, out, err = run(capsys, "mse", "--moments", str(path))
        assert (code, out) == (1, "")
        assert self.errors(err) == [
            "error: combined mean mean_y=1e+200 is too large to form "
            "relative moments: its square overflows"]


class TestInconsistentMomentsDocument:
    """A moments document whose v200 is not positive, or whose two v200
    differ, is one error, not a table of blank or zero PRE cells."""

    @pytest.mark.parametrize("command", ["pre", "mse"])
    @pytest.mark.parametrize("moments_v200, dual_v200, error", [
        (0.0, 0.0, "error: v200 must be positive, got 0.0: every efficiency "
                   "is relative to the classical MSE, mean_y**2 * v200"),
        (0.0, 0.02, "error: v200 must be positive, got 0.0: every efficiency "
                    "is relative to the classical MSE, mean_y**2 * v200"),
        (0.02, 0.03, "error: dual_moments v200=0.03 differs from moments "
                     "v200=0.02; the two are equal by construction"),
    ])
    def test_it_is_refused(self, capsys, tmp_path, command, moments_v200,
                           dual_v200, error):
        m = dict(v020=0.03, v002=0.01, v110=0.015, v101=-0.004, v011=-0.006)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "moments": dict(m, v200=moments_v200),
            "dual_moments": dict(m, v200=dual_v200, dual=True),
            "mean_y": 5, "mean_x": 3, "mean_z": 2}))
        code, out, err = run(capsys, command, "--moments", str(path))
        assert (code, out, err) == (1, "", error + "\n")


class TestHugeStandardDeviation:
    def test_pre_names_the_stratum_and_column(self, capsys, tmp_path):
        # Once numpy's RuntimeWarning from the library's source line, then
        # "error: v200 must be finite", naming neither.
        with open(CORRECTED, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["s_y"] = "1e308"  # stratum 1
        path = tmp_path / "huge_sd.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)
        code, out, err = run(capsys, "pre", "--input", str(path))
        assert (code, out) == (1, "")
        assert "RuntimeWarning" not in err
        assert err.splitlines()[-1] == (
            "error: stratum 1: s_y=1e+308 is too large to form a variance: "
            "its square overflows")


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

    @pytest.mark.parametrize("grid, message", [
        ("1:2", "bad grid '1:2'; expected START:STOP:STEP"),
        ("1:2:3:4", "bad grid '1:2:3:4'; expected START:STOP:STEP"),
        ("1:2:0", "step must be positive"),
        ("1:2:-0.5", "step must be positive"),
    ])
    def test_rejects_malformed_range_grid(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", grid)
        assert (code, out, err) == (
            1, "", f"error: argument --grid: {message}\n")

    @pytest.mark.parametrize("grid, entry", [
        ("0.8:2.4:abc", "abc"), ("1,x", "x"), ("1,,2", ""),
    ])
    def test_names_a_grid_entry_that_is_not_a_number(self, capsys, grid,
                                                     entry):
        code, out, err = run(capsys, "sweep", "--input", CORRECTED,
                             "--grid", grid)
        assert (code, out, err) == (
            1, "", f"error: argument --grid: grid entry {entry!r} is not a "
                   "number\n")

    def test_moments_without_an_optimum_give_no_optimum_row(self, capsys,
                                                           tmp_path):
        doc = moments_file(tmp_path, v200=1.0, v020=0.0, v002=1.0, v110=0.0,
                           v101=0.0, v011=0.0)
        code, out, err = run(capsys, "sweep", "--moments", doc,
                             "--grid", "1,2", "--format", "json")
        assert code == 0
        assert [r["note"] for r in json_rows(out)] == ["", ""]
        assert err == ("no optimum row: v020 must be positive to optimize "
                       "theta\n")

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
        assert (f"error: argument --grid: grid of {count} points exceeds "
                "the limit of "
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

    def test_census_input_leaves_out_the_dual_optimum(self, capsys,
                                                      census_csv):
        code, out, err = run(capsys, "optimize", "--input", census_csv,
                             "--format", "json")
        assert code == 0
        assert [r["parameter"] for r in json_rows(out)] == [
            "var_classical", "theta_opt", "A_opt", "mse_tracy_product_min",
            "pre_tracy_product_opt"]
        assert err == "skipping dual optimum (no dual moments available)\n"


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

    def test_negative_seed_is_an_error(self, capsys, population_json):
        code, out, err = run(capsys, "simulate", "--population", population_json,
                             "--replications", "10", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: argument --seed: must be at least 0, got -1\n"

    def test_sample_size_out_of_range_names_the_stratum(self, capsys,
                                                        tmp_path,
                                                        population_json):
        spec = json.loads((tmp_path / "pop.json").read_text())
        spec["strata"][1].update(N=10, n=20)
        path = tmp_path / "too_large.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--population", str(path),
                             "--replications", "10")
        assert (code, out) == (1, "")
        assert err == "error: stratum b: design n=20 out of range 1..10\n"

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


def finite_or_one_error(capsys, *argv):
    """Run a command with JSON output under the input contract.

    The command must exit 0 with finite cells, or exit 1 with one
    ``error:`` line and no output, which is returned.  A traceback or a
    numpy warning fails the test where it is raised (the suite turns
    ``RuntimeWarning`` into an error).  The legitimate exceptions: a PRE
    cell is empty (``null``) where the first-order MSE is not positive,
    and a ``simulate`` ratio is ``NaN`` where its theoretical MSE is not.
    """
    code = main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code:
        assert (code, out, len(errors)) == (1, "", 1), err
        return errors[0]
    assert not errors, err
    for row in json_rows(out):
        for key, value in row.items():
            if value is None:  # a PRE cell of the mse, pre or optimize table
                assert key == "pre" or row["parameter"].startswith("pre_"), row
            elif isinstance(value, float) and not math.isfinite(value):
                assert key == "ratio" and not row["theoretical_mse"] > 0, row
    return None


#: What a fuzzed input puts in place of a number: text, JSON values of
#: other types, and numbers at and past the edges of a float's range.
_ODD_VALUES = st.sampled_from([
    "", "a", None, [1.0], 0, -1, 1e-320, 1e-20, 1e20, 1e154, 1e155, 1e200,
    1e307, 1.7e308, float("nan"), float("inf"), float("-inf"),
]) | st.floats() | st.integers(-10**400, 10**400)


def _mutated(doc, mutations):
    """A deep copy of the JSON document ``doc`` with each ``(path, value)``
    of ``mutations`` set."""
    doc = json.loads(json.dumps(doc))
    for path, value in mutations:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


#: A small population spec: every fuzzed study is cheap.
_SMALL_POPULATION = {"seed": 11, "strata": [
    {"stratum_id": "a", "N": 12, "n": 4, "mu": [100.0, 50.0, 80.0],
     "sigma": [10.0, 5.0, 8.0], "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}},
    {"stratum_id": "b", "N": 10, "n": 3, "mu": [120.0, 60.0, 70.0],
     "sigma": [12.0, 6.0, 7.0], "rho": {"xy": 0.6, "yz": -0.3, "xz": -0.2}},
]}
_POPULATION_PATHS = [("strata", h, key, i) for h in (0, 1)
                     for key in ("mu", "sigma") for i in range(3)]
_POPULATION_PATHS += [("strata", h, "rho", pair) for h in (0, 1)
                      for pair in ("xy", "yz", "xz")]


def _moments_document():
    """The moments document of the bundled corrected table."""
    pop = demo_population(corrected=True)
    m, md = compute_moments(pop), compute_dual_moments(pop)
    return json.loads(moments_to_json(m, md, {"mean_y": pop.mean_y,
                                              "mean_x": pop.mean_x,
                                              "mean_z": pop.mean_z}))


_MOMENTS_PATHS = [(block, key) for block in ("moments", "dual_moments")
                  for key in ("v200", "v020", "v002", "v110", "v101", "v011")]
_MOMENTS_PATHS += [("mean_y",), ("mean_x",), ("mean_z",)]

_FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _cells(values):
    """The CSV cells a fuzzed input puts in place of a number."""
    return st.sampled_from(values).map(str) | st.floats().map(repr)


#: What a fuzzed CSV puts in a cell of a number: text, and numbers at and
#: past the edges of a float's range (``1e400`` reads as ``inf``).
_ODD_CELLS = _cells([
    "", "a", "0", "-1", "1e-320", "1e-20", "1e20", "1e154", "1e155", "1e200",
    "1e307", "1.7e308", "1e400", "nan", "inf", "-inf",
])

#: What it puts in a cell of ``N`` or ``n``: never a large population.
_SIZE_CELLS = st.sampled_from(["", "a", "-1", "0", "1", "2", "3", "1.5", "20",
                               "21", "103", "127", "170"])

#: A small unit-level table: three strata of six units.
_SMALL_UNITS = [[sid, str(10.0 + 3 * i + h), str(100.0 + 11 * i - 4 * h),
                 str(50.0 - 2 * i + (i * h) % 5)]
                for h, sid in enumerate("abc") for i in range(6)]


def _cell_mutations(rows, cells):
    """One or two ``(row, column, cell)`` edits of a table of ``rows`` rows;
    ``cells`` maps each column it edits to the strategy of its cells."""
    edit = st.tuples(st.integers(0, rows - 1), st.sampled_from(sorted(cells)))
    return st.lists(edit.flatmap(lambda at: st.tuples(
        st.just(at[0]), st.just(at[1]), cells[at[1]])), min_size=1, max_size=2)


def _write_csv(path, header, rows, mutations):
    """Write ``header`` and ``rows`` to ``path`` with each ``(row, column,
    cell)`` of ``mutations`` set."""
    rows = [list(row) for row in rows]
    for r, c, cell in mutations:
        rows[r][c] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return str(path)


def _summary_table():
    """The bundled corrected table: its header and its rows of cells."""
    with open(CORRECTED, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestCensusDesign:
    """Every stratum sampled whole: each first-order MSE is exactly 0, and
    the tracy-product optimum does not exist (``v020 = 0``)."""

    _PLAIN = ["classical", "combined_ratio", "combined_product",
              "ratio_cum_product"]
    _DUAL_NOTE = ("skipping dual estimators (no dual moments): "
                  "['plikusas_dual', 'dual_family:opt']\n")

    def test_every_table_keeps_its_rows(self, capsys, tmp_path):
        # 3 strata of 6 units, 18 sampled: mse and optimize once failed
        # with "v020 must be positive to optimize theta", mse warned that
        # the moments were "internally inconsistent", and sweep labelled
        # each row "worse" than the classical variance it equals.
        path = _write_csv(tmp_path / "units.csv", ["stratum_id", "y", "x", "z"],
                          _SMALL_UNITS, [])
        common = ("--input", path, "--schema", "units", "--allocate", "18",
                  "--format", "json")
        code, out, err = run(capsys, "mse", *common)
        assert code == 0
        assert [(r["estimator"], r["mse"], r["pre"])
                for r in json_rows(out)] == [(k, 0.0, None) for k in self._PLAIN]
        assert err == self._DUAL_NOTE + (
            "skipping tracy_product:opt (v020 must be positive to optimize "
            "theta)\n") + "".join(
            f"warning: first-order MSE of {kind} is 0: the estimator is exact "
            "at first order, and its PRE is undefined\n"
            for kind in self._PLAIN)

        code, out, err = run(capsys, "pre", *common)
        assert code == 0
        assert [(r["estimator"], r["pre"]) for r in json_rows(out)] == [
            ("classical", None), ("combined_ratio", None),
            ("ratio_cum_product", None)]
        assert err == self._DUAL_NOTE + "".join(
            f"warning: first-order MSE of {kind} is 0: the estimator is exact "
            "at first order, and its PRE is undefined\n"
            for kind in ("classical", "combined_ratio", "ratio_cum_product"))

        code, out, err = run(capsys, "optimize", *common)
        assert code == 0
        assert json_rows(out) == [{"parameter": "var_classical", "value": 0.0}]
        assert err == ("skipping tracy_product optimum (v020 must be positive "
                       "to optimize theta)\n"
                       "skipping dual optimum (no dual moments available)\n")

        code, out, err = run(capsys, "sweep", *common, "--grid", "1,2")
        assert code == 0
        assert [(r["theta"], r["mse"], r["vs_classical"], r["note"])
                for r in json_rows(out)] == [(1.0, 0.0, "equal", ""),
                                             (2.0, 0.0, "equal", "")]
        assert err == "no optimum row: v020 must be positive to optimize theta\n"

    def test_simulate_with_the_default_estimators(self, capsys, tmp_path):
        # Failed with "tracy_product:opt: v020 must be positive to
        # optimize theta".
        path = tmp_path / "census.json"
        path.write_text(json.dumps({**_SMALL_POPULATION, "strata": [
            {**s, "n": s["N"]} for s in _SMALL_POPULATION["strata"]]}))
        code, out, err = run(capsys, "simulate", "--population", str(path),
                             "--replications", "16", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [r["estimator"] for r in rows] == self._PLAIN
        assert all(r["empirical_mse"] == r["theoretical_mse"] == 0.0
                   and math.isnan(r["ratio"]) for r in rows)
        assert err.startswith(self._DUAL_NOTE + (
            "skipping tracy_product:opt (v020 must be positive to optimize "
            "theta)\n"))

    @pytest.mark.parametrize("command, rows, note", [
        ("mse", [("classical", "", 1.0, 100.0),
                 ("combined_ratio", "", 1.0, 100.0),
                 ("combined_product", "", 2.0, 50.0),
                 ("ratio_cum_product", "", 2.0, 50.0)],
         "skipping tracy_product:opt (v020 must be positive to optimize "
         "theta)\n"),
        ("optimize", [("var_classical", 1.0)],
         "skipping tracy_product optimum (v020 must be positive to optimize "
         "theta)\nskipping dual optimum (no dual moments available)\n"),
    ], ids=["mse", "optimize"])
    def test_moments_without_an_optimum_keep_the_table(self, capsys, tmp_path,
                                                       command, rows, note):
        doc = moments_file(tmp_path, v200=1.0, v020=0.0, v002=1.0, v110=0.0,
                           v101=0.0, v011=0.0)
        code, out, err = run(capsys, command, "--moments", doc,
                             "--format", "json")
        assert code == 0
        assert [tuple(r.values()) for r in json_rows(out)] == rows
        assert err.endswith(note)


class TestEmptyPreCellsAreExplained:
    """``pre`` and ``optimize`` print a ``warning:`` line for each empty PRE
    cell, as ``mse`` does: on the census units table (3 strata of 6 units,
    18 sampled) and on moments whose first-order MSEs are negative."""

    _EXACT = ("warning: first-order MSE of {} is 0: the estimator is exact "
              "at first order, and its PRE is undefined\n")
    _NEGATIVE = ("warning: first-order MSE of {} is nonpositive ({}); the "
                 "supplied moments are internally inconsistent at this "
                 "order\n")
    _DUAL_NOTE = ("skipping dual estimators (no dual moments): "
                  "['plikusas_dual', 'dual_family:opt']\n")

    @staticmethod
    def inputs(tmp_path):
        census = _write_csv(tmp_path / "units.csv",
                            ["stratum_id", "y", "x", "z"], _SMALL_UNITS, [])
        # |v110| > sqrt(v200 v020): no population has these moments.
        doc = moments_file(tmp_path, v200=1.0, v020=1.0, v002=1.0, v110=2.0,
                           v101=0.0, v011=0.0)
        return (("--input", census, "--schema", "units", "--allocate", "18"),
                ("--moments", doc))

    def test_pre_prints_each_warning(self, capsys, tmp_path):
        census, moments = self.inputs(tmp_path)
        code, out, err = run(capsys, "pre", *census, "--format", "csv")
        assert (code, out) == (0, "estimator,alpha1,alpha2,pre\n"
                                  "classical,0,0,\ncombined_ratio,1,0,\n"
                                  "ratio_cum_product,1,1,\n")
        assert err == self._DUAL_NOTE + "".join(
            self._EXACT.format(kind)
            for kind in ("classical", "combined_ratio", "ratio_cum_product"))
        code, out, err = run(capsys, "pre", *moments, "--format", "csv")
        assert (code, out) == (0, "estimator,alpha1,alpha2,pre\n"
                                  "classical,0,0,100\ncombined_ratio,1,0,\n"
                                  "ratio_cum_product,1,1,\n")
        assert err == (self._DUAL_NOTE
                       + self._NEGATIVE.format("combined_ratio", -2.0)
                       + self._NEGATIVE.format("ratio_cum_product", -1.0))

    def test_optimize_prints_each_warning(self, capsys, tmp_path):
        # The census has no optimum, so no PRE cell and only the notes.
        census, moments = self.inputs(tmp_path)
        code, out, err = run(capsys, "optimize", *census, "--format", "csv")
        assert (code, out) == (0, "parameter,value\nvar_classical,0\n")
        assert err == ("skipping tracy_product optimum (v020 must be positive "
                       "to optimize theta)\n"
                       "skipping dual optimum (no dual moments available)\n")
        code, out, err = run(capsys, "optimize", *moments, "--format", "csv")
        assert code == 0
        assert out.splitlines()[-2:] == ["mse_tracy_product_min,-2",
                                         "pre_tracy_product_opt,"]
        assert err == (self._NEGATIVE.format("tracy_product:A=1.5", -2.0)
                       + "skipping dual optimum (no dual moments available)\n")


class TestFiniteOrOneError:
    """Every input gives finite output or one ``error:`` line: a fuzz over
    moments documents, population specs, summary CSVs and unit-level
    CSVs, and named inputs whose values overflow a float on the way to a
    table cell."""

    @_FUZZ
    @given(command=st.sampled_from(["mse", "pre", "optimize", "sweep"]),
           mutations=st.lists(st.tuples(st.sampled_from(_MOMENTS_PATHS),
                                        _ODD_VALUES), min_size=1, max_size=2))
    def test_moments_documents(self, capsys, tmp_path, command, mutations):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(_mutated(_moments_document(), mutations)))
        finite_or_one_error(capsys, command, "--moments", str(path))

    @_FUZZ
    @given(mutations=st.lists(st.tuples(st.sampled_from(_POPULATION_PATHS),
                                        _ODD_VALUES), min_size=1, max_size=2))
    def test_population_specs(self, capsys, tmp_path, mutations):
        path = tmp_path / "population.json"
        path.write_text(json.dumps(_mutated(_SMALL_POPULATION, mutations)))
        finite_or_one_error(capsys, "simulate", "--population", str(path),
                            "--replications", "16")

    @_FUZZ
    @given(command=st.sampled_from(["validate", "mse", "pre", "optimize",
                                    "sweep"]),
           mutations=_cell_mutations(4, {c: _SIZE_CELLS if c < 3 else _ODD_CELLS
                                         for c in range(1, 15)}),
           corrections=st.sampled_from(["off", "auto"]))
    def test_summary_csvs(self, capsys, tmp_path, command, mutations,
                          corrections):
        header, rows = _summary_table()
        argv = [command, "--input", _write_csv(tmp_path / "summary.csv",
                                               header, rows, mutations),
                "--corrections", corrections]
        if command != "validate":
            finite_or_one_error(capsys, *argv)
            return
        # validate prints its findings table and exits 1 when one of
        # them blocks, with a count on stderr instead of an error line.
        code = main([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        if code and not out:
            assert (code, len(errors)) == (1, 1), err
        else:
            assert code in (0, 1) and not errors, err
            severities = [row["severity"] for row in json_rows(out)]
            assert ("error" in severities) == (code == 1), (out, err)

    @_FUZZ
    @given(mutations=_cell_mutations(len(_SMALL_UNITS), {
               0: st.sampled_from(["a", "b", "c", "d", ""]),
               1: _ODD_CELLS, 2: _ODD_CELLS, 3: _ODD_CELLS}),
           allocate=st.sampled_from(["0", "1", "3", "6", "9", "18"]))
    def test_units_csvs(self, capsys, tmp_path, mutations, allocate):
        path = _write_csv(tmp_path / "units.csv", ["stratum_id", "y", "x", "z"],
                          _SMALL_UNITS, mutations)
        finite_or_one_error(capsys, "mse", "--input", path, "--schema",
                            "units", "--allocate", allocate)

    @pytest.mark.parametrize("argv, error", [
        (["mse", "--input", CORRECTED, "--estimator",
          "dual_family:a1=1e200,a2=1"],
         "first-order MSE of dual_family:a1=1e+200,a2=1.0 is inf: it "
         "overflows a float on the supplied dual moments"),
        (["mse", "--input", CORRECTED, "--estimator",
          "dual_family:a1=1e155,a2=1e155"],
         "first-order MSE of dual_family:a1=1e+155,a2=1e+155 is nan: it "
         "overflows a float on the supplied dual moments"),
    ], ids=["inf", "nan"])
    def test_an_overflowing_parameter(self, capsys, argv, error):
        assert finite_or_one_error(capsys, *argv) == "error: " + error

    @pytest.mark.parametrize("command, path, value, error", [
        ("mse", ("moments", "v002"), 1e308,
         "tracy_product:opt: first-order MSE of tracy_product:"
         "A=18981.80109960682 is inf: it overflows a float on the supplied "
         "moments"),
        ("pre", ("moments", "v002"), 1e308,
         "first-order MSE of ratio_cum_product is inf: it overflows a float "
         "on the supplied moments"),
        ("optimize", ("moments", "v002"), 1e308,
         "tracy_product optimum: first-order MSE of tracy_product:"
         "A=18981.80109960682 is inf: it overflows a float on the supplied "
         "moments"),
        ("sweep", ("moments", "v002"), 1e308,
         "theta = 0.8 gives a non-finite first-order MSE = inf"),
        ("optimize", ("dual_moments", "v011"), 1e155,
         "dual_family optimum: dual moment v011=1e+155 is too large to "
         "optimize the alphas: its square overflows"),
    ], ids=["mse", "pre", "optimize", "sweep", "optimize-dual-v011"])
    def test_a_huge_moment(self, capsys, tmp_path, command, path, value,
                           error):
        # moments.v002 = 1e308 made mse, pre and optimize print an inf MSE
        # and sweep an inf column with a numpy warning; dual_moments.v011
        # = 1e155 made optimize end in an OverflowError traceback.
        doc = tmp_path / "moments.json"
        doc.write_text(json.dumps(_mutated(_moments_document(),
                                           [(path, value)])))
        assert finite_or_one_error(capsys, command, "--moments",
                                   str(doc)) == "error: " + error

    @pytest.mark.parametrize("command, mutations, error", [
        ("mse", [(("moments", "v020"), 1e-320)],
         "tracy_product:opt: A_opt is nan: it overflows a float at theta_opt "
         "= (v110 + v011) / v020 = (0.01179801544300794 + "
         "0.008169662408293638) / 1e-320"),
        ("optimize", [(("moments", "v020"), 1e-320)],
         "tracy_product optimum: A_opt is nan: it overflows a float at "
         "theta_opt = (v110 + v011) / v020 = (0.01179801544300794 + "
         "0.008169662408293638) / 1e-320"),
        ("mse", [(("moments", "v020"), 1e-20)],
         "tracy_product:opt: A_opt rounds to the population x-mean "
         "11440.498483206933 at theta_opt = (v110 + v011) / v020 = "
         "(0.01179801544300794 + 0.008169662408293638) / 1e-20"),
        ("mse", [(("dual_moments", "v020"), 1e-320),
                 (("dual_moments", "v011"), 0)],
         "dual_family:opt: alpha1 is inf and alpha2 -4.0: they overflow a "
         "float at the determinant v020*v002 - v011**2 = 5e-324 of the dual "
         "moments v020=1e-320, v002=0.0004414008291305241, "
         "v110=-0.003200391479142935, v101=-0.0021277220549335077, v011=0.0"),
        ("optimize", [(("dual_moments", "v020"), 1e-320),
                      (("dual_moments", "v011"), 0)],
         "dual_family optimum: alpha1 is inf and alpha2 -4.0: they overflow "
         "a float at the determinant v020*v002 - v011**2 = 5e-324 of the "
         "dual moments v020=1e-320, v002=0.0004414008291305241, "
         "v110=-0.003200391479142935, v101=-0.0021277220549335077, v011=0.0"),
        ("sweep", [(("moments", "v020"), 1e-320)],
         "tracy_product optimum: A_opt is nan: it overflows a float at "
         "theta_opt = (v110 + v011) / v020 = (0.01179801544300794 + "
         "0.008169662408293638) / 1e-320"),
    ], ids=["mse-v020=1e-320", "optimize-v020=1e-320", "mse-v020=1e-20",
            "mse-dual-v020=1e-320", "optimize-dual-v020=1e-320",
            "sweep-v020=1e-320"])
    def test_an_optimum_that_overflows(self, capsys, tmp_path, command,
                                       mutations, error):
        # Each printed only "error: A must be finite" or "error: alpha1
        # must be finite" (at v020 = 1e-20, "error: A equals the
        # population x-mean; theta undefined"), naming neither the
        # optimum nor the moment; sweep printed "no optimum row" and a
        # table.
        doc = tmp_path / "moments.json"
        doc.write_text(json.dumps(_mutated(_moments_document(), mutations)))
        assert finite_or_one_error(capsys, command, "--moments",
                                   str(doc)) == "error: " + error

    @pytest.mark.parametrize("mutations, error", [
        ([(("strata", 0, "sigma", 1), 1e200)],
         "stratum a: sigma_x=1e+200 is too large to form a variance: its "
         "square overflows"),
        ([(("strata", 0, "sigma", 1), 1e154)],
         "stratum a: s_x is inf: the x values are too large to summarise"),
        ([(("strata", 1, "mu", 0), 1.7e308), (("strata", 1, "sigma", 0), 1e307)],
         "stratum b: sigma_y=1e+307 is too large to form a variance: its "
         "square overflows"),
        ([(("strata", 1, "mu", 1), 1e40)],
         "the estimates of dual_family:a1=1.262159316062155e+38,"
         "a2=-0.15200371484091726 overflow a float: their empirical variance "
         "or MSE is not finite"),
        ([(("strata", 0, "mu", 1), 1e20)],
         "tracy_product:opt: A_opt rounds to the population x-mean "
         "5.454545454545454e+19 at theta_opt = (v110 + v011) / v020 = "
         "(1.1672573720731941e-22 + -1.0722008807120854e-22) / "
         "4.936798372831423e-40"),
    ], ids=["sigma_x=1e200", "sigma_x=1e154", "mu_y=1.7e308", "mu_x=1e40",
            "mu_x=1e20"])
    def test_a_huge_population_spec(self, capsys, tmp_path, mutations, error):
        path = tmp_path / "population.json"
        path.write_text(json.dumps(_mutated(_SMALL_POPULATION, mutations)))
        assert finite_or_one_error(
            capsys, "simulate", "--population", str(path),
            "--replications", "16") == "error: " + error

    def test_a_unit_value_past_a_float(self, capsys, tmp_path):
        # Found by the units fuzz: "1e400" reads as inf, and the error
        # named only the column, "error: non-finite values in x".
        path = _write_csv(tmp_path / "units.csv", ["stratum_id", "y", "x", "z"],
                          _SMALL_UNITS, [(7, 2, "1e400")])
        assert finite_or_one_error(
            capsys, "mse", "--input", path, "--schema", "units",
            "--allocate", "9") == "error: stratum b: non-finite values in x"

    def test_a_huge_unit_value(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("stratum_id,y,x,z\n" + "".join(
            f"{h},{10 + i},{(-1) ** i * 1e154 if h == 's1' else 5 + i},"
            f"{3 + i % 3}\n" for h in ("s1", "s2") for i in range(10)))
        assert finite_or_one_error(
            capsys, "mse", "--input", str(path), "--schema", "units",
            "--allocate", "6") == (
            "error: stratum s1: s_x is inf: the x values are too large to "
            "summarise")


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
        assert err == "error: config key 'sweep': start 'a' is not a number\n"

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
        ("sweep", {"sweep": "1,q"},
         "config key 'sweep': grid entry 'q' is not a number"),
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
        ("sweep", {"sweep": 5},
         "config key 'sweep' must hold a JSON object, not 5"),
        ("sweep", {"sweep": {"start": 1, "stop": 2}},
         "config key 'sweep': missing keys ['step']"),
        ("sweep", {"sweep": {}},
         "config key 'sweep': missing keys ['start', 'stop', 'step']"),
        ("sweep", {"sweep": {"values": []}}, "config key 'sweep': empty grid"),
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

    def test_bad_integer_flag_is_an_error(self, capsys):
        code, out, err = run(capsys, "mse", "--input", CORRECTED,
                             "--allocate", "abc")
        assert (code, out, err) == (
            1, "", "error: argument --allocate: 'abc' is not an integer\n")

    @pytest.mark.parametrize("command, flags, doc, message", [
        ("simulate", ["--replications", "0"], {},
         "argument --replications: must be at least 1, got 0"),
        ("simulate", [], {"simulate": {"replications": -5}},
         "config key 'simulate.replications': must be at least 1, got -5"),
        ("simulate", ["--seed", "-1"], {},
         "argument --seed: must be at least 0, got -1"),
        ("simulate", [], {"simulate": {"seed": -1}},
         "config key 'simulate.seed': must be at least 0, got -1"),
        ("mse", ["--allocate", "0"], {},
         "argument --allocate: must be at least 1, got 0"),
        ("mse", [], {"allocate": -3},
         "config key 'allocate': must be at least 1, got -3"),
    ])
    def test_count_out_of_range_names_its_flag_or_config_key(
            self, capsys, tmp_path, population_json, units_csv, command,
            flags, doc, message):
        # Rejected with the rest of the options, before any input is read.
        inputs = {"simulate": ["--population", population_json],
                  "mse": ["--input", units_csv, "--schema", "units"]}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, *inputs[command], *flags,
                             "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--replications", "1", "--seed", "0"]),
        ("mse", ["--allocate", "4"]),
    ])
    def test_smallest_counts_in_range_are_accepted(
            self, capsys, population_json, units_csv, command, flags):
        inputs = {"simulate": ["--population", population_json],
                  "mse": ["--input", units_csv, "--schema", "units"]}
        code, _, err = run(capsys, command, *inputs[command], *flags)
        assert code == 0, err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--population"), ("mse", "--moments"),
        ("mse", "--config"),
    ])
    def test_malformed_json_names_its_file(self, capsys, tmp_path, command,
                                           flag):
        doc = tmp_path / "truncated.json"
        doc.write_text('{"seed": 7,\n')
        code, out, err = run(capsys, command, flag, str(doc))
        assert (code, out) == (1, "")
        assert err == (f"error: {doc}: Expecting property name enclosed in "
                       "double quotes: line 2 column 1 (char 12)\n")

    def test_runs_as_a_module(self):
        # python -m stratdual from a checkout, the package found on
        # PYTHONPATH as the suite finds it.
        src = Path(stratdual.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "stratdual", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: stratdual ")

    def test_bad_flag_value_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["pre", "--format", "bogus"])


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def _dumps(headers, columns):
    """``json.dumps(indent=2)`` of the table's rows, as Python values."""
    return json.dumps([dict(zip(headers, map(_plain, row)))
                       for row in zip(*columns)], indent=2)


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
#: Cells of a float64 array column, with its edge values drawn often.
_ARRAY_CELLS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                     2.2250738585072014e-308]),
    st.floats())


@st.composite
def _tables(draw):
    """Headers and one column per header: a list of cells of one kind or
    a float64 array (NaN, infinities, -0.0 and subnormals included)."""
    headers = draw(st.lists(st.text(), max_size=5, unique=True))
    size = draw(st.integers(0, 6))
    columns = []
    for _ in headers:
        kind = draw(st.sampled_from(sorted(_CELLS) + ["array"]))
        if kind == "array":
            cells = st.lists(_ARRAY_CELLS, min_size=size, max_size=size)
            columns.append(np.array(draw(cells), dtype=np.float64))
        else:
            columns.append([draw(_CELLS[kind]) for _ in range(size)])
    return headers, columns


#: A column of a few distinct strings, each encoded once, over 100 rows:
#: longer than any drawn table, yet short enough that pytest diffs a
#: failing document in seconds, not minutes.
_LABELS = ["better", "worse", "", "é \"%s\" 100%", "\n\t\\"] * 20


class TestJsonRendering:
    @settings(deadline=None)
    @given(_tables())
    def test_equals_json_dumps_with_indent(self, table):
        headers, columns = table
        assert render_table(headers, columns, "json") == _dumps(headers,
                                                                columns)

    @pytest.mark.parametrize("headers, columns", [
        (("a", "b"), [[], []]),
        (("a", "b"), [np.array([]), []]),
        ((), []),
        (("theta", "note"), [[-0.0, float("nan")], ["é \"%s\" 100%", ""]]),
        (("x", "x"), [[1], [2]]),
        (("a",), [[[1, 2], {"k": None}]]),
        ((1, None), [[np.float64(0.5)], [np.int64(3)]]),
        (("v", "w"), [np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                                2.2250738585072014e-308]),
                      np.array([0.1, -0.0, 5e-324, 1e308, -1.5, 7.0])]),
        (("theta", "label", "mse"),
         [np.linspace(0.8, 2.4, len(_LABELS)), _LABELS,
          np.geomspace(1e-300, 1e300, len(_LABELS))]),
        (("label", "mse"), [_LABELS, np.full(len(_LABELS), np.nan)]),
    ])
    def test_edge_tables(self, headers, columns):
        assert render_table(headers, columns, "json") == _dumps(headers,
                                                                columns)

    @pytest.mark.parametrize("fmt", ["csv", "markdown", "json"])
    def test_columns_of_unequal_length_are_an_error(self, fmt):
        with pytest.raises(ValueError, match=r"lengths \[2, 3\]"):
            render_table(("a", "b"), ([1.0, 2.0], np.zeros(3)), fmt)


#: The argv of each command whose stdout :func:`test_golden_table_output`
#: pins.  Every command but ``validate --corrections off`` repairs the
#: printed table, so that it gives a table too.  ``mse_units`` reads the
#: unit-level CSV of :func:`golden_units_csv`.
_GOLDEN_COMMANDS = {
    "validate_off": ("validate", "--corrections", "off"),
    "validate_auto": ("validate", "--corrections", "auto"),
    "moments": ("moments", "--corrections", "auto"),
    "mse": ("mse", "--corrections", "auto"),
    "pre": ("pre", "--corrections", "auto"),
    "optimize": ("optimize", "--corrections", "auto"),
    "sweep": ("sweep", "--corrections", "auto"),
    "sweep_fine": ("sweep", "--corrections", "auto",
                   "--grid", "0.8:2.4:0.000625"),
    "mse_units": ("mse", "--schema", "units", "--allocate", "180"),
}


@pytest.fixture(scope="module")
def golden_units_csv(tmp_path_factory):
    """A six-stratum unit-level CSV drawn with a fixed seed: stratum means
    those of the bundled table, coefficients of variation 40 %."""
    strata = tuple(
        StratumSpec(stratum_id=s.stratum_id, N=N,
                    mu=(s.mean_y, s.mean_x, s.mean_z),
                    sigma=(0.4 * s.mean_y, 0.4 * s.mean_x, 0.4 * s.mean_z),
                    rho=(0.9, 0.9, 0.85))
        for N, s in zip((127, 117, 103, 170, 205, 201), demo_strata()))
    frames = generate_population(PopulationSpec(strata=strata, seed=20261020))
    path = tmp_path_factory.mktemp("golden") / "units.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("stratum_id", "y", "x", "z"))
        for f in frames:
            writer.writerows((f.stratum_id, repr(y), repr(x), repr(z))
                             for y, x, z in zip(f.y.tolist(), f.x.tolist(),
                                                f.z.tolist()))
    return str(path)


#: ``COMMAND-TABLE-FORMAT-PRECISION``: the exit status and the first 16
#: hex digits of the SHA-256 of stdout.
_GOLDEN = {
    "validate_off-printed-csv-brief": (1, "e4479da7532af606"),
    "validate_off-printed-csv-full": (1, "e4479da7532af606"),
    "validate_off-printed-markdown-brief": (1, "f72e784efe831efa"),
    "validate_off-printed-markdown-full": (1, "f72e784efe831efa"),
    "validate_off-printed-json-brief": (1, "5a0a92e0e2949df1"),
    "validate_off-printed-json-full": (1, "5a0a92e0e2949df1"),
    "validate_off-corrected-csv-brief": (0, "cac96114dc05b556"),
    "validate_off-corrected-csv-full": (0, "cac96114dc05b556"),
    "validate_off-corrected-markdown-brief": (0, "e2a38ebf11959055"),
    "validate_off-corrected-markdown-full": (0, "e2a38ebf11959055"),
    "validate_off-corrected-json-brief": (0, "c53cddbe4a285e16"),
    "validate_off-corrected-json-full": (0, "c53cddbe4a285e16"),
    "validate_auto-printed-csv-brief": (0, "3744a208973bb23c"),
    "validate_auto-printed-csv-full": (0, "3744a208973bb23c"),
    "validate_auto-printed-markdown-brief": (0, "78b9ee4d3e990fa2"),
    "validate_auto-printed-markdown-full": (0, "78b9ee4d3e990fa2"),
    "validate_auto-printed-json-brief": (0, "bf2cc0a624844a77"),
    "validate_auto-printed-json-full": (0, "bf2cc0a624844a77"),
    "validate_auto-corrected-csv-brief": (0, "cac96114dc05b556"),
    "validate_auto-corrected-csv-full": (0, "cac96114dc05b556"),
    "validate_auto-corrected-markdown-brief": (0, "e2a38ebf11959055"),
    "validate_auto-corrected-markdown-full": (0, "e2a38ebf11959055"),
    "validate_auto-corrected-json-brief": (0, "c53cddbe4a285e16"),
    "validate_auto-corrected-json-full": (0, "c53cddbe4a285e16"),
    "moments-printed-csv-brief": (0, "efbe33a7b5956dde"),
    "moments-printed-csv-full": (0, "efbe33a7b5956dde"),
    "moments-printed-markdown-brief": (0, "efbe33a7b5956dde"),
    "moments-printed-markdown-full": (0, "efbe33a7b5956dde"),
    "moments-printed-json-brief": (0, "efbe33a7b5956dde"),
    "moments-printed-json-full": (0, "efbe33a7b5956dde"),
    "moments-corrected-csv-brief": (0, "efbe33a7b5956dde"),
    "moments-corrected-csv-full": (0, "efbe33a7b5956dde"),
    "moments-corrected-markdown-brief": (0, "efbe33a7b5956dde"),
    "moments-corrected-markdown-full": (0, "efbe33a7b5956dde"),
    "moments-corrected-json-brief": (0, "efbe33a7b5956dde"),
    "moments-corrected-json-full": (0, "efbe33a7b5956dde"),
    "mse-printed-csv-brief": (0, "c77dea0ad320ae4e"),
    "mse-printed-csv-full": (0, "46096a6229cc8c80"),
    "mse-printed-markdown-brief": (0, "e979cc8c65e4d695"),
    "mse-printed-markdown-full": (0, "ceee7b3c7e68a69d"),
    "mse-printed-json-brief": (0, "9ee6dd8be7948f59"),
    "mse-printed-json-full": (0, "582a6909bb9a9a9f"),
    "mse-corrected-csv-brief": (0, "c77dea0ad320ae4e"),
    "mse-corrected-csv-full": (0, "46096a6229cc8c80"),
    "mse-corrected-markdown-brief": (0, "e979cc8c65e4d695"),
    "mse-corrected-markdown-full": (0, "ceee7b3c7e68a69d"),
    "mse-corrected-json-brief": (0, "9ee6dd8be7948f59"),
    "mse-corrected-json-full": (0, "582a6909bb9a9a9f"),
    "pre-printed-csv-brief": (0, "fafda38561f6bb52"),
    "pre-printed-csv-full": (0, "2524e853c1af32c8"),
    "pre-printed-markdown-brief": (0, "f1e14fd9982959cb"),
    "pre-printed-markdown-full": (0, "3e7d54a6a1c7682e"),
    "pre-printed-json-brief": (0, "0aae5a89d68aafe4"),
    "pre-printed-json-full": (0, "0aae5a89d68aafe4"),
    "pre-corrected-csv-brief": (0, "fafda38561f6bb52"),
    "pre-corrected-csv-full": (0, "2524e853c1af32c8"),
    "pre-corrected-markdown-brief": (0, "f1e14fd9982959cb"),
    "pre-corrected-markdown-full": (0, "3e7d54a6a1c7682e"),
    "pre-corrected-json-brief": (0, "0aae5a89d68aafe4"),
    "pre-corrected-json-full": (0, "0aae5a89d68aafe4"),
    "optimize-printed-csv-brief": (0, "eda290ffaf9b0d99"),
    "optimize-printed-csv-full": (0, "8713c62c3c1357e2"),
    "optimize-printed-markdown-brief": (0, "c723df38d7096ed0"),
    "optimize-printed-markdown-full": (0, "30f722ca6eef8d0a"),
    "optimize-printed-json-brief": (0, "4acb85d24a9f1692"),
    "optimize-printed-json-full": (0, "4acb85d24a9f1692"),
    "optimize-corrected-csv-brief": (0, "eda290ffaf9b0d99"),
    "optimize-corrected-csv-full": (0, "8713c62c3c1357e2"),
    "optimize-corrected-markdown-brief": (0, "c723df38d7096ed0"),
    "optimize-corrected-markdown-full": (0, "30f722ca6eef8d0a"),
    "optimize-corrected-json-brief": (0, "4acb85d24a9f1692"),
    "optimize-corrected-json-full": (0, "4acb85d24a9f1692"),
    "sweep-printed-csv-brief": (0, "4c05c73e8d222497"),
    "sweep-printed-csv-full": (0, "bcfd383447a119a5"),
    "sweep-printed-markdown-brief": (0, "41eb376518a5ff42"),
    "sweep-printed-markdown-full": (0, "ebf3e76630957059"),
    "sweep-printed-json-brief": (0, "baf978d9c4075a3b"),
    "sweep-printed-json-full": (0, "baf978d9c4075a3b"),
    "sweep-corrected-csv-brief": (0, "4c05c73e8d222497"),
    "sweep-corrected-csv-full": (0, "bcfd383447a119a5"),
    "sweep-corrected-markdown-brief": (0, "41eb376518a5ff42"),
    "sweep-corrected-markdown-full": (0, "ebf3e76630957059"),
    "sweep-corrected-json-brief": (0, "baf978d9c4075a3b"),
    "sweep-corrected-json-full": (0, "baf978d9c4075a3b"),
    "sweep_fine-printed-csv-brief": (0, "2e1efc02b88b2eed"),
    "sweep_fine-printed-csv-full": (0, "43730c3a869cff2e"),
    "sweep_fine-printed-markdown-brief": (0, "ca638dcdfac1a65f"),
    "sweep_fine-printed-markdown-full": (0, "31f4ff9a30a49d4f"),
    "sweep_fine-printed-json-brief": (0, "025bcadc45bca92f"),
    "sweep_fine-printed-json-full": (0, "025bcadc45bca92f"),
    "sweep_fine-corrected-csv-brief": (0, "2e1efc02b88b2eed"),
    "sweep_fine-corrected-csv-full": (0, "43730c3a869cff2e"),
    "sweep_fine-corrected-markdown-brief": (0, "ca638dcdfac1a65f"),
    "sweep_fine-corrected-markdown-full": (0, "31f4ff9a30a49d4f"),
    "sweep_fine-corrected-json-brief": (0, "025bcadc45bca92f"),
    "sweep_fine-corrected-json-full": (0, "025bcadc45bca92f"),
    "mse_units-units-csv-brief": (0, "2955841f0dd09bf8"),
    "mse_units-units-csv-full": (0, "f97e34d162e5ae4e"),
    "mse_units-units-markdown-brief": (0, "c8e3b69ec1240dae"),
    "mse_units-units-markdown-full": (0, "c38df083ee8c6a18"),
    "mse_units-units-json-brief": (0, "e5bbd29687a57eeb"),
    "mse_units-units-json-full": (0, "d893514c41ca853f"),
}


@pytest.mark.parametrize("case", list(_GOLDEN))
def test_golden_table_output(capsys, golden_units_csv, case):
    command, table, fmt, precision = case.split("-")
    inputs = {"printed": PRINTED, "corrected": CORRECTED,
              "units": golden_units_csv}
    argv = [*_GOLDEN_COMMANDS[command], "--format", fmt, "--input", inputs[table]]
    if precision == "full":
        argv.append("--full-precision")
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == _GOLDEN[case]
