"""Self-tests of the benchmark: its checks catch corrupted outputs, and
every workload passes its checks on a seed other than the ones used to
tune it.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECOND_SEED = 20261017


def run_bench(*args, cwd=ROOT, bench=ROOT / "benchmarks"):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Corrupted outputs are counted as failed
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return workloads.McEstimatorGrid(SECOND_SEED)


@pytest.fixture(scope="module")
def study(grid):
    return grid.call("study")


def _replace_row(result, kind, **changes):
    rows = tuple(dataclasses.replace(r, **changes) if r.spec.kind == kind else r
                 for r in result.results)
    return dataclasses.replace(result, results=rows)


def test_pooled_classical_ratio_detects_small_bias():
    sampling = workloads.McSampling(SECOND_SEED)
    for _ in range(3):
        result = sampling.call("study")
        assert sampling.check("study", result) == []
    assert sampling.final_check() == []
    # 5 % too much variance: within the band of one study, outside the
    # pooled band.
    biased = _replace_row(result, "classical", ratio=1.05 * result.results[0].ratio)
    for _ in range(10):
        assert sampling.check("study", biased) == []
    assert sampling.final_check() != []


def test_study_passes_and_rejects_some_dual_draws(grid, study):
    assert grid.check("study", study) == []
    accepted, attempted = grid.estimates(study)
    assert attempted == grid.R * 18
    assert accepted < attempted


@pytest.mark.parametrize("corrupt", [
    lambda r: _replace_row(r, "classical", ratio=r.results[0].ratio * 2,
                           empirical_mse=r.results[0].empirical_mse * 2),
    lambda r: _replace_row(r, "combined_ratio",
                           accepted=r.results[1].accepted - 1),
    lambda r: _replace_row(r, "combined_product",
                           theoretical_mse=r.results[2].theoretical_mse
                           * (1 + 1e-7)),
    lambda r: _replace_row(r, "ratio_cum_product", empirical_variance=float("nan")),
    lambda r: dataclasses.replace(r, xstar_mean=r.xstar_mean + 6 * r.xstar_se),
    lambda r: dataclasses.replace(r, results=r.results[:-1]),
], ids=["classical_ratio", "counts", "theory", "nan", "xstar", "missing_row"])
def test_corrupted_study_fails(grid, study, corrupt):
    assert grid.check("study", corrupt(study)) != []


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return workloads.CliSession(SECOND_SEED, tmp_path_factory.mktemp("work"))


def _corrupt_json(output, edit):
    code, stdout, stderr = output
    doc = json.loads(stdout)
    edit(doc)
    return code, json.dumps(doc), stderr


def _scale(row, key, factor):
    row[key] *= factor


@pytest.mark.parametrize("label,edit", [
    ("mse", lambda doc: _scale(doc[3], "mse", 1 + 1e-7)),
    ("pre", lambda doc: _scale(doc[4], "alpha2", 1 + 1e-7)),
    ("optimize", lambda doc: _scale(doc[1], "value", 1 - 1e-7)),
    ("moments", lambda doc: _scale(doc["dual_moments"], "v011", 1 + 1e-7)),
    ("sweep", lambda doc: _scale(doc[1234], "mse", 1 + 1e-7)),
    ("sweep", lambda doc: doc.pop(17)),
    ("validate", lambda doc: doc.pop()),
    ("mse_units", lambda doc: _scale(doc[6], "pre", 1 + 1e-7)),
], ids=["mse", "pre", "optimize", "moments", "sweep_value", "sweep_row",
        "validate", "mse_units"])
def test_corrupted_cli_row_fails(session, label, edit):
    output = session.call(label)
    assert session.check(label, output) == []
    assert session.check(label, _corrupt_json(output, edit)) != []


def test_units_rows_with_another_allocation_fail(session):
    # The rows the CLI prints for a total of 179 instead of 180: the
    # reference allocates independently of the library, so a wrong
    # allocation cannot pass.
    argv = list(session.argv["mse_units"])
    argv[argv.index("--allocate") + 1] = str(workloads.UNITS_ALLOCATE - 1)
    session.argv["other"] = argv
    try:
        output = session.call("other")
    finally:
        del session.argv["other"]
    assert output[0] == 0
    assert session.check("mse_units", output) != []


def test_cli_nonzero_exit_fails(session):
    code, stdout, stderr = session.call("mse")
    assert session.check("mse", (1, stdout, stderr)) != []


def test_validate_reports_decimal_shift(session):
    code, stdout, _ = session.call("validate")
    codes = {(r["stratum_id"], r["code"]) for r in json.loads(stdout)}
    assert code == 0 and ("3", "decimal_shift") in codes


# ---------------------------------------------------------------------------
# Inputs come from the seed
# ---------------------------------------------------------------------------


def test_seed_changes_generated_inputs(tmp_path):
    a, b = workloads.McSampling(1), workloads.McSampling(2)
    assert not (a.frames[0].y == b.frames[0].y).all()
    assert (workloads.McSampling(1).frames[0].y == a.frames[0].y).all()
    workloads.CliSession(1, tmp_path)
    workloads.CliSession(2, tmp_path)
    assert ((tmp_path / "units_seed1.csv").read_bytes()
            != (tmp_path / "units_seed2.csv").read_bytes())


# ---------------------------------------------------------------------------
# The benchmark command, end to end
# ---------------------------------------------------------------------------


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_passes_on_second_seed(name):
    proc = run_bench("--workload", name, "--seed", str(SECOND_SEED),
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in names:
        assert f"{name} = " in proc.stdout


@pytest.fixture(scope="module")
def traced():
    runs = {}
    for name in workloads.WORKLOADS:
        proc = run_bench("--workload", name, "--seed", str(SECOND_SEED),
                         "--seconds", "2", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[name] = last_json(proc.stdout)
        assert runs[name]["correct"]
    return runs


def _value(run, name):
    return run["metrics"][name]["value"]


def test_traced_runs_report_every_layer(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for run in traced.values():
        assert list(run["metrics"]) == names
    # Every per-layer metric is measured by some workload.
    for name in names:
        assert any(_value(run, name) > 0 for run in traced.values()), name


def test_traced_shares_follow_the_predicted_order(traced):
    sampling = traced["mc_sampling"]
    self_ms = {k: v["value"] for k, v in sampling["metrics"].items()
               if k.endswith(".self_ms")}
    assert max(self_ms, key=self_ms.get) == "simulate.draw_sample.self_ms"

    grid = traced["mc_estimator_grid"]
    assert (_value(grid, "estimators.estimate.self_ms")
            + _value(grid, "estimators.dual_transform_means.self_ms")
            > _value(grid, "simulate.draw_sample.self_ms"))
    assert 0.9 < _value(grid, "estimators.accepted_frac") < 1.0

    record = json.loads((HERE / "out" / f"cli_session_seed{SECOND_SEED}"
                         "_trace1.json").read_text())
    short: dict[str, float] = {}
    for label, layers in record["samples"]["self_ms_by_label"].items():
        if label not in ("sweep", "mse_units"):
            for layer, ms in layers.items():
                short[layer] = short.get(layer, 0.0) + ms
    assert max(short, key=short.get) == "cli.build_parser"


def test_run_without_library_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "mc_sampling", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path, bench=bench)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
