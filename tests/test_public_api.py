"""The package's public names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import stratdual

MODULES = ("cli", "datasets", "domain", "estimators", "moments",
           "mse_theory", "simulate")


def test_package_exports():
    assert set(stratdual.__all__) == {
        "__version__",
        "UnitFrame", "StratumSummary", "PopulationSummary", "Finding",
        "ValidationReport", "summarize_stratum", "combine", "validate",
        "neyman_allocation", "read_summary_csv", "write_summary_csv",
        "read_units_csv",
        "MomentSet", "DualMomentSet", "compute_moments",
        "compute_dual_moments", "moments_to_json", "moments_from_dict",
        "KINDS", "DUAL_KINDS", "EstimatorSpec", "SampleMeans",
        "DegenerateSampleError", "parse_estimator", "dual_transform_means",
        "estimate",
        "MseReport", "EfficiencyVerdict", "var_yst", "theta_of_A",
        "A_of_theta", "mse_first_order", "optimize_theta", "optimize_alphas",
        "bias_first_order_dual", "efficiency_conditions",
        "StratumSpec", "PopulationSpec", "SimResult", "EstimatorResult",
        "AllDrawsRejectedError", "load_population_spec",
        "generate_population", "draw_sample", "monte_carlo",
    }
    assert len(stratdual.__all__) == len(set(stratdual.__all__))
    for export in stratdual.__all__:
        assert hasattr(stratdual, export), export


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stratdual.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"stratdual.{name}.{export}"


def test_benchmark_traced_names_resolve():
    # The benchmark rebinds each function of its TRACED table by name, so
    # a name that no longer resolves stops every benchmark run.  The
    # table is read, not imported as a package, from the benchmark's file.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"stratdual.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
