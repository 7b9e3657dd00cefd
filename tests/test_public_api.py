"""The package's public names."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

import stratdual

MODULES = ("cli", "datasets", "domain", "estimators", "moments",
           "mse_theory", "simulate")
#: The modules whose ``__all__`` the package re-exports, in order.
LIBRARY_MODULES = ("domain", "estimators", "moments", "mse_theory",
                   "simulate")


def test_package_exports():
    assert set(stratdual.__all__) == {
        "__version__",
        "UnitFrame", "StratumSummary", "PopulationSummary", "Finding",
        "ValidationReport", "summarize_stratum", "combine", "validate",
        "neyman_allocation", "read_summary_csv", "write_summary_csv",
        "read_units_csv", "SUMMARY_COLUMNS", "SUMMARY_RHO_COLUMNS",
        "UNITS_COLUMNS",
        "MomentSet", "DualMomentSet", "compute_moments",
        "compute_dual_moments", "moments_to_json", "moments_from_dict",
        "KINDS", "DUAL_KINDS", "TRANSFORM_KINDS", "EstimatorSpec",
        "SampleMeans", "DegenerateSampleError", "parse_estimator",
        "dual_transform_means", "estimate",
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


def test_package_reexports_each_library_module():
    # Each public name is declared once, in its module's __all__; the
    # package re-exports those lists and binds each name to its module's
    # object, which is what lets the benchmark's tracer rebind it.
    homes = {name: importlib.import_module(f"stratdual.{name}")
             for name in LIBRARY_MODULES}
    declared = [export for home in homes.values() for export in home.__all__]
    assert len(declared) == len(set(declared))
    assert stratdual.__all__ == ["__version__", *declared]
    for home in homes.values():
        for export in home.__all__:
            assert getattr(stratdual, export) is getattr(home, export), export
    # With the tracer installed, each traced name the package exports is
    # still its module's object: the wrapper.
    tracing = benchmark_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, names in tracing.TRACED.items():
            home = importlib.import_module(f"stratdual.{module}")
            for name in set(stratdual.__all__).intersection(names):
                assert getattr(stratdual, name) is getattr(home, name), \
                    f"{module}.{name}"
                assert hasattr(getattr(stratdual, name), "__wrapped__"), name
    finally:
        tracer.remove()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stratdual.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"stratdual.{name}.{export}"


def benchmark_tracing():
    """The benchmark's tracing module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def benchmark_traced():
    """The benchmark's TRACED table: functions traced, by module."""
    return benchmark_tracing().TRACED


def test_benchmark_traced_names_resolve():
    # The benchmark rebinds each function of its TRACED table by name, so
    # a name that no longer resolves stops every benchmark run.
    traced = benchmark_traced()
    assert traced
    for module, names in traced.items():
        home = importlib.import_module(f"stratdual.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_benchmark_traced_functions_run_on_the_calling_thread(monkeypatch):
    # The benchmark's tracer keeps one span stack for all threads, so no
    # function it traces may run on a thread a Monte Carlo study starts.
    # Each one is rebound, as the tracer does, in every stratdual
    # namespace that holds it, to a wrapper that records its thread.
    from stratdual import simulate
    from stratdual.estimators import EstimatorSpec

    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    traced = benchmark_traced()
    homes = {module: importlib.import_module(f"stratdual.{module}")
             for module in traced}
    namespaces = [module for name, module in sys.modules.items()
                  if name == "stratdual" or name.startswith("stratdual.")]
    for module, names in traced.items():
        for name in names:
            original = getattr(homes[module], name)
            wrapper = recording(f"{module}.{name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, attr, wrapper)

    # Two threads, each holding its first run of blocks until the other
    # has taken one, so both run blocks.
    caller = threading.get_ident()
    workers = set()
    both = threading.Event()
    draw_run = simulate._draw_run

    def held_draw_run(*args):
        workers.add(threading.get_ident())
        if len(workers) == 2:
            both.set()
        both.wait(timeout=30)
        return draw_run(*args)

    monkeypatch.setattr(simulate, "_thread_count", lambda blocks: 2)
    monkeypatch.setattr(simulate, "_draw_run", held_draw_run)
    spec = simulate.PopulationSpec(strata=(
        simulate.StratumSpec(stratum_id="a", N=30, n=6, mu=(100.0, 50.0, 80.0),
                             sigma=(10.0, 5.0, 8.0), rho=(0.7, 0.4, 0.3)),
    ), seed=3)
    frames = simulate.generate_population(spec)
    specs = [EstimatorSpec(kind="classical"), EstimatorSpec(kind="plikusas_dual")]
    simulate.monte_carlo(frames, spec.design, specs,
                         R=4 * simulate.BLOCK + 1, seed=2)
    assert len(workers) == 2 and caller in workers
    assert ("simulate.monte_carlo", caller) in calls
    assert {ident for _, ident in calls} == {caller}, calls
