"""Benchmark of the stratdual library: one workload, one seed, one run.

Run from anywhere inside a checkout of the repository:

    python3 benchmarks/run.py --workload mc_sampling --seed 1 --seconds 30 --trace 0

Workloads, metrics and their units are those of ``BENCHMARK.json`` at the
repository root; ``benchmarks/README.md`` explains them.  With
``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` is the
median over several fresh interpreters, the others come from the last of
them, which runs the closed loop for ``--seconds`` and scales each
latency by a calibration of the host's speed (see ``worker.calibrate``).  With ``--trace 1``
one interpreter measures the per-layer metrics from spans around the
library's public functions and writes the spans when it ends.

Every output of the library is checked.  The program prints each metric
by name with its unit, writes a results file under ``benchmarks/out/``,
and ends with one JSON line.  It exits with 1 when an output check
failed, and with 2, printing no result, when the benchmark cannot run:
for example when ``src/stratdual`` is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters whose set-up times give the ``setup_s`` median.
SETUP_RUNS = 5

#: Limit on each worker process, so a run ends within three minutes.
WORKER_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    return json.loads(path.read_text())


def spawn(deadline: float, *args: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the next worker")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    library = Path(result["library"]).resolve()
    if SRC.resolve() not in library.parents:
        raise BenchmarkError(f"stratdual was imported from {library}, "
                             f"not from {SRC}")
    return result


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library's files, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "stratdual").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(args, spec: dict) -> tuple[dict, dict, int, int]:
    """Run the workers; return metrics, run details, attempted and failed."""
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(OUT / "work")]
    if args.trace:
        spans = OUT / f"{args.workload}_seed{args.seed}_spans.npz"
        run = spawn(deadline, *common, "--seconds", str(args.seconds),
                    "--trace", "1", "--spans", str(spans))
        runs = [run]
        measured = run["per_layer"]
        # A layer that does not run in this workload did no work.
        metrics = {m["name"]: measured.get(m["name"], 0.0)
                   for m in spec["per_layer"]}
        details = {"spans_file": str(spans.relative_to(ROOT)),
                   "spans": run["spans"],
                   "traced_rounds": run["traced_rounds"],
                   "calls_by_label": run["calls_by_label"],
                   "self_ms_by_label": run["self_ms_by_label"],
                   "unreported_layers": sorted(set(metrics) - set(measured))}
    else:
        runs = [spawn(deadline, *common, "--setup-only")
                for _ in range(SETUP_RUNS - 1)]
        runs.append(spawn(deadline, *common, "--seconds", str(args.seconds)))
        measured = dict(runs[-1])
        setups = [r["setup_s"] for r in runs]
        measured["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
        details = {key: runs[-1][key] for key in (
            "calls", "units", "call_tail_percentile", "median_scale",
            "raw_ops_per_s", "raw_call_p50_ms", "raw_call_tail_ms")}
        details["setup_s_samples"] = setups
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    details["failures"] = [msg for r in runs for msg in r["failures"]][:20]
    details["numpy"] = runs[-1]["numpy"]
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {names}")
        if not (SRC / "stratdual" / "__init__.py").is_file():
            raise BenchmarkError(f"no stratdual package under {SRC}")
        if not 0 < args.seconds <= 60:
            raise BenchmarkError("--seconds must be in (0, 60]")
        metrics, details, attempted, failed = measure(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": details.pop("numpy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "samples": details,
    }
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} calls)")
    if not args.trace:
        print(f"call_tail_ms is the p{details['call_tail_percentile']:.4g} "
              f"of {details['calls']} calls")
    for failure in details["failures"]:
        print(f"check failed: {failure}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
