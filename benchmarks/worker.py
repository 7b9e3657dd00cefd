"""One benchmark process: set up a workload in a fresh interpreter, run it.

``run.py`` starts this script; it prints one JSON object on stdout.  The
set-up time runs from the first line of this file, before ``stratdual``
is imported, to the end of the warm-up round.  With ``--setup-only`` the
process stops there.  Otherwise it runs a single-threaded closed loop,
issuing each call only after the previous one returned, for ``--seconds``
seconds, timing a calibration kernel between rounds (see
:func:`calibrate`).  With ``--trace 1`` untraced and traced rounds alternate until
the workload's fixed number of traced rounds is done, so the per-layer
sums cover the same work whatever the speed of the code; untraced rounds
then fill the rest of the ``--seconds``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Time of :func:`calibrate` on the nominal host that untraced latencies
#: are scaled to.
NOMINAL_CALIBRATION_S = 0.5e-3


def _kernel(values) -> float:
    total = 0.0
    for i in range(4000):
        total += i * 0.5
    for _ in range(60):
        total += float(values[values.argsort()[::-1]] @ values)
    return total


def calibrate(values) -> float:
    """Seconds the host now takes for a fixed mix of interpreter loops
    and small-array numpy calls, the kind of work the library does.

    The speed of this host drifts by up to a factor of 1.8 over tens of
    seconds; the calibration time follows that drift, so a latency
    divided by it varies about four times less.  Median of three.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)

class Client:
    """Issues the calls of one workload and records each one."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.calls: list[dict] = []
        self.failures: list[str] = []
        self.accepted = 0
        self.estimates = 0
        self.rounds = 0

    def round(self, tracer=None) -> None:
        """Run one round: every label of the workload once, in order."""
        for label in self.workload.labels:
            first_span = len(tracer) if tracer is not None else 0
            start = time.perf_counter()
            try:
                output = self.workload.call(label)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted
                seconds = time.perf_counter() - start
                problems = [f"{label}: raised {exc!r}"]
                units = 0
            else:
                seconds = time.perf_counter() - start
                problems = self.workload.check(label, output)
                units = self.workload.units(label, output) if not problems else 0
                accepted, attempted = self.workload.estimates(output)
                self.accepted += accepted
                self.estimates += attempted
            self.failures += problems
            self.calls.append({
                "label": label, "units": units, "seconds": seconds,
                "traced": tracer is not None, "round": self.rounds,
                "failed": bool(problems),
                "spans": ((first_span, len(tracer)) if tracer is not None
                          else None),
            })
        self.rounds += 1

    def run(self, seconds: float, calibration=None) -> None:
        """Run whole untraced rounds until ``seconds`` have passed.

        With ``calibration`` (the array :func:`calibrate` works on), the
        host is calibrated before the first round and after each one, and
        each call gets a ``scaled`` latency: its latency times
        :data:`NOMINAL_CALIBRATION_S` over the mean calibration time of
        the two calibrations around its round.
        """
        start = time.perf_counter()
        before = calibrate(calibration) if calibration is not None else None
        while time.perf_counter() - start < seconds:
            first = len(self.calls)
            self.round()
            if calibration is not None:
                after = calibrate(calibration)
                scale = NOMINAL_CALIBRATION_S / (0.5 * (before + after))
                for call in self.calls[first:]:
                    call["scale"] = scale
                    call["scaled"] = scale * call["seconds"]
                before = after

    def run_traced(self, seconds: float, tracer) -> int:
        """Alternate untraced and traced rounds, then run untraced ones.

        The workload's ``traced_rounds`` traced rounds are run whatever
        the time they take; untraced rounds then fill the rest of
        ``seconds``.  Returns the number of calls of the alternating
        part, which gives ``trace_overhead_frac``.
        """
        start = time.perf_counter()
        for _ in range(self.workload.traced_rounds):
            self.round()
            tracer.install()
            try:
                self.round(tracer)
            finally:
                tracer.remove()
        alternating = len(self.calls)
        self.run(seconds - (time.perf_counter() - start))
        return alternating


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten calls beyond it.

    Returns ``(value, percentile)``: the 11th-largest latency, or the
    largest with ten calls or fewer.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def untraced_metrics(calls: list[dict]) -> dict:
    """End-to-end metrics of the timed calls, from their scaled latencies.

    ``ops_per_s`` is the units completed over the scaled time spent in
    calls during the timed phase; the benchmark's own output checks and
    calibrations are left out of that time.  The same metrics from the
    unscaled latencies are returned under ``raw``, with the median scale.
    """
    units = sum(c["units"] for c in calls)
    out = {"calls": len(calls), "units": units}
    for key, prefix in (("scaled", ""), ("seconds", "raw_")):
        latencies = [c[key] for c in calls]
        tail_s, tail_pct = tail(latencies)
        out[prefix + "ops_per_s"] = units / sum(latencies)
        out[prefix + "call_p50_ms"] = 1e3 * statistics.median(latencies)
        out[prefix + "call_tail_ms"] = 1e3 * tail_s
    out["call_tail_percentile"] = tail_pct
    out["median_scale"] = statistics.median(c["scale"] for c in calls)
    return out


def layer_metrics(client: Client, timed: list[dict], alternating: list[dict],
                  tracer) -> dict:
    """Per-layer metrics of a traced run.

    ``<module>.<function>.calls`` and ``.self_ms`` cover every traced
    span: set-up, the warm-up round and the fixed traced rounds.  A layer
    that never ran has no entry.  Per-command latencies come from the
    untraced rounds; ``trace_overhead_frac`` compares the traced rounds
    with the untraced ones they alternate with.
    """
    metrics: dict[str, float] = {}
    for layer, entry in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_ms"] = entry["self_ms"]
    untraced = [c for c in timed if not c["traced"]]
    prefix = client.workload.call_metric_prefix
    if prefix is not None:
        for label in client.workload.labels:
            times = [c["seconds"] for c in untraced if c["label"] == label]
            if times:
                metrics[f"{prefix}.{label}.call_p50_ms"] = (
                    1e3 * statistics.median(times))
    if client.estimates:
        metrics["estimators.accepted_frac"] = client.accepted / client.estimates
    rate = {}
    for group, traced in (("untraced", False), ("traced", True)):
        calls = [c for c in alternating if c["traced"] == traced]
        busy = sum(c["seconds"] for c in calls)
        rate[group] = sum(c["units"] for c in calls) / busy if busy else 0.0
    if rate["untraced"] and rate["traced"]:
        metrics["trace_overhead_frac"] = 1.0 - rate["traced"] / rate["untraced"]
    return metrics


def self_ms_by_label(client: Client, tracer) -> dict:
    """Self time per layer, summed separately for each call label."""
    out: dict[str, dict[str, float]] = {}
    for call in client.calls:
        if call["spans"] is None:
            continue
        per_label = out.setdefault(call["label"], {})
        for layer, entry in tracer.layer_totals(*call["spans"]).items():
            per_label[layer] = per_label.get(layer, 0.0) + entry["self_ms"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import numpy as np
    import tracing
    import workloads

    # A traced run traces set-up too: population generation and the
    # moments, optimizers and summaries computed there are layer work.
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.workdir)
    client = Client(workload)
    client.round(tracer)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.remove()

    result = {"setup_s": setup_s, "library": sys.modules["stratdual"].__file__,
              "numpy": sys.modules["numpy"].__version__}
    run_checks = []  # one run-level check after the timed phase
    if not args.setup_only:
        warmup = len(client.calls)
        if tracer is None:
            client.run(args.seconds, calibration=np.arange(256, dtype=float))
            timed = client.calls[warmup:]
            result.update(untraced_metrics(timed))
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            alternating = client.run_traced(args.seconds, tracer)
            timed = client.calls[warmup:]
            result["per_layer"] = layer_metrics(
                client, timed, client.calls[warmup:alternating], tracer)
            result["self_ms_by_label"] = self_ms_by_label(client, tracer)
            result["spans"] = len(tracer)
            result["traced_rounds"] = workload.traced_rounds
            result["calls_by_label"] = {
                label: sum(1 for c in timed if c["label"] == label)
                for label in workload.labels}
            if args.spans is not None:
                tracer.write(args.spans)
        run_checks.append(workload.final_check())
    result["attempted"] = len(client.calls) + len(run_checks)
    result["failed"] = (sum(1 for c in client.calls if c["failed"])
                        + sum(1 for problems in run_checks if problems))
    failures = client.failures + [p for problems in run_checks for p in problems]
    result["failures"] = failures[:20]
    result["rounds"] = client.rounds
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
