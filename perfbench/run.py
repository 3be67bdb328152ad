#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload bulk-fair --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced (whatif-warm
only times ``Engine.run`` calls, see ``workloads.RunMeter``);
``--trace 1`` is a separate run that records spans around each layer's
public calls and prints the per-layer metrics, plus the tracing overhead
(traced over untraced request time). Both runs check the program's
outputs; a failed check is printed on standard error, counted in
``failed`` and makes the exit code 1. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

A result file with a reproducibility manifest goes to
``perfbench/out/<workload>-seed<seed>-<mode>.json``; a traced run also
writes its spans to ``...-spans.json.gz``. See ``perfbench/README.md``
for the workloads, the metrics and how to read a traced run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("bulk-fair", "bulk-echelon", "whatif-warm", "fig7-lossy")

#: Service builds per what-if run; ``setup_s`` is their median.
WHATIF_SETUPS = 3
#: Warm-up passes stop one pass after the memo cache first reaches its
#: LRU limit (every later pass evicts as much as it adds), or here.
WHATIF_MAX_WARMUP = 8
#: Set-ups a simulation run times before its window, besides the one
#: each request does; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 8
#: A simulation loop gives up after this many failed requests in a row.
MAX_CONSECUTIVE_FAILURES = 3
#: One calibration pass's duration on the host these figures were taken
#: on (two vCPUs of a shared Xeon, Python 3.11) at its fastest.
CALIBRATION_REFERENCE_S = 0.02


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def calibrate() -> float:
    """Seconds one fixed pure-Python pass (dict reads and writes) takes."""
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostSpeed:
    """Scales host times to the reference speed of the calibration pass.

    A shared host runs the same work up to 1.6x slower in phases that
    last from seconds to minutes, longer than one run, so no statistic
    inside a run removes them. The calibration pass slows with the
    host: timing it before and after each stretch of measured work and
    scaling the stretch by ``CALIBRATION_REFERENCE_S`` over their mean
    at least halved the spread of 20 s medians on such a host. The raw
    times and the factors go to the result file.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list = []

    def restart(self) -> None:
        """Forget the work done since the last calibration."""
        self.last = calibrate()

    def factor(self) -> float:
        """The scale for the work done since the previous calibration."""
        now = calibrate()
        factor = CALIBRATION_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


def _latency_metrics(latencies) -> dict:
    return {
        "query_qps": (len(latencies) / sum(latencies), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (_p90(latencies) * 1e3, "ms"),
    }


class Checks:
    """Counts attempted operations and collects every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                message = f"{what}: {problem}"
                self.problems.append(message)
                print(f"perfbench: CHECK FAILED {message}", file=sys.stderr)


def _manifest(args, params: dict, digests: dict) -> dict:
    import numpy

    return {
        "git": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "parameters": params,
        "digests": digests,
    }


def _git_revision() -> dict:
    """Revision and dirty flag, when the checkout is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10,
        )
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"revision": None, "dirty": None}
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


# ----------------------------------------------------------------------
# simulation workloads: bulk-fair, bulk-echelon, fig7-lossy
# ----------------------------------------------------------------------


def _simulate_checked(workload, seed: int, checks: Checks, label: str, reference):
    """One request; its failures (and a digest mismatch) go to ``checks``."""
    try:
        request = workload.simulate(seed)
    except Exception:  # a failed request is counted, reported, not fatal
        checks.record(label, [traceback.format_exc()])
        return None
    problems = list(request.problems)
    if reference is not None and request.digest != reference.digest:
        problems.append(
            f"trace digest {request.digest[:16]} != the same input's first "
            f"digest {reference.digest[:16]}"
        )
    checks.record(label, problems)
    return request


def _extra_setups(workload, args, speed: HostSpeed) -> list:
    """SETUP_REPEATS set-ups outside the window, for a steadier median.

    Returns ``(raw seconds, scale)`` pairs.
    """
    import workloads as wl

    times = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        ready = workload.setup(wl.input_seed(args.seed, index % workload.inputs))
        elapsed = time.perf_counter() - start
        del ready
        times.append((elapsed, speed.factor()))
    return times


def _simulation_loop(workload, args, checks: Checks, tracer=None, speed=None):
    """Requests cycle through the run's inputs until the window ends.

    Every input is simulated at least twice. Each request's trace must
    digest like the first (untraced) request on the same input. With a
    tracer, an untraced and a traced request alternate on each input,
    at least once per input.
    With ``speed``, each untraced request gets the host-speed scale
    measured around it. Returns ``(firsts, untraced, traced, scales)``;
    ``firsts`` maps an input index to its first untraced request.
    """
    import workloads as wl

    firsts, untraced, traced, scales = {}, [], [], []
    failures_in_row = 0
    index = 0
    start = time.perf_counter()
    minimum = workload.inputs if tracer is not None else 2 * workload.inputs
    while index < minimum or time.perf_counter() - start < args.seconds:
        k = index % workload.inputs
        index += 1
        seed = wl.input_seed(args.seed, k)
        request = _simulate_checked(
            workload, seed, checks, f"input {k} request", firsts.get(k)
        )
        if speed is not None:
            factor = speed.factor()
        if request is not None:
            untraced.append(request)
            firsts.setdefault(k, request)
            if speed is not None:
                scales.append(factor)
            if tracer is not None:
                with tracer:
                    request = _simulate_checked(
                        workload, seed, checks, f"input {k} traced request", firsts[k]
                    )
                    tracer.fold()
                if request is not None:
                    traced.append(request)
        if request is None:
            failures_in_row += 1
            if failures_in_row >= MAX_CONSECUTIVE_FAILURES:
                break
            continue
        failures_in_row = 0
    return firsts, untraced, traced, scales


def _input_digests(firsts) -> dict:
    return {f"trace_digest_input{k}": r.digest for k, r in sorted(firsts.items())}


def run_simulation(workload, args, checks: Checks):
    speed = HostSpeed()
    setups = _extra_setups(workload, args, speed)
    firsts, requests, _traced, scales = _simulation_loop(
        workload, args, checks, speed=speed
    )
    if len(firsts) < workload.inputs:
        return None, {}, {}
    setups += [(r.setup_s, f) for r, f in zip(requests, scales)]
    inputs = [firsts[k] for k in sorted(firsts)]
    run_s = sum(r.run_s * f for r, f in zip(requests, scales))
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "sim_flows_per_s": (sum(r.flows for r in requests) / run_s, "1/s"),
        **_latency_metrics([r.latency_s * f for r, f in zip(requests, scales)]),
        "sim_makespan_s": (statistics.fmean(r.makespan for r in inputs), "s"),
        "sim_mean_jct_s": (statistics.fmean(r.mean_jct for r in inputs), "s"),
        "sim_tardiness_s": (statistics.fmean(r.tardiness for r in inputs), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {
        "requests": len(requests),
        "raw_latency_s": [r.latency_s for r in requests],
        "raw_run_s": [r.run_s for r in requests],
        "request_scales": scales,
        "raw_setup_s_and_scale": setups,
    }
    return metrics, _input_digests(firsts), detail


def trace_simulation(workload, args, checks: Checks, tracer):
    """Per-layer metrics; the overhead is median traced over untraced."""
    from tracing import layer_metrics

    firsts, untraced, requests, _scales = _simulation_loop(
        workload, args, checks, tracer
    )
    if not requests:
        return None, {}, {}
    n = len(requests)
    summed = {}
    for request in requests:
        for key, value in request.counters.items():
            summed[key] = summed.get(key, 0) + value
    rounds = summed.get("rounds", 0)
    sent = summed.get("rpc_sent", 0)
    counters = {
        "runtime.stale_ratio": summed.get("stale_rounds", 0) / rounds if rounds else 0.0,
        "runtime.degraded_rounds": summed.get("degraded_rounds", 0) / n,
        "runtime.checkpoints": summed.get("checkpoints", 0) / n,
        "runtime.failovers": summed.get("failovers", 0) / n,
        "runtime.heartbeats_lost": summed.get("heartbeats_lost", 0) / n,
        "rpc.sent": sent / n,
        "rpc.delivered_ratio": summed.get("rpc_delivered", 0) / sent if sent else 0.0,
        "trace.overhead_ratio": statistics.median(r.latency_s for r in requests)
        / statistics.median(r.latency_s for r in untraced),
    }
    metrics = layer_metrics(tracer, n, counters)
    return metrics, _input_digests(firsts), {
        "traced_requests": n,
        "untraced_latency_s": [r.latency_s for r in untraced],
        "traced_latency_s": [r.latency_s for r in requests],
    }


# ----------------------------------------------------------------------
# whatif-warm
# ----------------------------------------------------------------------


def _warm_service(args, speed=None):
    """Build the service and warm it up.

    With ``speed`` (an untraced run, which reports ``setup_s``) the
    service is built WHATIF_SETUPS times, the last one kept. Returns the
    service, the queries, the warm-up pass's answers, the builds'
    ``(raw seconds, scale)`` pairs and the digests.
    """
    import workloads as wl
    from repro.simulator.trace import trace_digest

    setups = []
    service = None
    builds = WHATIF_SETUPS if speed is not None else 1
    for _ in range(builds):
        service = None  # let the previous service go before building anew
        start = time.perf_counter()
        service = wl.build_service()
        elapsed = time.perf_counter() - start
        setups.append((elapsed, speed.factor() if speed is not None else 1.0))
    queries = wl.whatif_queries(args.seed)
    memo = service.engine.scheduler
    results = []
    filled = False
    for _ in range(WHATIF_MAX_WARMUP):
        results = service.run_batch(queries, mode="warm", detail="deltas")
        if filled:
            break
        filled = len(memo._cache) >= memo.max_entries
    digests = {
        "baseline_trace_digest": trace_digest(service.baseline_trace),
        "answer_digest": wl.answer_digest(results),
    }
    return service, queries, results, setups, digests


def _whatif_pass(service, queries, reference, checks: Checks):
    """One pass; each answer must equal the warm-up pass's.

    Returns the answers and each answered query's latency.
    """
    import workloads as wl

    expected = {r.query.describe(): wl.answer(r) for r in reference}
    results, latencies = [], []
    for spec in queries:
        start = time.perf_counter()
        try:
            result = service.run_query(spec, mode="warm", detail="deltas")
        except Exception:  # counted and reported like a failed check
            checks.record(spec, [traceback.format_exc()])
            continue
        latencies.append(time.perf_counter() - start)
        answer = wl.answer(result)
        checks.record(
            spec,
            [] if answer == expected[answer[0]]
            else ["answer differs from the warm-up pass's answer"],
        )
        results.append(result)
    return results, latencies


def run_whatif(args, checks: Checks):
    """Warm passes until the window ends, each scaled by host speed."""
    import workloads as wl

    speed = HostSpeed()
    service, queries, reference, setups, digests = _warm_service(args, speed)
    latencies, run_s, flows, raw_passes = [], 0.0, 0, []
    speed.restart()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < args.seconds:
        with wl.RunMeter() as meter:
            results, pass_latencies = _whatif_pass(
                service, queries, reference, checks
            )
        factor = speed.factor()
        latencies += [t * factor for t in pass_latencies]
        run_s += meter.seconds * factor
        flows += meter.flows
        raw_passes.append(sum(pass_latencies))
        if not results:
            break
    if not latencies:
        return None, {}, {}
    for spec, problems in wl.compare_cold(service, queries, reference):
        checks.record(f"cold {spec}", problems)
    makespan, jct, tardiness = wl.answer_outputs(reference)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "sim_flows_per_s": (flows / run_s, "1/s"),
        **_latency_metrics(latencies),
        "sim_makespan_s": (makespan, "s"),
        "sim_mean_jct_s": (jct, "s"),
        "sim_tardiness_s": (tardiness, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, digests, {
        "queries": queries,
        "answered": len(latencies),
        "raw_pass_s": raw_passes,
        "pass_scales": speed.factors[len(setups):],
        "raw_setup_s_and_scale": setups,
    }


def trace_whatif(args, checks: Checks, tracer):
    """Untraced and traced passes alternate until the window ends."""
    from tracing import layer_metrics

    service, queries, reference, _setups, digests = _warm_service(args)
    untraced, traced, answered = [], [], 0
    window_start = time.perf_counter()
    while not traced or time.perf_counter() - window_start < args.seconds:
        start = time.perf_counter()
        _whatif_pass(service, queries, reference, checks)
        untraced.append(time.perf_counter() - start)
        with tracer:
            start = time.perf_counter()
            results, latencies = _whatif_pass(service, queries, reference, checks)
            traced.append(time.perf_counter() - start)
            tracer.fold()
        answered += len(latencies)
        if not results:
            break
    memo = service.engine.scheduler
    counters = {
        "cache.entries": len(memo._cache),
        "whatif.handles": len(service._handles),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    }
    metrics = layer_metrics(tracer, answered, counters)
    return metrics, digests, {
        "traced_queries": answered,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: the program's source (src/repro) is missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from tracing import Tracer

    checks = Checks()
    tracer = Tracer() if args.trace else None
    if args.workload == "whatif-warm":
        params = {
            "service": wl.WHATIF_SERVICE,
            "detail": "deltas",
            "cold_sample": list(wl.COLD_SAMPLE),
        }
        if tracer is None:
            metrics, digests, detail = run_whatif(args, checks)
        else:
            metrics, digests, detail = trace_whatif(args, checks, tracer)
    else:
        workload = wl.WORKLOADS[args.workload]
        params = workload.params()
        if tracer is None:
            metrics, digests, detail = run_simulation(workload, args, checks)
        else:
            metrics, digests, detail = trace_simulation(workload, args, checks, tracer)
    if metrics is None:
        print("perfbench: no request completed; no result", file=sys.stderr)
        return 1

    if tracer is not None:
        # Per-layer values are plain numbers; their units are fixed by name.
        metrics = {name: (value, _layer_unit(name)) for name, value in metrics.items()}
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    mode = "traced" if tracer is not None else "untraced"
    report = {
        "manifest": _manifest(args, params, digests),
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": error_rate,
        "problems": checks.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-{mode}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        with gzip.open(stem.with_name(stem.name + "-spans.json.gz"), "wt") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "note": "spans of the first traced request",
                    "spans": tracer.kept,
                },
                handle,
            )

    print(f"{args.workload} seed={args.seed} {mode}: "
          f"{checks.attempted} attempted, {checks.failed} failed "
          f"(error_rate {error_rate:g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_rate")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
