#!/usr/bin/env python
"""Scale sweep: reference vs. incremental vs. vectorized simulation core.

Sweeps the number of simultaneously-active flows (default 100 -> 100k) on
a multi-job big-switch scenario and times a full engine run per allocation
mode: ``reference`` (full scans per event -- the pre-refactor cost model),
``incremental`` (finish-time heap, residual link accounting, dirty-set
rates, persistent scheduler view), and ``vector`` (the numpy waterfilling
kernel over interned dense incidence plus bulk ``set_rates``). All modes
produce the same simulation by construction; every point cross-checks
bit-identity through a normalized per-flow trace digest before recording
wall-clock seconds and the speedups.

Every sweep point runs each mode once as a warm-up (discarded), then
``SWEEP_REPEATS`` times; the report gives each mode's median seconds
and inter-quartile range, and speedups are ratios of medians. The
report carries a manifest (git revision, seed, scheduler, sizes and
every point's trace digest) so a number can be traced back to the run
that made it.

The reference core is O(n^2) per run, so the sweep caps it at
``REFERENCE_CAP`` flows (a 10k reference run already takes minutes; 100k
would take hours). Above the cap the sweep still runs -- and still
cross-checks -- incremental vs. vector. ``--huge`` appends a best-effort
1M-flow point (vector and incremental only; budget an hour).

The scenario is shaped so the hot path dominates: all flows are injected
up front (one arrival round), the engine runs in scheduling-interval mode
(so the coordinator reruns on ticks, not per departure), and flow sizes
are drawn from a seeded RNG so the n completions stagger into n separate
rounds.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --sizes 100,1000
    PYTHONPATH=src python benchmarks/bench_scale.py --huge          # adds 1M
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke         # CI guard
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke --scheduler echelon

``--smoke`` runs small points a few times and compares three *time
ratios* -- each the median over ``SMOKE_REPEATS`` attempts -- against the
checked-in baseline of the chosen ``--scheduler``
(``benchmarks/results/bench_scale_baseline.json``, keyed by scheduler):

* ``ratio``: incremental / reference (the core speedup),
* ``instrumented_ratio``: instrumented-incremental / incremental (the
  full observability stack must stay cheap),
* ``vector_ratio``: vector / incremental at ``VECTOR_SMOKE_FLOWS`` flows
  (the vector kernel must stay ahead of the scalar incremental path at a
  size past the auto-select threshold).

Ratios are machine-independent to first order, so the step fails only
when a mode itself regresses (> 2x its baseline ratio), not when CI
hardware is slow -- and the failure message names the regressed mode.
Exit code 1 on regression or equivalence mismatch.

See ``docs/performance.md`` for how to read the JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.flow import Flow
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.simulator import Engine
from repro.topology import big_switch

RESULTS_DIR = ROOT / "benchmarks" / "results"
REPORT_PATH = RESULTS_DIR / "bench_scale.json"
BASELINE_PATH = RESULTS_DIR / "bench_scale_baseline.json"

N_HOSTS = 64
N_JOBS = 8
GROUP_SIZE = 16
#: Coordinator rerun tick (interval mode); sized so a run sees roughly
#: ten ticks. Few enough that the per-event hot path still dominates the
#: reference-vs-incremental comparison (the reference core's O(n^2)
#: event scans dwarf its per-tick scheduler cost), but enough coordinator
#: reruns that the allocation path -- what the vector kernel accelerates
#: -- is a first-class term of the incremental-vs-vector comparison at
#: every scale instead of being amortized away over a 2-simulated-second
#: horizon.
TICK = 0.2
#: Largest point the O(n^2) reference core runs at in a sweep. Past it
#: the sweep compares vector against incremental only.
REFERENCE_CAP = 10_000
#: The best-effort point ``--huge`` appends (vector + incremental only).
HUGE_FLOWS = 1_000_000
#: Regression threshold for --smoke: fail when a mode's median time
#: ratio exceeds the checked-in baseline ratio by more than this.
SMOKE_FACTOR = 2.0
SMOKE_FLOWS = 400
#: The vector guard runs past the auto-select threshold
#: (``VECTOR_AUTO_THRESHOLD``, 256 flows) so it measures the path the
#: engine would actually pick at this size.
VECTOR_SMOKE_FLOWS = 4000
SMOKE_REPEATS = 3
#: Measured runs per (point, mode) in a full sweep, after one warm-up.
SWEEP_REPEATS = 3

MODES = ("reference", "incremental", "vector")


def _make_scheduler(name: str):
    if name == "fair":
        return FairSharingScheduler()
    if name == "echelon":
        return EchelonMaddScheduler()
    raise ValueError(f"unknown scheduler {name!r} (choose fair or echelon)")


def build_engine(
    n_flows: int,
    mode: str,
    seed: int,
    scheduler: str,
    instrumentation=None,
) -> Engine:
    """A multi-job all-to-all scenario with ``n_flows`` concurrent flows.

    Host bandwidth scales with n so each flow's fair rate stays ~1 and
    the simulated horizon stays ~O(1) regardless of scale. Flows carry
    job ids and group ids (8 jobs, 16-flow groups) so the network's
    group-bucket maintenance is part of what gets measured.
    """
    if mode not in MODES:
        raise ValueError(f"unknown allocation mode {mode!r} (choose from {MODES})")
    bandwidth = max(1.0, n_flows / N_HOSTS)
    topology = big_switch(N_HOSTS, host_bandwidth=bandwidth, name="bench-scale")
    engine = Engine(
        topology,
        _make_scheduler(scheduler),
        scheduling_interval=TICK,
        allocation=mode,
        instrumentation=instrumentation,
        # The sanitizer (repro.check) is forced off regardless of any
        # REPRO_CHECK in the environment: this benchmark measures the bare
        # hot path, and CI runs it in the same job that sets REPRO_CHECK
        # for the test suite. With check=None each hook site costs one
        # attribute test, which sits on the measured path -- so the
        # ratio guards in --smoke also catch any disabled-sanitizer
        # overhead creeping into the engine spine.
        sanitizer=False,
    )
    rng = random.Random(seed)
    for i in range(n_flows):
        src = i % N_HOSTS
        dst = (i + 1 + (i // N_HOSTS) % (N_HOSTS - 1)) % N_HOSTS
        if dst == src:
            dst = (dst + 1) % N_HOSTS
        job = i % N_JOBS
        engine.inject_background_flow(
            Flow(
                src=f"h{src}",
                dst=f"h{dst}",
                size=1.0 + rng.random(),
                group_id=f"job{job}/g{i // (N_JOBS * GROUP_SIZE)}",
                index_in_group=(i // N_JOBS) % GROUP_SIZE,
                job_id=f"job{job}",
                tag="bench",
            ),
            at_time=0.0,
        )
    return engine


def _trace_digest(trace) -> str:
    """A stable digest of the per-flow schedule, id-normalized.

    Flow ids come from a process-global allocator, so two engines built
    for the same scenario hold different absolute ids; subtracting each
    trace's smallest id makes the digests comparable. Start/finish times
    are hashed at full ``repr`` precision, so two modes share a digest
    only when every flow's schedule agrees bit for bit.
    """
    records = trace.flow_records
    if not records:
        return hashlib.sha256(b"empty").hexdigest()
    base = min(record.flow.flow_id for record in records)
    normalized = sorted(
        (record.flow.flow_id - base, record.start, record.finish)
        for record in records
    )
    return hashlib.sha256(repr(normalized).encode()).hexdigest()


def run_once(
    n_flows: int,
    mode: str,
    seed: int,
    scheduler: str,
    instrumented: bool = False,
) -> dict:
    instrumentation = None
    if instrumented:
        from repro.obs import Instrumentation, JsonlEventLog

        # The full recording stack the CLI obs flags would install.
        instrumentation = Instrumentation(event_log=JsonlEventLog())
    engine = build_engine(
        n_flows, mode, seed, scheduler, instrumentation=instrumentation
    )
    start = time.perf_counter()
    trace = engine.run()
    elapsed = time.perf_counter() - start
    return {
        "mode": mode,
        "seconds": elapsed,
        "completed": len(trace.flow_records),
        "end_time": trace.end_time,
        "bytes_delivered": engine.network.bytes_delivered,
        "scheduler_invocations": engine.scheduler_invocations,
        "trace_digest": _trace_digest(trace),
    }


def _check_equivalent(n_flows: int, a: dict, b: dict) -> list:
    """Both modes must have simulated the identical run, bit for bit."""
    mode_a, mode_b = a["mode"], b["mode"]
    problems = []
    if a["completed"] != b["completed"] or a["completed"] != n_flows:
        problems.append(
            f"completions differ: {mode_a}={a['completed']} "
            f"{mode_b}={b['completed']} expected={n_flows}"
        )
    if a["end_time"] != b["end_time"]:
        problems.append(
            f"end_time differs: {mode_a}={a['end_time']!r} "
            f"{mode_b}={b['end_time']!r}"
        )
    if a["scheduler_invocations"] != b["scheduler_invocations"]:
        problems.append(
            f"scheduler invocations differ: {mode_a}="
            f"{a['scheduler_invocations']} {mode_b}="
            f"{b['scheduler_invocations']}"
        )
    if a["trace_digest"] != b["trace_digest"]:
        problems.append(
            f"per-flow trace digest differs ({mode_a} vs {mode_b}): the "
            f"modes disagree on some flow's start/finish at full float "
            f"precision"
        )
    # Bytes accumulate in different orders between the modes (sync order
    # vs. scan order): equal only up to float association.
    scale = max(1.0, abs(a["bytes_delivered"]))
    if abs(a["bytes_delivered"] - b["bytes_delivered"]) > 1e-6 * scale:
        problems.append(
            f"bytes_delivered differ: {mode_a}={a['bytes_delivered']!r} "
            f"{mode_b}={b['bytes_delivered']!r}"
        )
    return problems


def _git_revision() -> dict:
    """Revision and dirty flag, when the checkout is a git work tree."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"revision": None, "dirty": None}
        revision = git("rev-parse", "HEAD").stdout.strip() or None
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": revision, "dirty": dirty}


def _repeated(n_flows: int, mode: str, seed: int, scheduler: str) -> dict:
    """One warm-up run, then ``SWEEP_REPEATS`` timed runs of one mode.

    Returns the first timed run with ``seconds`` replaced by the median
    and the spread added; every repeat must digest alike.
    """
    run_once(n_flows, mode, seed=seed, scheduler=scheduler)
    runs = [
        run_once(n_flows, mode, seed=seed, scheduler=scheduler)
        for _ in range(SWEEP_REPEATS)
    ]
    for other in runs[1:]:
        problems = _check_equivalent(n_flows, runs[0], other)
        if problems:
            raise SystemExit(
                "repeat of %s at n=%d differs:\n  %s"
                % (mode, n_flows, "\n  ".join(problems))
            )
    samples = sorted(run["seconds"] for run in runs)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return dict(
        runs[0],
        seconds=statistics.median(samples),
        iqr=q3 - q1,
        samples=samples,
    )


def sweep(sizes, seed: int, scheduler: str) -> dict:
    points = []
    for n_flows in sizes:
        runs = {}
        modes = [m for m in MODES if m != "reference" or n_flows <= REFERENCE_CAP]
        if "reference" not in modes:
            print(
                f"[bench_scale] n={n_flows}: skipping reference "
                f"(O(n^2) past REFERENCE_CAP={REFERENCE_CAP})",
                flush=True,
            )
        for mode in modes:
            print(f"[bench_scale] n={n_flows}: {mode} ...", flush=True)
            runs[mode] = _repeated(n_flows, mode, seed=seed, scheduler=scheduler)
            print(
                f"[bench_scale] n={n_flows}: {mode} median "
                f"{runs[mode]['seconds']:.3f}s (IQR {runs[mode]['iqr']:.3f}s "
                f"over {SWEEP_REPEATS} warm runs)",
                flush=True,
            )
        problems = _check_equivalent(n_flows, runs["incremental"], runs["vector"])
        if "reference" in runs:
            problems += _check_equivalent(
                n_flows, runs["reference"], runs["incremental"]
            )
        if problems:
            raise SystemExit(
                "mode equivalence violated at n=%d:\n  %s"
                % (n_flows, "\n  ".join(problems))
            )
        inc_s = runs["incremental"]["seconds"]
        vec_s = runs["vector"]["seconds"]
        point = {"n_flows": n_flows}
        for mode, run in runs.items():
            point[f"{mode}_seconds"] = round(run["seconds"], 6)
            point[f"{mode}_iqr_seconds"] = round(run["iqr"], 6)
            point[f"{mode}_samples"] = [round(x, 6) for x in run["samples"]]
        point.update({
            "vector_speedup": round(inc_s / vec_s, 2) if vec_s > 0 else None,
            "completed_flows": runs["incremental"]["completed"],
            "sim_end_time": runs["incremental"]["end_time"],
            "scheduler_invocations": runs["incremental"]["scheduler_invocations"],
            "trace_digest": runs["incremental"]["trace_digest"],
        })
        if "reference" in runs:
            ref_s = runs["reference"]["seconds"]
            point["speedup"] = round(ref_s / inc_s, 2) if inc_s > 0 else None
        print(
            f"[bench_scale] n={n_flows}: vector speedup "
            f"{point['vector_speedup']}x over incremental"
            + (
                f", incremental {point['speedup']}x over reference"
                if "speedup" in point
                else ""
            ),
            flush=True,
        )
        points.append(point)
    top = max(points, key=lambda p: p["n_flows"])
    return {
        "benchmark": "bench_scale",
        "manifest": {
            "git": _git_revision(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seed": seed,
            "scheduler": scheduler,
            "sizes": [p["n_flows"] for p in points],
            "warmup_runs": 1,
            "repeats": SWEEP_REPEATS,
            "digests": {str(p["n_flows"]): p["trace_digest"] for p in points},
        },
        "scenario": {
            "topology": f"big_switch({N_HOSTS})",
            "scheduler": scheduler,
            "scheduling_interval": TICK,
            "jobs": N_JOBS,
            "group_size": GROUP_SIZE,
            "seed": seed,
            "reference_cap": REFERENCE_CAP,
        },
        "sweep": points,
        "top": {
            "n_flows": top["n_flows"],
            "vector_speedup": top["vector_speedup"],
        },
    }


def _guard(name: str, median_ratio: float, baseline_ratio) -> bool:
    """One named ratio guard; prints the verdict, True when it passes."""
    if baseline_ratio is None:
        print(
            f"[bench_scale] smoke: no baseline for {name}; skipping its guard"
        )
        return True
    allowed = SMOKE_FACTOR * baseline_ratio
    print(
        f"[bench_scale] smoke [{name}]: median ratio {median_ratio:.3f}, "
        f"baseline {baseline_ratio:.3f}, allowed <= {allowed:.3f}"
    )
    if median_ratio > allowed:
        print(
            f"[bench_scale] REGRESSION in {name}: median time ratio "
            f"{median_ratio:.3f} exceeds {SMOKE_FACTOR}x the baseline "
            f"({baseline_ratio:.3f})",
            file=sys.stderr,
        )
        return False
    return True


def smoke(seed: int, scheduler: str) -> int:
    """CI guard: fail -- naming the mode -- when any core regresses."""
    try:
        baselines = json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        print(f"[bench_scale] missing baseline {BASELINE_PATH}", file=sys.stderr)
        return 1
    baseline = baselines.get(scheduler)
    if baseline is None:
        print(
            f"[bench_scale] no {scheduler!r} baseline in {BASELINE_PATH}",
            file=sys.stderr,
        )
        return 1
    # Benchmark hygiene: no sanitizer may ride along with the timed
    # engines, REPRO_CHECK or not -- otherwise the ratios measure the
    # checker, not the core.
    probe = build_engine(8, "incremental", seed=seed, scheduler=scheduler)
    if probe.check is not None:
        print(
            "[bench_scale] smoke FAILED: sanitizer attached to a benchmark "
            "engine (engine.check should be None)",
            file=sys.stderr,
        )
        return 1
    ratios = []
    instr_ratios = []
    vector_ratios = []
    for attempt in range(SMOKE_REPEATS):
        ref = run_once(SMOKE_FLOWS, "reference", seed=seed, scheduler=scheduler)
        inc = run_once(SMOKE_FLOWS, "incremental", seed=seed, scheduler=scheduler)
        obs = run_once(
            SMOKE_FLOWS,
            "incremental",
            seed=seed,
            scheduler=scheduler,
            instrumented=True,
        )
        vec_base = run_once(
            VECTOR_SMOKE_FLOWS, "incremental", seed=seed, scheduler=scheduler
        )
        vec = run_once(VECTOR_SMOKE_FLOWS, "vector", seed=seed, scheduler=scheduler)
        problems = _check_equivalent(SMOKE_FLOWS, ref, inc)
        # Instrumentation must observe, never perturb: the instrumented
        # run is the same simulation as the bare incremental one.
        problems += [
            "instrumented run: " + p for p in _check_equivalent(SMOKE_FLOWS, inc, obs)
        ]
        problems += _check_equivalent(VECTOR_SMOKE_FLOWS, vec_base, vec)
        if problems:
            print(
                "[bench_scale] smoke equivalence FAILED:\n  " + "\n  ".join(problems),
                file=sys.stderr,
            )
            return 1
        ratios.append(inc["seconds"] / ref["seconds"])
        instr_ratios.append(obs["seconds"] / inc["seconds"])
        vector_ratios.append(vec["seconds"] / vec_base["seconds"])
        print(
            f"[bench_scale] smoke attempt {attempt + 1}/{SMOKE_REPEATS}: "
            f"incremental/reference {ratios[-1]:.3f} "
            f"({inc['seconds']:.3f}s / {ref['seconds']:.3f}s), "
            f"instrumented overhead {instr_ratios[-1]:.3f}x "
            f"({obs['seconds']:.3f}s), vector/incremental "
            f"{vector_ratios[-1]:.3f} ({vec['seconds']:.3f}s / "
            f"{vec_base['seconds']:.3f}s @ n={VECTOR_SMOKE_FLOWS})",
            flush=True,
        )
    ok = _guard(
        "incremental core (incremental/reference)",
        statistics.median(ratios),
        baseline.get("ratio"),
    )
    ok &= _guard(
        "instrumentation (instrumented/incremental)",
        statistics.median(instr_ratios),
        baseline.get("instrumented_ratio"),
    )
    ok &= _guard(
        "vector kernel (vector/incremental)",
        statistics.median(vector_ratios),
        baseline.get("vector_ratio"),
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="100,1000,10000,100000",
        help="comma-separated active-flow counts to sweep",
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help=f"append a best-effort {HUGE_FLOWS}-flow point to the sweep",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scheduler", default="fair", choices=("fair", "echelon"),
        help="coordinator algorithm driving the run",
    )
    parser.add_argument(
        "--out", default=str(REPORT_PATH), help="JSON report destination"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-scale regression guard against the checked-in baseline",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(args.seed, args.scheduler)

    sizes = {int(s) for s in args.sizes.split(",") if s.strip()}
    if args.huge:
        sizes.add(HUGE_FLOWS)
    report = sweep(sorted(sizes), args.seed, args.scheduler)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_scale] report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
