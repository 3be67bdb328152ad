"""The four benchmark workloads and the output checks on each request.

Every workload is a closed loop with one client: the next request is
issued only after the previous one returns. A request is one complete
simulation for ``bulk-fair``, ``bulk-echelon`` and ``fig7-lossy``, and
one what-if query for ``whatif-warm``. Inputs are a pure function of the
workload seed; the program receives only the generated inputs.

The sanitizer is forced off on every engine regardless of
``REPRO_CHECK`` (``sanitizer=False``) and each engine is asserted to run
without one; allocation stays at the engine's default ``auto`` mode, as
users get it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.echelonflow import total_tardiness
from repro.core.flow import Flow
from repro.core.units import gbps
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.simulator import Engine
from repro.simulator.trace import trace_digest
from repro.system.framework import FrameworkInstance
from repro.system.runtime import ControlPlaneRuntime, ControlPlaneScheduler
from repro.topology import big_switch
from repro.whatif import WhatIfService
from repro.whatif import workload as whatif_workload


@dataclass
class Request:
    """What one request produced: timings, outputs, and check failures."""

    setup_s: float
    latency_s: float
    run_s: float
    flows: int
    digest: str
    makespan: float
    mean_jct: float
    tardiness: float
    problems: List[str] = field(default_factory=list)
    #: Program counters read after the request (per-layer metrics).
    counters: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# bulk-fair / bulk-echelon: the bench_scale scenario
# ----------------------------------------------------------------------

BULK_HOSTS = 64
BULK_JOBS = 8
BULK_GROUP = 16
BULK_TICK = 0.2


class BulkWorkload:
    """All flows injected at t=0 on ``big_switch(64)``, 0.2 s ticks.

    The ``bench_scale`` ``build_engine`` scenario: host bandwidth scales
    with the flow count so the simulated horizon stays O(1), and flow
    sizes ``1 + U(0, 1)`` come from the workload seed so completions
    stagger into separate rounds.
    """

    def __init__(self, name: str, scheduler: str, n_flows: int, inputs: int) -> None:
        self.name = name
        self.scheduler = scheduler
        self.n_flows = n_flows
        self.inputs = inputs

    def params(self) -> Dict:
        return {
            "topology": f"big_switch({BULK_HOSTS})",
            "scheduler": self.scheduler,
            "flows": self.n_flows,
            "jobs": BULK_JOBS,
            "group_size": BULK_GROUP,
            "scheduling_interval": BULK_TICK,
            "allocation": "auto",
            "inputs_per_run": self.inputs,
        }

    def setup(self, seed: int) -> Engine:
        """The ready engine: every flow injected, nothing run yet."""
        with use_flow_id_allocator(FlowIdAllocator()):
            return self._setup(seed)

    def _setup(self, seed: int) -> Engine:
        bandwidth = max(1.0, self.n_flows / BULK_HOSTS)
        scheduler = (
            FairSharingScheduler()
            if self.scheduler == "fair"
            else EchelonMaddScheduler()
        )
        engine = Engine(
            big_switch(BULK_HOSTS, host_bandwidth=bandwidth, name="perfbench"),
            scheduler,
            scheduling_interval=BULK_TICK,
            sanitizer=False,
        )
        rng = random.Random(seed)
        for i in range(self.n_flows):
            src = i % BULK_HOSTS
            dst = (i + 1 + (i // BULK_HOSTS) % (BULK_HOSTS - 1)) % BULK_HOSTS
            if dst == src:
                dst = (dst + 1) % BULK_HOSTS
            job = i % BULK_JOBS
            engine.inject_background_flow(
                Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=1.0 + rng.random(),
                    group_id=f"job{job}/g{i // (BULK_JOBS * BULK_GROUP)}",
                    index_in_group=(i // BULK_JOBS) % BULK_GROUP,
                    job_id=f"job{job}",
                    tag="bench",
                ),
                at_time=0.0,
            )
        return engine

    def simulate(self, seed: int) -> Request:
        start = time.perf_counter()
        engine = self.setup(seed)
        ready = time.perf_counter()
        trace = engine.run()
        done = time.perf_counter()
        problems = _no_sanitizer(engine)
        records = trace.flow_records
        if len(records) != self.n_flows or engine.network.active_count:
            problems.append(
                f"{len(records)} of {self.n_flows} flows completed, "
                f"{engine.network.active_count} still active"
            )
        job_finish: Dict[str, float] = {}
        group_span: Dict[str, Tuple[float, float]] = {}
        for record in records:
            flow = record.flow
            job_finish[flow.job_id] = max(
                job_finish.get(flow.job_id, 0.0), record.finish
            )
            first, last = group_span.get(flow.group_id, (record.start, record.finish))
            group_span[flow.group_id] = (
                min(first, record.start),
                max(last, record.finish),
            )
        if len(job_finish) != BULK_JOBS:
            problems.append(f"{len(job_finish)} of {BULK_JOBS} jobs completed")
        return Request(
            setup_s=ready - start,
            latency_s=done - start,
            run_s=done - ready,
            flows=len(records),
            digest=trace_digest(trace),
            makespan=trace.end_time,
            # Every flow arrives at t=0, so a job's completion time is its
            # last flow's finish.
            mean_jct=statistics.fmean(job_finish.values()) if job_finish else 0.0,
            # Each group is a coflow (Property 2): its head flow starts at
            # t=0, every member's ideal finish is that reference, and its
            # Eq. 2 tardiness is the group's last finish minus it.
            tardiness=sum(last - first for first, last in group_span.values()),
            problems=problems,
        )


# ----------------------------------------------------------------------
# fig7-lossy: the Fig. 7 control plane under loss and a failover
# ----------------------------------------------------------------------

#: (paradigm, arrival) of the eight tenants -- the what-if baseline's
#: cycle: four hosts each on big_switch(16), two iterations per job.
TENANTS: Tuple[Tuple[str, float], ...] = (
    ("dp", 0.0),
    ("fsdp", 0.02),
    ("pp", 0.05),
    ("dp", 0.08),
    ("tp", 0.11),
    ("fsdp", 0.15),
    ("dp", 0.2),
    ("fsdp", 0.22),
)
CLUSTER_HOSTS = 16
HOSTS_PER_JOB = 4
ITERATIONS = 2
#: The workload clock: roughly the fault-free makespan of the tenant set
#: (simulated seconds). Fault times, RPC delays and liveness knobs scale
#: with it, as the control-plane chaos suite scales them.
CLOCK = 1.5


class ControlPlaneWorkload:
    """Eight DAG tenants through the fault-tolerant Fig. 7 runtime.

    The RPC channel drops 10% of messages with delay, timeouts and
    retries (the chaos suite's ``lossy_channel``), and the coordinator
    crashes once mid-run and fails over (``crash_coordinator``). The
    channel seed is the workload seed.
    """

    name = "fig7-lossy"
    inputs = 4

    def params(self) -> Dict:
        return {
            "topology": f"big_switch({CLUSTER_HOSTS})",
            "tenants": [f"{p}@{a}" for p, a in TENANTS],
            "iterations": ITERATIONS,
            "rpc": self._rpc_spec(),
            "faults": self._fault_spec(),
            "lease": 0.05 * CLOCK,
            "heartbeat": 0.01 * CLOCK,
            "inputs_per_run": self.inputs,
        }

    @staticmethod
    def _rpc_spec() -> str:
        t = CLOCK
        return (
            f"drop=0.1,delay={0.003 * t:.6g},timeout={0.003 * t:.6g},"
            f"backoff={0.001 * t:.6g}"
        )

    @staticmethod
    def _fault_spec() -> str:
        return f"crash_coordinator@{0.25 * CLOCK:.6g}+{0.1 * CLOCK:.6g}"

    def setup(self, seed: int):
        """``(engine, runtime, arrivals)``: tenants launched, not run."""
        with use_flow_id_allocator(FlowIdAllocator()):
            return self._setup(seed)

    def _setup(self, seed: int):
        jobs = []
        for index, (paradigm, arrival) in enumerate(TENANTS):
            first = (index * HOSTS_PER_JOB) % CLUSTER_HOSTS
            workers = [
                f"h{(first + i) % CLUSTER_HOSTS}" for i in range(HOSTS_PER_JOB)
            ]
            # Looked up on the module so a traced run sees the call.
            job = whatif_workload.build_paradigm_job(
                paradigm, f"{paradigm}{index}", workers, iterations=ITERATIONS
            )
            jobs.append((job, arrival))
        runtime = ControlPlaneRuntime(
            rpc=self._rpc_spec(),
            seed=seed,
            lease=0.05 * CLOCK,
            heartbeat=0.01 * CLOCK,
        )
        # The wiring of repro.system.runtime.run_control_cluster, split so
        # the engine's set-up and its run are timed apart.
        engine = Engine(
            big_switch(CLUSTER_HOSTS, gbps(10)),
            ControlPlaneScheduler(runtime),
            faults=self._fault_spec(),
            sanitizer=False,
        )
        for job, arrival in jobs:
            agent = runtime.spawn_agent(job.job_id)
            FrameworkInstance(job=job, agent=agent, arrival_time=arrival).launch(
                engine
            )
        return engine, runtime, {job.job_id: arrival for job, arrival in jobs}

    def simulate(self, seed: int) -> Request:
        start = time.perf_counter()
        engine, runtime, arrivals = self.setup(seed)
        ready = time.perf_counter()
        trace = engine.run()
        done = time.perf_counter()
        problems = _no_sanitizer(engine)
        if sorted(engine.completed_jobs) != sorted(arrivals):
            problems.append(
                f"jobs completed {sorted(engine.completed_jobs)} != "
                f"submitted {sorted(arrivals)}"
            )
        if engine.network.active_count:
            problems.append(f"{engine.network.active_count} flows still active")
        jcts = []
        tardiness = 0.0
        try:
            for job_id, arrival in arrivals.items():
                jcts.append(engine.job_completion_time(job_id) - arrival)
            tardiness = total_tardiness(
                engine.echelonflows.values(), trace.actual_finish_times()
            )
        except (KeyError, ValueError, RuntimeError) as exc:
            problems.append(f"incomplete job or EchelonFlow: {exc}")
        counters = dict(runtime.counters)
        counters.update({f"rpc_{k}": v for k, v in runtime.channel.stats.items()})
        return Request(
            setup_s=ready - start,
            latency_s=done - start,
            run_s=done - ready,
            flows=len(trace.flow_records),
            digest=trace_digest(trace),
            makespan=trace.end_time,
            mean_jct=statistics.fmean(jcts) if jcts else 0.0,
            tardiness=tardiness,
            problems=problems,
            counters=counters,
        )


def _no_sanitizer(engine: Engine) -> List[str]:
    if engine.check is not None:
        return ["a sanitizer is attached to a benchmark engine"]
    return []


# ----------------------------------------------------------------------
# whatif-warm: repeated what-if sweeps against one warm service
# ----------------------------------------------------------------------

WHATIF_SERVICE = {"hosts": 16, "jobs": 8, "iterations": 2}
#: Query kinds answered cold as well, to check warm == cold.
COLD_SAMPLE = ("degrade_link", "kill_link", "add_tenant")
#: Relative agreement required between warm and cold answers (the memo
#: cache's fingerprint quantum).
COLD_TOLERANCE = 1e-9


def whatif_queries(seed: int) -> List[str]:
    """The 17-query ``bench_whatif`` sweep, marks jittered by the seed.

    Five late-run marks (50..90% of the baseline makespan, each moved by
    up to 2 points) times three kinds, one ``add_tenant`` and one
    ``remove_job``; the order is shuffled by the seed.
    """
    rng = random.Random(seed)
    queries = []
    for base in (50, 60, 70, 80, 90):
        mark = round(base + rng.uniform(-2.0, 2.0), 1)
        queries.append(f"degrade_link:h1-core@{mark}%+8%,factor=0.5")
        queries.append(f"kill_link:h2-core@{mark}%+5%")
        queries.append(f"submit_job:dp@{mark}%")
    queries.append(f"add_tenant:fsdp@{round(70 + rng.uniform(-2.0, 2.0), 1)}%,jobs=2")
    queries.append("remove_job:fsdp7@0")
    rng.shuffle(queries)
    return queries


def build_service() -> WhatIfService:
    """The baseline service; its build runs the baseline simulation."""
    service = WhatIfService.build(sanitizer=False, **WHATIF_SERVICE)
    if service.engine.check is not None:
        raise RuntimeError("a sanitizer is attached to the what-if baseline")
    return service


class RunMeter:
    """Host seconds inside ``Engine.run`` and the flows those calls finish.

    The what-if service runs its engines internally, so this one wrapper
    around ``Engine.run`` (two calls per query) is how the benchmark
    sees flow completions per host second of simulation.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.flows = 0
        self._original = None

    def __enter__(self) -> "RunMeter":
        original = self._original = Engine.__dict__["run"]
        meter = self

        def run(engine, *args, **kwargs):
            before = len(engine.trace.flow_records)
            start = time.perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                meter.seconds += time.perf_counter() - start
                meter.flows += len(engine.trace.flow_records) - before

        Engine.run = run
        return self

    def __exit__(self, *exc) -> None:
        Engine.run = self._original


def answer_digest(results) -> str:
    """SHA-256 over every answer's makespan, JCTs and tardiness."""
    hasher = hashlib.sha256()
    for result in sorted(results, key=lambda r: r.query.describe()):
        hasher.update(repr(answer(result)).encode())
    return hasher.hexdigest()


def answer(result) -> Tuple:
    """The comparable part of a what-if answer; its first item is the query."""
    return (
        result.query.describe(),
        result.variant_makespan,
        sorted((k, v["variant"]) for k, v in result.jct.items()),
        sorted((k, v["variant"]) for k, v in result.tardiness.items()),
        result.added_jobs,
        result.removed_jobs,
    )


def answer_outputs(results) -> Tuple[float, float, float]:
    """Mean variant makespan, mean variant JCT, mean total tardiness."""
    makespans, jcts, tardiness = [], [], []
    for result in results:
        makespans.append(result.variant_makespan)
        values = [v["variant"] for v in result.jct.values() if v["variant"] is not None]
        jcts.append(statistics.fmean(values) if values else 0.0)
        tardiness.append(
            sum(v["variant"] for v in result.tardiness.values() if v["variant"] is not None)
        )
    return (
        statistics.fmean(makespans),
        statistics.fmean(jcts),
        statistics.fmean(tardiness),
    )


def compare_cold(service: WhatIfService, queries, warm_results):
    """Answer the cold sample from scratch; yields (spec, problems)."""
    by_query = {r.query.describe(): r for r in warm_results}
    for kind in COLD_SAMPLE:
        spec = next(q for q in queries if q.startswith(kind + ":"))
        cold = service.run_query(spec, mode="cold", detail="deltas")
        warm = by_query[cold.query.describe()]
        close = _close(answer(warm), answer(cold))
        yield spec, [] if close else ["warm answer != cold answer"]


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= COLD_TOLERANCE * max(1.0, abs(a), abs(b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def input_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th distinct input."""
    return seed * 100 + index


#: ``inputs``: distinct inputs per run. A run cycles through them so its
#: ``sim_*`` figures (their mean) and its work depend less on one draw;
#: every input is simulated at least once and repeats must digest alike.
WORKLOADS = {
    "bulk-fair": BulkWorkload("bulk-fair", "fair", 50_000, inputs=1),
    "bulk-echelon": BulkWorkload("bulk-echelon", "echelon", 5_000, inputs=8),
    "fig7-lossy": ControlPlaneWorkload(),
}
