"""Declarative experiment specs: a JSON-able dict in, results out.

Reviewers and users should be able to describe an experiment without
writing Python. A spec names a topology, a scheduler, and a list of jobs;
:func:`run_spec` builds and runs everything and returns plain-data
results. The CLI exposes this as ``python -m repro run-spec spec.json``.

Example spec::

    {
      "topology": {"kind": "big_switch", "hosts": 8, "bandwidth_gbps": 10},
      "scheduler": {"name": "echelon", "ordering": "hybrid"},
      "jobs": [
        {"name": "bert", "paradigm": "fsdp", "model": "bert_large",
         "workers": 4, "arrival": 0.0},
        {"name": "resnet", "paradigm": "dp-allreduce", "model": "resnet50",
         "workers": 4, "arrival": 0.01, "bucket_mb": 25}
      ]
    }

Workers may be an integer (hosts assigned first-fit in spec order) or an
explicit host list.

An optional ``"faults"`` key takes a chaos spec (string grammar or JSON
list, see ``docs/robustness.md``); the scheduler is then wrapped in a
:class:`~repro.faults.ResilientScheduler` so crash faults degrade
gracefully.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..core.units import gbps, megabytes
from ..scheduling import make_scheduler
from ..simulator.engine import Engine
from ..topology import big_switch, dumbbell, fat_tree, leaf_spine, linear_chain
from .dp import build_dp_allreduce, build_dp_ps
from .fsdp import build_fsdp
from .job import BuiltJob
from .pp import build_pp_1f1b, build_pp_gpipe, build_pp_interleaved
from .tp import build_tp_megatron
from .zoo import get_model

PARADIGMS = (
    "dp-allreduce",
    "dp-ps",
    "pp-gpipe",
    "pp-1f1b",
    "pp-interleaved",
    "tp",
    "fsdp",
)


class SpecError(ValueError):
    """The spec is malformed."""


def _build_topology(spec: Dict):
    kind = spec.get("kind", "big_switch")
    bandwidth = gbps(float(spec.get("bandwidth_gbps", 10.0)))
    if kind == "big_switch":
        return big_switch(int(spec["hosts"]), bandwidth)
    if kind == "linear_chain":
        return linear_chain(int(spec["hosts"]), bandwidth)
    if kind == "leaf_spine":
        return leaf_spine(
            n_leaves=int(spec.get("leaves", 2)),
            hosts_per_leaf=int(spec.get("hosts_per_leaf", 4)),
            host_bandwidth=bandwidth,
            n_spines=int(spec.get("spines", 2)),
            oversubscription=float(spec.get("oversubscription", 1.0)),
        )
    if kind == "fat_tree":
        return fat_tree(int(spec.get("k", 4)), bandwidth)
    if kind == "dumbbell":
        return dumbbell(
            n_left=int(spec.get("left", 2)),
            n_right=int(spec.get("right", 2)),
            host_bandwidth=bandwidth,
            bottleneck_bandwidth=gbps(
                float(spec.get("bottleneck_gbps", spec.get("bandwidth_gbps", 10.0)))
            ),
        )
    raise SpecError(f"unknown topology kind {kind!r}")


def _resolve_workers(
    job_spec: Dict, hosts: Sequence[str], cursor: int
) -> (List[str], int):
    workers = job_spec.get("workers", 2)
    if isinstance(workers, int):
        if cursor + workers > len(hosts):
            raise SpecError(
                f"job {job_spec.get('name')!r} needs {workers} hosts but only "
                f"{len(hosts) - cursor} remain unassigned"
            )
        chosen = list(hosts[cursor : cursor + workers])
        return chosen, cursor + workers
    if isinstance(workers, (list, tuple)):
        missing = [w for w in workers if w not in hosts]
        if missing:
            raise SpecError(f"unknown hosts in worker list: {missing}")
        return list(workers), cursor
    raise SpecError(f"workers must be an int or a host list, got {workers!r}")


def _build_job(job_spec: Dict, workers: List[str], extra_host: Optional[str]) -> BuiltJob:
    name = job_spec.get("name")
    if not name:
        raise SpecError("every job needs a 'name'")
    paradigm = job_spec.get("paradigm", "dp-allreduce")
    if paradigm not in PARADIGMS:
        raise SpecError(f"unknown paradigm {paradigm!r}; options: {PARADIGMS}")
    model = get_model(
        job_spec.get("model", "resnet50"),
        batch_scale=float(job_spec.get("batch_scale", 1.0)),
    )
    iterations = int(job_spec.get("iterations", 1))
    bucket = megabytes(float(job_spec.get("bucket_mb", 50.0)))
    micro_batches = int(job_spec.get("micro_batches", 4))
    if paradigm == "dp-allreduce":
        return build_dp_allreduce(
            name, model, workers, bucket_bytes=bucket, iterations=iterations,
            algorithm=job_spec.get("allreduce", "ring"),
        )
    if paradigm == "dp-ps":
        if extra_host is None:
            raise SpecError("dp-ps needs a spare host for the parameter server")
        return build_dp_ps(
            name, model, workers, extra_host, bucket_bytes=bucket,
            iterations=iterations,
        )
    if paradigm == "pp-gpipe":
        return build_pp_gpipe(name, model, workers, micro_batches, iterations)
    if paradigm == "pp-1f1b":
        return build_pp_1f1b(name, model, workers, micro_batches, iterations)
    if paradigm == "pp-interleaved":
        return build_pp_interleaved(
            name, model, workers, micro_batches, iterations=iterations,
            virtual_stages=int(job_spec.get("virtual_stages", 2)),
        )
    if paradigm == "tp":
        return build_tp_megatron(name, model, workers, iterations=iterations)
    return build_fsdp(
        name, model, workers, iterations=iterations,
        prefetch_limit=int(job_spec.get("prefetch_limit", 2)),
    )


def run_spec(
    spec: Dict,
    *,
    instrumentation=None,
    profile: bool = False,
    faults=None,
    detail: bool = False,
):
    """Build and run a spec; returns plain-data per-job results.

    ``instrumentation`` (a :class:`repro.obs.Instrumentation`) observes
    the run; ``profile`` wraps the scheduler in a
    :class:`repro.obs.ProfiledScheduler` (reachable afterwards as
    ``engine.scheduler``). ``faults`` (a spec string or
    :class:`repro.faults.FaultSchedule`) injects runtime faults; it
    overrides the spec's own ``"faults"`` key, and either form wraps the
    scheduler in a :class:`repro.faults.ResilientScheduler`. With
    ``detail=True`` the return value is the triple
    ``(results, trace, engine)`` instead of just ``results``, so callers
    can export traces and metrics reports.
    """
    if "jobs" not in spec or not spec["jobs"]:
        raise SpecError("spec needs a non-empty 'jobs' list")
    topology = _build_topology(spec.get("topology", {"hosts": 4}))
    scheduler_spec = dict(spec.get("scheduler", {"name": "echelon"}))
    scheduler_name = scheduler_spec.pop("name", "echelon")
    scheduler = make_scheduler(scheduler_name, **scheduler_spec)
    if faults is None:
        faults = spec.get("faults")
    if faults:
        from ..faults import FaultSchedule, ResilientScheduler

        # Parse and validate against the topology now, so a typo'd link
        # in the chaos spec fails the build instead of firing mid-run.
        if isinstance(faults, str):
            faults = FaultSchedule.parse(faults)
        elif isinstance(faults, (list, dict)):
            faults = FaultSchedule.from_json(faults)
        if isinstance(faults, FaultSchedule):
            faults.validate_links(topology)
        scheduler = ResilientScheduler(scheduler)
    if profile:
        from ..obs import ProfiledScheduler

        registry = instrumentation.registry if instrumentation is not None else None
        scheduler = ProfiledScheduler(scheduler, registry=registry)
    engine = Engine(
        topology,
        scheduler,
        scheduling_interval=spec.get("scheduling_interval"),
        device_slots=spec.get("device_slots", 1),
        instrumentation=instrumentation,
        faults=faults or None,
    )
    hosts = topology.hosts
    cursor = 0
    jobs: List[BuiltJob] = []
    for job_spec in spec["jobs"]:
        workers, cursor = _resolve_workers(job_spec, hosts, cursor)
        extra_host = hosts[cursor] if cursor < len(hosts) else None
        if job_spec.get("paradigm") == "dp-ps" and isinstance(
            job_spec.get("workers", 2), int
        ):
            cursor += 1  # the PS consumed one more host
        job = _build_job(job_spec, workers, extra_host)
        job.submit_to(engine, at_time=float(job_spec.get("arrival", 0.0)))
        jobs.append(job)
    trace = engine.run()
    results = {
        "makespan": trace.end_time,
        "scheduler": scheduler_name,
        "scheduler_invocations": engine.scheduler_invocations,
        "jobs": {},
    }
    for job, job_spec in zip(jobs, spec["jobs"]):
        arrival = float(job_spec.get("arrival", 0.0))
        completion = engine.job_completion_time(job.job_id)
        results["jobs"][job.job_id] = {
            "paradigm": job.paradigm,
            "completion_time": completion - arrival,
            "flows": len(trace.flows_of_job(job.job_id)),
        }
    if detail:
        return results, trace, engine
    return results


def run_spec_file(path: str, **kwargs):
    """Load a JSON spec from disk and run it (kwargs as in run_spec)."""
    with open(path) as handle:
        spec = json.load(handle)
    return run_spec(spec, **kwargs)
