"""Instrumented incremental core == instrumented reference core.

The incremental-equivalence suite proves the two cores simulate the same
run; this one proves they *observe* the same run: with a full
Instrumentation attached (event log, link timelines, rate recorder,
live-tardiness series), ``allocation="incremental"`` and
``allocation="reference"`` must produce identical recordings.

Flow ids come from a global counter, so events are compared after
normalizing every flow id (and task ``flow_ids`` list) to the flow's
structural key; everything else must match field-for-field, in order.
"""

import pytest

from repro.core.units import gbps, megabytes
from repro.obs import Instrumentation, JsonlEventLog
from repro.scheduling import make_scheduler
from repro.simulator import Engine
from repro.topology import leaf_spine, two_hosts
from repro.workloads import (
    build_dp_allreduce,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    uniform_model,
)

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)


def _fig2_engine(scheduler, obs, allocation):
    engine = Engine(
        two_hosts(1.0), scheduler, instrumentation=obs, allocation=allocation
    )
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )
    job.submit_to(engine)
    return engine


def _multijob_engine(scheduler, obs, allocation):
    topology = leaf_spine(
        n_leaves=4, hosts_per_leaf=4, host_bandwidth=gbps(10), oversubscription=2.0
    )
    engine = Engine(
        topology, scheduler, instrumentation=obs, allocation=allocation
    )
    jobs = [
        build_pp_gpipe("pp", _MODEL, ["h0", "h4", "h8", "h12"], num_micro_batches=4),
        build_fsdp("fsdp", _MODEL, ["h1", "h5", "h9", "h13"]),
        build_dp_allreduce(
            "dp", _MODEL, ["h2", "h6", "h10", "h14"], bucket_bytes=megabytes(60)
        ),
    ]
    for job in jobs:
        job.submit_to(engine)
    return engine


def _run_instrumented(engine_factory, scheduler_name, allocation):
    obs = Instrumentation(event_log=JsonlEventLog())
    engine = engine_factory(make_scheduler(scheduler_name), obs, allocation)
    trace = engine.run()
    return trace, obs


def _id_to_key(events):
    """flow id -> structural identity, from the log's own events."""
    keys = {}
    for event in events:
        if event.get("ev") in ("flow_injected", "flow_finished"):
            keys[event["flow_id"]] = (
                event.get("src"),
                event.get("dst"),
                event.get("size"),
                event.get("group") or "",
                event.get("index", 0),
                event.get("job") or "",
                event.get("tag") or "",
            )
    return keys


def _normalized_events(log):
    keys = _id_to_key(log.events)
    out = []
    for event in log.events:
        event = dict(event)
        if "flow_id" in event:
            event["flow_id"] = keys[event["flow_id"]]
        if "flow_ids" in event:
            event["flow_ids"] = sorted(keys[fid] for fid in event["flow_ids"])
        out.append(event)
    return out


def _normalized_rate_segments(obs):
    keys = _id_to_key(obs.event_log.events)
    recorder = obs.rate_recorder
    return {
        keys[flow_id]: segments
        for flow_id, segments in recorder.segments.items()
    }


def assert_instrumented_equivalent(engine_factory, scheduler_name):
    ref_trace, ref_obs = _run_instrumented(
        engine_factory, scheduler_name, "reference"
    )
    inc_trace, inc_obs = _run_instrumented(
        engine_factory, scheduler_name, "incremental"
    )

    # Identical event logs (up to run-local flow numbering).
    assert _normalized_events(inc_obs.event_log) == _normalized_events(
        ref_obs.event_log
    )

    # Identical link-utilization timelines, segment for segment.
    assert inc_obs.link_timeline.capacities == ref_obs.link_timeline.capacities
    assert set(inc_obs.link_timeline.segments) == set(
        ref_obs.link_timeline.segments
    )
    for key, inc_series in inc_obs.link_timeline.segments.items():
        ref_series = ref_obs.link_timeline.segments[key]
        assert len(inc_series) == len(ref_series), key
        for inc_seg, ref_seg in zip(inc_series, ref_series):
            assert inc_seg[:2] == ref_seg[:2], key
            assert inc_seg[2] == pytest.approx(ref_seg[2], abs=1e-9), key

    # Identical live-tardiness series.
    assert inc_obs.tardiness_series == ref_obs.tardiness_series

    # Identical per-flow allocated-rate histories.
    assert _normalized_rate_segments(inc_obs) == _normalized_rate_segments(
        ref_obs
    )
    assert inc_obs.rate_recorder.evicted_flows == 0
    assert ref_obs.rate_recorder.evicted_flows == 0

    # And, of course, the same simulation underneath.
    assert inc_trace.end_time == ref_trace.end_time
    assert len(inc_trace.flow_records) == len(ref_trace.flow_records)


def test_fig2_fair_instrumented_equivalent():
    assert_instrumented_equivalent(_fig2_engine, "fair")


def test_fig2_echelon_instrumented_equivalent():
    assert_instrumented_equivalent(_fig2_engine, "echelon")


def test_multijob_echelon_instrumented_equivalent():
    assert_instrumented_equivalent(_multijob_engine, "echelon")


def test_multijob_coflow_instrumented_equivalent():
    assert_instrumented_equivalent(_multijob_engine, "coflow")
