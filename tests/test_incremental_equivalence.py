"""Reference core == incremental core == vector kernel, bit for bit.

Every scenario is simulated three times -- ``allocation="reference"``
(full scans per event, the pre-refactor cost model),
``allocation="incremental"`` (finish-time heap, residual accounting,
dirty-set rates, persistent scheduler view), and ``allocation="vector"``
(the incremental engine dispatching the numpy waterfilling kernel and
bulk ``set_rates``) -- and all runs must agree *exactly*: the same flow
records (starts, finishes, ideal finishes), the same task/compute
events, the same end time, and the same rate allocation at every
scheduler invocation.

Flow ids come from a global counter, so two builds of the same scenario
number their flows differently; comparisons use structural keys (src,
dst, size, group, index, job, tag) instead of ids. ``bytes_delivered``
accumulates in different orders between the modes (sync order vs. scan
order), so it alone is compared approximately.
"""

import random

import pytest

from repro.core.flow import Flow
from repro.core.units import gbps, megabytes
from repro.scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
    SincroniaScheduler,
)
from repro.scheduling.base import Scheduler
from repro.simulator import Engine
from repro.topology import big_switch, leaf_spine, two_hosts
from repro.workloads import (
    build_dp_allreduce,
    build_dp_ps,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    build_tp_megatron,
    uniform_model,
)

# ---------------------------------------------------------------------------
# comparison machinery
# ---------------------------------------------------------------------------


def _flow_key(flow: Flow):
    return (
        flow.src,
        flow.dst,
        flow.size,
        flow.group_id or "",
        flow.index_in_group,
        flow.job_id or "",
        flow.tag,
    )


class _RecordingScheduler(Scheduler):
    """Wraps a scheduler and logs every allocation, structurally keyed."""

    name = "recording"

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.log = []

    def allocate(self, view):
        rates = self.inner.allocate(view)
        entry = tuple(
            sorted(
                _flow_key(state.flow) + (rates.get(state.flow.flow_id, 0.0),)
                for state in view.active_states()
            )
        )
        self.log.append((view.now, view.trigger_cause, entry))
        return rates


def _run(engine_factory, scheduler_factory, allocation: str):
    recorder = _RecordingScheduler(scheduler_factory())
    engine = engine_factory(recorder, allocation)
    trace = engine.run()
    return engine, recorder, trace


def _flow_records_key(trace):
    return sorted(
        _flow_key(r.flow)
        + (r.start, r.finish, r.ideal_finish is None, r.ideal_finish or 0.0)
        for r in trace.flow_records
    )


def assert_equivalent(engine_factory, scheduler_factory):
    ref_engine, ref_rec, ref_trace = _run(
        engine_factory, scheduler_factory, "reference"
    )
    for mode in ("incremental", "vector"):
        inc_engine, inc_rec, inc_trace = _run(
            engine_factory, scheduler_factory, mode
        )

        # Identical traces: every delivered flow, exactly when it started
        # and finished, against exactly which deadline.
        assert _flow_records_key(inc_trace) == _flow_records_key(ref_trace)
        assert [
            (e.task_id, e.kind, e.time, e.job_id) for e in inc_trace.task_events
        ] == [(e.task_id, e.kind, e.time, e.job_id) for e in ref_trace.task_events]
        assert [
            (s.task_id, s.device, s.start, s.end, s.job_id, s.tag)
            for s in inc_trace.compute_spans
        ] == [
            (s.task_id, s.device, s.start, s.end, s.job_id, s.tag)
            for s in ref_trace.compute_spans
        ]
        assert inc_trace.end_time == ref_trace.end_time

        # Identical allocations at every single reschedule.
        assert inc_engine.scheduler_invocations == ref_engine.scheduler_invocations
        assert len(inc_rec.log) == len(ref_rec.log)
        for (inc_now, inc_cause, inc_rates), (ref_now, ref_cause, ref_rates) in zip(
            inc_rec.log, ref_rec.log
        ):
            assert inc_now == ref_now
            assert inc_cause == ref_cause
            assert inc_rates == ref_rates

        # Byte conservation agrees up to float association order.
        assert inc_engine.network.bytes_delivered == pytest.approx(
            ref_engine.network.bytes_delivered, rel=1e-9
        )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)


def _fig2_factory(scheduler, allocation):
    engine = Engine(two_hosts(1.0), scheduler, allocation=allocation)
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]
    )
    job.submit_to(engine)
    return engine


def _multijob_factory(interval):
    def factory(scheduler, allocation):
        topology = leaf_spine(
            n_leaves=4, hosts_per_leaf=4, host_bandwidth=gbps(10), oversubscription=2.0
        )
        engine = Engine(
            topology,
            scheduler,
            scheduling_interval=interval,
            allocation=allocation,
        )
        jobs = [
            build_pp_gpipe(
                "pp", _MODEL, ["h0", "h4", "h8", "h12"], num_micro_batches=4
            ),
            build_fsdp("fsdp", _MODEL, ["h1", "h5", "h9", "h13"]),
            build_dp_allreduce(
                "dp", _MODEL, ["h2", "h6", "h10", "h14"], bucket_bytes=megabytes(60)
            ),
        ]
        for job in jobs:
            job.submit_to(engine)
        return engine

    return factory


def _fsdp_factory(scheduler, allocation):
    topology = leaf_spine(
        n_leaves=2, hosts_per_leaf=2, host_bandwidth=gbps(10), oversubscription=2.0
    )
    engine = Engine(topology, scheduler, allocation=allocation)
    job = build_fsdp("fsdp", _MODEL, ["h0", "h1", "h2", "h3"])
    job.submit_to(engine)
    return engine


def _seeded_background_factory(interval):
    def factory(scheduler, allocation):
        topology = big_switch(8, host_bandwidth=4.0)
        engine = Engine(
            topology,
            scheduler,
            scheduling_interval=interval,
            allocation=allocation,
        )
        rng = random.Random(42)
        for i in range(60):
            src = rng.randrange(8)
            dst = (src + rng.randrange(1, 8)) % 8
            engine.inject_background_flow(
                Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=0.5 + rng.random() * 3.0,
                    job_id=f"job{i % 3}",
                    tag=f"bg{i}",
                ),
                at_time=rng.random() * 2.0,
            )
        return engine

    return factory


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


def test_fig2_echelon_equivalent():
    assert_equivalent(_fig2_factory, EchelonMaddScheduler)


def test_fig2_coflow_equivalent():
    assert_equivalent(_fig2_factory, CoflowMaddScheduler)


def test_fig2_fair_equivalent():
    assert_equivalent(_fig2_factory, FairSharingScheduler)


def test_multijob_echelon_per_event_equivalent():
    assert_equivalent(_multijob_factory(None), EchelonMaddScheduler)


def test_multijob_echelon_interval_equivalent():
    # Section 5's "per scheduling interval" rerun policy: departures do
    # not resync the allocation, so flows drain lazily across many events
    # between ticks -- the regime where the incremental core shortcuts
    # the most work.
    assert_equivalent(_multijob_factory(0.005), EchelonMaddScheduler)


def test_multijob_sincronia_equivalent():
    assert_equivalent(_multijob_factory(None), SincroniaScheduler)


def test_fsdp_echelon_equivalent():
    assert_equivalent(_fsdp_factory, EchelonMaddScheduler)


def test_fsdp_coflow_equivalent():
    assert_equivalent(_fsdp_factory, CoflowMaddScheduler)


def test_seeded_background_fair_per_event_equivalent():
    assert_equivalent(_seeded_background_factory(None), FairSharingScheduler)


def test_seeded_background_fair_interval_equivalent():
    assert_equivalent(_seeded_background_factory(0.25), FairSharingScheduler)


# ---------------------------------------------------------------------------
# Table-1 paradigms x scheduler matrix (reference == incremental == vector)
# ---------------------------------------------------------------------------

_SMALL = uniform_model(
    "u4",
    4,
    param_bytes_per_layer=megabytes(20),
    activation_bytes=megabytes(10),
    forward_time=0.004,
)

_HOSTS4 = ["h0", "h1", "h2", "h3"]


def _paradigm_factory(build):
    def factory(scheduler, allocation):
        engine = Engine(
            big_switch(5, host_bandwidth=gbps(10)),
            scheduler,
            allocation=allocation,
        )
        build().submit_to(engine)
        return engine

    return factory


_PARADIGMS = {
    "dp_allreduce": lambda: build_dp_allreduce(
        "dp", _SMALL, _HOSTS4, bucket_bytes=megabytes(40)
    ),
    "dp_ps": lambda: build_dp_ps(
        "ps", _SMALL, _HOSTS4, server="h4", bucket_bytes=megabytes(40)
    ),
    "pp_gpipe": lambda: build_pp_gpipe(
        "pp", _SMALL, _HOSTS4, num_micro_batches=2
    ),
    "fsdp": lambda: build_fsdp("fsdp", _SMALL, _HOSTS4),
    "tp_megatron": lambda: build_tp_megatron("tp", _SMALL, _HOSTS4),
}

_SCHEDULERS = {
    "echelon": EchelonMaddScheduler,
    "coflow": CoflowMaddScheduler,
    "fairshare": FairSharingScheduler,
}


@pytest.mark.parametrize("paradigm", sorted(_PARADIGMS))
@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_paradigm_matrix_equivalent(paradigm, scheduler):
    assert_equivalent(
        _paradigm_factory(_PARADIGMS[paradigm]), _SCHEDULERS[scheduler]
    )
