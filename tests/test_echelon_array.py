"""The array path of ``EchelonMaddScheduler.allocate`` against the scalar one.

The array path is taken whenever the network's kernel decision lands on
the vector path. It must return the scalar path's rates bit for bit --
same values, same keys, same key order -- so whole runs under
``allocation="reference"`` and ``allocation="vector"`` must share every
trace digest, and single ``allocate`` calls on random flow mixes must
return equal dicts.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.arrangement import (
    CoflowArrangement,
    StaggeredArrangement,
    TabledArrangement,
)
from repro.core.echelonflow import EchelonFlow
from repro.core.flow import Flow
from repro.scheduling import ORDERINGS, EchelonMaddScheduler
from repro.scheduling.base import SchedulerView
from repro.scheduling.echelon_madd import ANCHORS
from repro.simulator import Engine
from repro.simulator.network import NetworkModel
from repro.simulator.trace import trace_digest
from repro.topology import ShortestPathRouter, big_switch, leaf_spine

# ----------------------------------------------------------------- whole runs


def _scenario_run(allocation, scheduler):
    """Registered multi-stage EchelonFlows (staggered and tabled, weights
    other than 1), unregistered groups and ungrouped background flows on
    ``big_switch(6)``, with a link taken to 0 capacity mid-run."""
    engine = Engine(
        big_switch(6, host_bandwidth=4.0),
        scheduler,
        allocation=allocation,
        faults="link_down:h1-core@0.7+0.8",
    )
    rng = random.Random(5)
    echelonflows = [
        ("pp", StaggeredArrangement(0.3), 2.0, "j1", 0.0),
        ("tab", TabledArrangement([0.0, 0.1, 0.5, 0.9]), 0.5, "j2", 0.2),
        ("cof", CoflowArrangement(), 1.0, "j1", 0.4),
    ]
    for ef_id, arrangement, weight, job, start in echelonflows:
        ef = EchelonFlow(ef_id, arrangement, job_id=job, weight=weight)
        engine.register_echelonflow(ef)
        for index in range(4):
            # Two flows per index: every stage is a Coflow of two.
            for _ in range(2):
                src = rng.randrange(6)
                dst = (src + rng.randrange(1, 6)) % 6
                flow = Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=0.5 + rng.random(),
                    group_id=ef_id,
                    index_in_group=index,
                    job_id=job,
                )
                ef.add_flow(flow)
                engine.inject_background_flow(flow, at_time=start + 0.05 * index)
    for i in range(24):
        src = rng.randrange(6)
        dst = (src + rng.randrange(1, 6)) % 6
        engine.inject_background_flow(
            Flow(
                src=f"h{src}",
                dst=f"h{dst}",
                size=0.3 + 2.0 * rng.random(),
                group_id=f"loose{i % 3}" if i % 2 else None,
                index_in_group=i % 4,
                job_id=f"bg{i % 2}",
            ),
            at_time=round(rng.random() * 1.5, 2),
        )
    trace = engine.run()
    assert not engine.network.active_count
    return trace_digest(trace), engine.scheduler_invocations


@pytest.mark.parametrize("backfill", [True, False], ids=["backfill", "paced"])
@pytest.mark.parametrize("anchor", ANCHORS)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_reference_and_vector_runs_share_the_trace_digest(ordering, anchor, backfill):
    def run(allocation):
        scheduler = EchelonMaddScheduler(
            ordering=ordering, anchor=anchor, backfill=backfill
        )
        with use_flow_id_allocator(FlowIdAllocator()):
            return _scenario_run(allocation, scheduler)

    assert run("vector") == run("reference")


# --------------------------------------------------------- single allocations


def _topology(kind):
    if kind == "big_switch":
        return big_switch(6, host_bandwidth=3.0)
    return leaf_spine(3, 2, host_bandwidth=3.0, n_spines=2, oversubscription=2.0)


@st.composite
def _flow_mixes(draw):
    kind = draw(st.sampled_from(["big_switch", "leaf_spine"]))
    hosts = _topology(kind).hosts
    n_flows = draw(st.integers(0, 40))
    flows = []
    for _ in range(n_flows):
        src, dst = draw(
            st.lists(st.sampled_from(hosts), min_size=2, max_size=2, unique=True)
        )
        flows.append(
            (
                src,
                dst,
                draw(st.floats(0.0, 1.0)),  # remaining, as a fraction of size
                draw(st.sampled_from([None, "ga", "gb", "gc", "loose"])),
                draw(st.integers(0, 3)),  # arrangement index
                draw(st.sampled_from([0.0, 0.25, 0.5])),  # start time
                draw(st.sampled_from([None, 0.0, 0.4, 1.3])),  # cached deadline
            )
        )
    return {
        "kind": kind,
        "flows": flows,
        "weights": draw(
            st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3)
        ),
        "now": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "dead_links": draw(st.lists(st.integers(0, 1000), max_size=3)),
    }


def _view(mix, allocation):
    """One network holding the mix, in the given allocation mode."""
    topology = _topology(mix["kind"])
    network = NetworkModel(
        topology, ShortestPathRouter(topology), allocation=allocation
    )
    arrangements = {
        "ga": (StaggeredArrangement(0.2), "j0"),
        "gb": (TabledArrangement([0.0, 0.0, 0.7, 0.9]), "j1"),
        "gc": (CoflowArrangement(), None),
    }
    echelonflows = {}
    for (ef_id, (arrangement, job)), weight in zip(
        arrangements.items(), mix["weights"]
    ):
        ef = EchelonFlow(ef_id, arrangement, job_id=job, weight=weight)
        ef.set_reference_time(0.1)
        echelonflows[ef_id] = ef
    with use_flow_id_allocator(FlowIdAllocator()):
        for i, spec in enumerate(mix["flows"]):
            src, dst, fraction, group, index, start, cached = spec
            flow = Flow(
                src,
                dst,
                1.0 + i,
                group_id=group,
                index_in_group=index,
                job_id=f"j{i % 2}",
            )
            if group in echelonflows:
                echelonflows[group].add_flow(flow)
            state = network.inject(flow, start)
            state.remaining = fraction * flow.size
            state.ideal_finish_time = cached
    links = sorted(network.link_capacities())
    for pick in mix["dead_links"] if links else ():
        network.set_link_capacity(links[pick % len(links)], 0.0)
    return SchedulerView(now=mix["now"], network=network, echelonflows=echelonflows)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    mix=_flow_mixes(),
    config=st.sampled_from(list(itertools.product(ORDERINGS, ANCHORS, [True, False]))),
)
def test_array_allocate_returns_the_scalar_dict(mix, config):
    ordering, anchor, backfill = config
    scheduler = EchelonMaddScheduler(
        ordering=ordering, anchor=anchor, backfill=backfill
    )
    scalar_view = _view(mix, "reference")
    array_view = _view(mix, "vector")
    assert not scalar_view.flow_demands().use_vector
    assert array_view.flow_demands().use_vector
    scalar = scheduler.allocate(scalar_view)
    with np.errstate(all="raise"):
        array = scheduler.allocate(array_view)
    assert array == scalar
    assert list(array) == list(scalar)


def test_link_columns_are_interned_lazily_and_dropped_on_retire():
    topology = big_switch(4, host_bandwidth=1.0)
    network = NetworkModel(topology, ShortestPathRouter(topology))
    a = network.inject(Flow("h0", "h1", 1.0), 0.0).flow.flow_id
    b = network.inject(Flow("h2", "h1", 1.0), 0.0).flow.flow_id
    assert network.column_keys() == []  # nothing interned at inject
    cols_a, cols_b = network.link_columns([a, b])
    keys = network.column_keys()
    assert [keys[c] for c in cols_a] == [link.key for link in network.path(a)]
    assert [keys[c] for c in cols_b] == [link.key for link in network.path(b)]
    assert cols_a[1] == cols_b[1]  # the shared core->h1 link, one column
    twin = network.fork()
    assert twin.link_columns([b]) == [cols_b]
    assert twin.column_keys() == keys and twin.column_keys() is not keys
    network.set_rates({a: 1.0})
    network.advance(1.0, 0.0)
    assert a not in network._flow_columns
    assert b in network._flow_columns


def test_link_columns_are_dropped_on_reroute():
    topology = leaf_spine(2, 1, host_bandwidth=1.0, n_spines=2)
    router = ShortestPathRouter(topology)
    network = NetworkModel(topology, router)
    hosts = topology.hosts
    fid = network.inject(Flow(hosts[0], hosts[1], 1.0), 0.0).flow.flow_id
    (before,) = network.link_columns([fid])
    spine_link = network.path(fid)[1].key
    router.block_links([spine_link])
    migrated, _ = network.reroute_flows([spine_link])
    assert migrated == [fid]
    (after,) = network.link_columns([fid])
    keys = network.column_keys()
    assert after != before
    assert [keys[c] for c in after] == [link.key for link in network.path(fid)]
