"""The array path of ``EchelonMaddScheduler.allocate`` against the scalar one.

The array path is taken whenever the network's kernel decision lands on
the vector path. It must return the scalar path's rates bit for bit --
same values, same keys, same key order -- so whole runs under
``allocation="reference"`` and ``allocation="vector"`` must share every
trace digest, and single ``allocate`` calls on random flow mixes must
return equal dicts.
"""

import copy
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
from repro.simulator.vector import VECTOR_AUTO_THRESHOLD
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


def _view(mix, allocation, unpinned=()):
    """One network holding the mix, in the given allocation mode; the
    EchelonFlows named in ``unpinned`` have no reference time yet."""
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
        if ef_id not in unpinned:
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


# ------------------------------------------------------------ the warm table

_STEPS = ("advance", "retire", "inject", "pin", "link0", "reroute", "demote")


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    mix=_flow_mixes(),
    unpinned=st.sets(st.sampled_from(["ga", "gb", "gc"])),
    steps=st.lists(
        st.tuples(st.sampled_from(_STEPS), st.integers(0, 2**32)), max_size=8
    ),
    config=st.sampled_from(list(itertools.product(ORDERINGS, ANCHORS, [True, False]))),
)
def test_warm_table_matches_a_fresh_build_after_every_step(
    mix, unpinned, steps, config
):
    """One scheduler keeps its stage table across a sequence of calls on
    one network; after every step its dict equals a fresh scheduler's
    array dict and the scalar dict, keys and key order included."""
    ordering, anchor, backfill = config

    def scheduler():
        return EchelonMaddScheduler(ordering=ordering, anchor=anchor, backfill=backfill)

    view = _view(mix, "vector", unpinned)
    network = view.network
    echelonflows = dict(view.echelonflows)
    hosts = network.topology.hosts
    warm = scheduler()
    now = view.now
    network.sync_active(now)
    for step, (kind, seed) in enumerate([("advance", 0)] + steps):
        rng = random.Random(seed)
        active = network.active_states()
        links = sorted(network.link_capacities())
        if kind == "advance":
            # Apply the last rates and run to the next completion.
            network.set_rates(warm.allocate(SchedulerView(now, network, echelonflows)))
            dt = network.earliest_finish_interval()
            if dt < float("inf"):
                network.advance(dt, now)
                now += dt
        elif kind == "retire" and active:
            for state in rng.sample(active, rng.randint(1, len(active))):
                network._retire(state, now)
        elif kind == "inject":
            src, dst = rng.sample(hosts, 2)
            group = rng.choice([None, "ga", "gb", "gc", "loose", "fresh"])
            network.inject(
                Flow(
                    src,
                    dst,
                    0.5 + rng.random(),
                    group_id=group,
                    index_in_group=rng.randrange(4),
                    job_id="j9",
                    flow_id=10_000 + step,
                ),
                now,
            )
        elif kind == "pin":
            for ef in echelonflows.values():
                if ef.reference_time is None:
                    ef.set_reference_time(now)
                    break
        elif kind == "link0" and links:
            network.set_link_capacity(rng.choice(links), 0.0)
        elif kind == "reroute" and links:
            key = rng.choice(links)
            network.router.block_links([key])
            network.reroute_flows([key])
        elif kind == "demote":
            # The quarantine swap: a down-weighted fork of one group.
            ef_id = rng.choice(sorted(echelonflows))
            demoted = echelonflows[ef_id].fork()
            demoted.weight *= 0.5
            echelonflows[ef_id] = demoted
        view = SchedulerView(now=now, network=network, echelonflows=echelonflows)
        assert network.vector_active()
        with np.errstate(all="raise"):
            warm_rates = warm.allocate(view)
            fresh = scheduler().allocate(view)
        scalar = warm._allocate_scalar(view)
        assert warm_rates == fresh == scalar
        assert list(warm_rates) == list(fresh) == list(scalar)


def _bulk_engine():
    """440 flows at t=0 on ``big_switch(16)``: registered staggered
    EchelonFlows, unregistered groups and ungrouped flows, and a link
    taken to 0 capacity after the snapshot point."""
    engine = Engine(
        big_switch(16, host_bandwidth=8.0),
        EchelonMaddScheduler(),
        scheduling_interval=0.2,
        faults="link_down:h3-core@0.5+0.3",
    )
    rng = random.Random(11)
    for g in range(10):
        ef = EchelonFlow(f"ef{g}", StaggeredArrangement(0.1), job_id=f"j{g % 3}")
        engine.register_echelonflow(ef)
    for i in range(440):
        src = rng.randrange(16)
        dst = (src + rng.randrange(1, 16)) % 16
        group = (f"ef{i % 10}", f"loose{i % 4}", None)[i % 3]
        flow = Flow(
            f"h{src}",
            f"h{dst}",
            1.0 + rng.random(),
            group_id=group,
            index_in_group=(i // 30) % 4,
            job_id=f"j{i % 3}",
        )
        if group in engine.echelonflows:
            engine.echelonflows[group].add_flow(flow)
        engine.inject_background_flow(flow, at_time=0.0)
    return engine


def test_snapshot_and_fork_of_a_warm_run_resume_digest_identical():
    with use_flow_id_allocator(FlowIdAllocator()):
        reference = trace_digest(_bulk_engine().run())
    with use_flow_id_allocator(FlowIdAllocator()):
        walker = _bulk_engine()
    walker.run(until=0.3)
    assert walker.network.active_count > VECTOR_AUTO_THRESHOLD
    assert walker.scheduler._table is not None  # warm at the pause
    handle = walker.snapshot()
    fork = walker.fork(handle)
    assert fork.scheduler._table is None
    assert trace_digest(fork.run()) == reference
    assert trace_digest(walker.run()) == reference
    assert trace_digest(walker.restore(handle).run()) == reference


def test_copies_and_forks_of_a_warm_scheduler_carry_no_table():
    mix = {
        "kind": "big_switch",
        "flows": [("h0", "h1", 1.0, "ga", 0, 0.0, None)] * 4
        + [("h2", "h3", 0.5, "gb", 2, 0.0, None)] * 4,
        "weights": [1.0, 1.0, 1.0],
        "now": 0.5,
        "dead_links": [],
    }
    view = _view(mix, "vector")
    scheduler = EchelonMaddScheduler()
    scheduler.allocate(view)
    table = scheduler._table
    assert table is not None and table.network is view.network
    # A retire patches the same table instead of rebuilding it.
    view.network._retire(view.network.active_states()[0], view.now)
    scheduler.allocate(SchedulerView(view.now, view.network, view.echelonflows))
    assert scheduler._table is table and table.n_flows == 7
    for twin in (copy.deepcopy(scheduler), scheduler.fork()):
        assert twin._table is None
        assert twin.ordering == scheduler.ordering
    assert scheduler._table is table


def test_warm_group_takes_the_job_of_its_first_surviving_flow():
    """A group without an EchelonFlow takes its job from its first flow;
    once that flow retires, the patched group must move to the next
    flow's job, as a fresh build does (here it decides the ranking)."""
    topology = big_switch(6, host_bandwidth=1.0)
    network = NetworkModel(topology, ShortestPathRouter(topology), allocation="vector")
    with use_flow_id_allocator(FlowIdAllocator()):
        first = network.inject(Flow("h0", "h1", 1.0, group_id="a", job_id="j2"), 0.0)
        second = network.inject(Flow("h2", "h3", 1.0, group_id="a", job_id="j0"), 0.0)
        other = network.inject(Flow("h4", "h5", 1.0, group_id="b", job_id="j1"), 0.0)
    scheduler = EchelonMaddScheduler()
    scheduler.allocate(SchedulerView(0.0, network))
    table = scheduler._table
    network._retire(first, 0.0)
    view = SchedulerView(0.0, network)
    rates = scheduler.allocate(view)
    assert scheduler._table is table
    assert [group.job_id for group in table.groups] == ["j0", "j1"]
    assert list(rates) == [second.flow.flow_id, other.flow.flow_id]
    assert list(rates) == list(EchelonMaddScheduler().allocate(view))
