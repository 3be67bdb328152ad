"""Routers: shortest path, ECMP, determinism, and route-cache coherence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.flow import Flow
from repro.core.units import gbps
from repro.scheduling import FairSharingScheduler
from repro.simulator import Engine
from repro.topology import (
    EcmpRouter,
    RoutingError,
    ShortestPathRouter,
    Topology,
    big_switch,
    dumbbell,
    fat_tree,
    leaf_spine,
    linear_chain,
    widest_bottleneck,
)


def test_shortest_path_on_big_switch():
    topo = big_switch(3, 10.0)
    router = ShortestPathRouter(topo)
    path = router.path("h0", "h1")
    assert [link.key for link in path] == [("h0", "core"), ("core", "h1")]


def test_path_is_cached_and_stable():
    topo = big_switch(3, 10.0)
    router = ShortestPathRouter(topo)
    assert router.path("h0", "h2") is router.path("h0", "h2")


def test_no_path_raises():
    topo = Topology("disconnected")
    topo.add_host("a")
    topo.add_host("b")
    topo.add_host("c")
    topo.add_duplex_link("a", "b", 1.0)
    router = ShortestPathRouter(topo)
    with pytest.raises(RoutingError):
        router.path("a", "c")


def test_router_validates_endpoints():
    topo = big_switch(2, 1.0)
    router = ShortestPathRouter(topo)
    with pytest.raises(ValueError):
        router.path("h0", "core")


def test_ecmp_enumerates_multiple_shortest_paths():
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    router = EcmpRouter(topo)
    # Cross-leaf pairs have one path per spine.
    hosts = topo.hosts
    cross = (hosts[0], hosts[2])
    assert len(router.paths(*cross)) == 2


def test_ecmp_is_deterministic_per_flow():
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    router = EcmpRouter(topo)
    a = router.path("h0", "h2", flow_id=5)
    b = router.path("h0", "h2", flow_id=5)
    assert a == b


def test_ecmp_spreads_flows_across_paths():
    topo = leaf_spine(2, 2, 10.0, n_spines=4)
    router = EcmpRouter(topo)
    chosen = {router.path("h0", "h2", flow_id=i) for i in range(32)}
    assert len(chosen) > 1


def test_ecmp_on_fat_tree_paths_have_consistent_length():
    topo = fat_tree(4, 1.0)
    router = EcmpRouter(topo)
    hosts = topo.hosts
    paths = router.paths(hosts[0], hosts[-1])
    lengths = {len(p) for p in paths}
    assert len(lengths) == 1  # all shortest


def test_widest_bottleneck():
    topo = Topology("t")
    topo.add_host("a")
    topo.add_switch("s")
    topo.add_host("b")
    topo.add_link("a", "s", 5.0)
    topo.add_link("s", "b", 2.0)
    router = ShortestPathRouter(topo)
    assert widest_bottleneck(router.path("a", "b")) == 2.0
    with pytest.raises(ValueError):
        widest_bottleneck([])


# ----------------------------------------------------------------------
# Route oracle: both routers against a brute-force reference
# ----------------------------------------------------------------------


def _islands():
    """Two switches with no link between them: cross pairs are unreachable."""
    topo = Topology("islands")
    for switch in ("s0", "s1"):
        topo.add_switch(switch)
    for i in range(4):
        topo.add_host(f"h{i}")
        topo.add_duplex_link(f"h{i}", "s0" if i < 2 else "s1", 1.0)
    return topo


FABRICS = {
    "big_switch": lambda: big_switch(4, 1.0),
    "leaf_spine": lambda: leaf_spine(3, 2, 1.0, n_spines=3),
    "fat_tree": lambda: fat_tree(4, 1.0),
    "dumbbell": lambda: dumbbell(2, 2, 1.0, 1.0),
    "linear_chain": lambda: linear_chain(4, 1.0),
    "islands": _islands,
}


def _reference_paths(topo, src, dst, limit, blocked):
    """The first ``limit`` shortest simple node paths, brute force.

    Hop distances to ``dst`` come from plain Bellman-Ford relaxation;
    every simple path that stays on a shortest-length budget is then
    listed, sorted lexicographically and cut at ``limit``. ``None`` when
    ``dst`` is unreachable.
    """
    links = [link for link in topo.links() if link.key not in blocked]
    inf = float("inf")
    to_dst = {node: inf for node in topo.nodes}
    to_dst[dst] = 0
    for _ in topo.nodes:
        for link in links:
            to_dst[link.src] = min(to_dst[link.src], to_dst[link.dst] + 1)
    if to_dst[src] == inf:
        return None
    found = []

    def walk(path):
        node = path[-1]
        if node == dst:
            found.append(tuple(path))
            return
        for link in links:
            if link.src != node or link.dst in path:
                continue
            if len(path) + to_dst[link.dst] <= to_dst[src]:
                walk(path + [link.dst])

    walk([src])
    return sorted(found)[:limit]


def _expected(topo, src, dst, limit, blocked):
    """Routers prefer paths avoiding blocked links, else ignore them."""
    paths = _reference_paths(topo, src, dst, limit, blocked)
    if paths is None:
        paths = _reference_paths(topo, src, dst, limit, frozenset())
    return paths


def _nodes(path):
    return (path[0].src,) + tuple(link.dst for link in path)


@st.composite
def routing_cases(draw):
    name = draw(st.sampled_from(sorted(FABRICS)))
    topo = FABRICS[name]()
    keys = sorted(link.key for link in topo.links())
    blocked = draw(st.frozensets(st.sampled_from(keys), max_size=6))
    src, dst = draw(
        st.lists(st.sampled_from(topo.hosts), min_size=2, max_size=2, unique=True)
    )
    limit = draw(st.sampled_from((1, 2, 16)))
    return topo, blocked, src, dst, limit


@settings(max_examples=300, deadline=None)
@given(routing_cases())
def test_routers_match_brute_force_reference(case):
    topo, blocked, src, dst, limit = case
    expected = _expected(topo, src, dst, limit, blocked)
    shortest = ShortestPathRouter(topo)
    ecmp = EcmpRouter(topo, fanout_limit=limit)
    for router in (shortest, ecmp):
        router.block_links(blocked)
    if expected is None:
        with pytest.raises(RoutingError):
            shortest.path(src, dst)
        with pytest.raises(RoutingError):
            ecmp.paths(src, dst)
        return
    assert _nodes(shortest.path(src, dst)) == expected[0]
    assert [_nodes(p) for p in ecmp.paths(src, dst)] == expected


def test_cut_off_pair_falls_back_to_the_blocked_path():
    # The chain's only route crosses h1->h2; with it down, admission
    # still pins that route (the flow stalls until a restore).
    topo = linear_chain(4, 1.0)
    for router in (ShortestPathRouter(topo), EcmpRouter(topo)):
        router.block_links([("h1", "h2")])
        assert _nodes(router.path("h0", "h3")) == ("h0", "h1", "h2", "h3")


def test_unreachable_pair_raises_even_with_links_blocked():
    topo = _islands()
    for router in (ShortestPathRouter(topo), EcmpRouter(topo)):
        router.block_links([("h0", "s0")])
        with pytest.raises(RoutingError):
            router.path("h0", "h2")
        # Reachable pairs on the same island still route.
        assert _nodes(router.path("h2", "h3")) == ("h2", "s1", "h3")


# ----------------------------------------------------------------------
# Route and DAG cache coherence
# ----------------------------------------------------------------------

SPINE0 = ("h0", "leaf0", "spine0", "leaf1", "h2")
SPINE1 = ("h0", "leaf0", "spine1", "leaf1", "h2")
SPINE2 = ("h0", "leaf0", "spine2", "leaf1", "h2")


@pytest.mark.parametrize("router_cls", [ShortestPathRouter, EcmpRouter])
def test_block_then_unblock_reroutes_new_flows(router_cls):
    topo = leaf_spine(2, 2, 10.0, n_spines=3)
    router = router_cls(topo)
    before = router.path("h0", "h2")
    assert _nodes(before) == SPINE0
    router.block_links([("leaf0", "spine0")])
    assert _nodes(router.path("h0", "h2")) == SPINE1
    # A second block while the first holds must not reuse its DAG.
    router.block_links([("leaf0", "spine1")])
    assert _nodes(router.path("h0", "h2")) == SPINE2
    router.unblock_links([("leaf0", "spine1")])
    assert _nodes(router.path("h0", "h2")) == SPINE1
    router.unblock_links([("leaf0", "spine0")])
    assert router.path("h0", "h2") == before


@pytest.mark.parametrize("router_cls", [ShortestPathRouter, EcmpRouter])
def test_fork_before_block_does_not_see_it(router_cls):
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    router = router_cls(topo)
    router.path("h0", "h3")  # warm the DAG cache for source h0
    twin = router.fork(topo.clone())
    router.block_links([("leaf0", "spine0")])
    assert _nodes(router.path("h0", "h2")) == SPINE1
    assert twin.blocked_links == frozenset()
    assert _nodes(twin.path("h0", "h2")) == SPINE0
    assert all(link in twin.topology.links() for link in twin.path("h0", "h2"))
    # A fork taken after the block inherits it.
    later = router.fork(topo.clone())
    assert _nodes(later.path("h0", "h2")) == SPINE1


def test_new_flow_after_link_down_routes_around_it():
    engine = Engine(
        leaf_spine(2, 2, gbps(10)),
        FairSharingScheduler(),
        faults="link_down:leaf0-spine0@0.5",
    )
    late = Flow("h0", "h2", gbps(10))
    engine.inject_background_flow(late, at_time=1.0)
    engine.run(until=1.5)
    assert _nodes(engine.network.path(late.flow_id)) == SPINE1


@pytest.mark.parametrize(
    "router_cls, downed, moved",
    [
        (
            ShortestPathRouter,
            ("p0a0", "core0"),
            {
                1: ("h1", "p0e0", "p0a0", "core1", "p2a0", "p2e0", "h8"),
                2: ("h2", "p0e1", "p0a0", "core1", "p3a0", "p3e0", "h13"),
                6: ("h6", "p1e1", "p1a0", "core1", "p0a0", "p0e0", "h1"),
                9: ("h9", "p2e0", "p2a0", "core1", "p0a0", "p0e0", "h0"),
            },
        ),
        (
            EcmpRouter,
            ("p0e0", "p0a0"),
            {
                0: ("h0", "p0e0", "p0a1", "p0e1", "h3"),
                1: ("h1", "p0e0", "p0a1", "core3", "p2a1", "p2e0", "h8"),
                9: ("h9", "p2e0", "p2a1", "core3", "p0a1", "p0e0", "h0"),
            },
        ),
    ],
)
def test_fault_driven_reroute_keeps_its_path_choice(router_cls, downed, moved):
    # Pinned from the per-pair BFS enumeration the DAG cache replaced: a
    # link_down must migrate the same flows onto the same paths.
    with use_flow_id_allocator(FlowIdAllocator()):
        topo = fat_tree(4, gbps(10))
        engine = Engine(
            topo,
            FairSharingScheduler(),
            router=router_cls(topo),
            faults=f"link_down:{downed[0]}-{downed[1]}@0.2+0.5",
        )
        flows = [
            Flow(f"h{i}", f"h{(i * 5 + 3) % 16}", gbps(10) * (0.5 + 0.1 * i))
            for i in range(16)
        ]
        for flow in flows:
            engine.inject_background_flow(flow, at_time=0.0)
        engine.run(until=0.25)
    record = engine.faults.fired[0]
    assert record["migrated"] == [flows[i].flow_id for i in sorted(moved)]
    assert record["stranded"] == []
    for index, expected in moved.items():
        path = engine.network.path(flows[index].flow_id)
        assert _nodes(path) == expected
        assert downed not in {link.key for link in path}
