"""Topology graph and fabric builders."""

import pytest

from repro.topology import (
    Topology,
    big_switch,
    fat_tree,
    leaf_spine,
    linear_chain,
    two_hosts,
)


class TestTopologyGraph:
    def test_add_nodes_and_links(self):
        topo = Topology("t")
        topo.add_host("h0")
        topo.add_switch("s0")
        topo.add_link("h0", "s0", 10.0)
        assert topo.hosts == ["h0"]
        assert topo.switches == ["s0"]
        assert topo.link("h0", "s0").capacity == 10.0
        assert topo.has_link("h0", "s0")
        assert not topo.has_link("s0", "h0")

    def test_duplicate_node_rejected(self):
        topo = Topology("t")
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")

    def test_duplicate_link_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", 1.0)
        with pytest.raises(ValueError):
            topo.add_link("a", "b", 2.0)

    def test_link_to_unknown_node_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        with pytest.raises(KeyError):
            topo.add_link("a", "ghost", 1.0)

    def test_nonpositive_capacity_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("b")
        with pytest.raises(ValueError):
            topo.add_link("a", "b", 0.0)

    def test_nonfinite_capacity_rejected(self):
        # A NaN capacity used to get as far as an unbounded allocation.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                big_switch(2, bad)
            topo = big_switch(2, 1.0)
            with pytest.raises(ValueError, match="finite"):
                topo.set_link_capacity("h0", "core", bad)
        topo = big_switch(2, 1.0)
        topo.set_link_capacity("h0", "core", 0.0)  # a dead link stays legal
        assert topo.link("h0", "core").capacity == 0.0

    def test_duplex_link(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("b")
        forward, backward = topo.add_duplex_link("a", "b", 3.0)
        assert forward.key == ("a", "b")
        assert backward.key == ("b", "a")

    def test_host_port_capacities(self):
        topo = big_switch(3, host_bandwidth=5.0)
        assert topo.host_egress_capacity("h0") == 5.0
        assert topo.host_ingress_capacity("h0") == 5.0

    def test_validate_endpoints(self):
        topo = big_switch(2, 1.0)
        topo.validate_endpoints("h0", "h1")
        with pytest.raises(ValueError):
            topo.validate_endpoints("h0", "h0")
        with pytest.raises(ValueError):
            topo.validate_endpoints("h0", "core")


class TestFabrics:
    def test_big_switch_shape(self):
        topo = big_switch(4, 10.0)
        assert len(topo.hosts) == 4
        assert topo.switches == ["core"]
        # 4 duplex host links = 8 directed links.
        assert sum(1 for _ in topo.links()) == 8

    def test_big_switch_needs_hosts(self):
        with pytest.raises(ValueError):
            big_switch(0, 1.0)

    def test_two_hosts(self):
        topo = two_hosts(7.0)
        assert topo.hosts == ["h0", "h1"]
        assert topo.link("h0", "h1").capacity == 7.0

    def test_linear_chain(self):
        topo = linear_chain(4, 1.0)
        assert topo.has_link("h1", "h2")
        assert topo.has_link("h2", "h1")
        assert not topo.has_link("h0", "h2")
        with pytest.raises(ValueError):
            linear_chain(1, 1.0)

    def test_leaf_spine_shape(self):
        topo = leaf_spine(n_leaves=2, hosts_per_leaf=3, host_bandwidth=10.0)
        assert len(topo.hosts) == 6
        assert "leaf0" in topo.switches and "spine1" in topo.switches

    def test_leaf_spine_oversubscription_shrinks_uplinks(self):
        full = leaf_spine(2, 4, 10.0, n_spines=2, oversubscription=1.0)
        over = leaf_spine(2, 4, 10.0, n_spines=2, oversubscription=4.0)
        assert over.link("leaf0", "spine0").capacity == pytest.approx(
            full.link("leaf0", "spine0").capacity / 4.0
        )

    def test_leaf_spine_validation(self):
        with pytest.raises(ValueError):
            leaf_spine(0, 1, 1.0)
        with pytest.raises(ValueError):
            leaf_spine(1, 1, 1.0, oversubscription=0.0)

    def test_fat_tree_host_count(self):
        # k-ary fat tree has k^3/4 hosts.
        topo = fat_tree(4, 1.0)
        assert len(topo.hosts) == 16

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(ValueError):
            fat_tree(3, 1.0)


class TestDumbbell:
    def test_shape(self):
        from repro.topology import dumbbell

        topo = dumbbell(2, 3, 10.0, 4.0)
        assert len(topo.hosts) == 5
        assert topo.link("sw-left", "sw-right").capacity == 4.0

    def test_cross_traffic_shares_the_bottleneck(self):
        from repro.core.flow import Flow
        from repro.scheduling import FairSharingScheduler
        from repro.simulator import Engine, TaskDag
        from repro.topology import dumbbell

        topo = dumbbell(2, 2, 10.0, 4.0)
        engine = Engine(topo, FairSharingScheduler())
        dag = TaskDag("j")
        dag.add_comm(
            "x",
            [Flow("h0", "h2", 4.0, job_id="j"), Flow("h1", "h3", 4.0, job_id="j")],
        )
        engine.submit(dag)
        trace = engine.run()
        # 8 bytes through a 4 B/s bottleneck: both finish at 2.
        assert trace.end_time == pytest.approx(2.0)

    def test_intra_group_traffic_avoids_the_bottleneck(self):
        from repro.core.flow import Flow
        from repro.scheduling import FairSharingScheduler
        from repro.simulator import Engine, TaskDag
        from repro.topology import dumbbell

        topo = dumbbell(2, 2, 10.0, 1.0)
        engine = Engine(topo, FairSharingScheduler())
        dag = TaskDag("j")
        dag.add_comm("x", [Flow("h0", "h1", 10.0, job_id="j")])
        engine.submit(dag)
        trace = engine.run()
        assert trace.end_time == pytest.approx(1.0)  # full 10 B/s NIC rate

    def test_validation(self):
        from repro.topology import dumbbell

        with pytest.raises(ValueError):
            dumbbell(0, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            dumbbell(1, 1, 1.0, 0.0)
