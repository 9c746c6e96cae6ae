"""Topology builders and path queries."""

import math

import pytest

from repro.errors import ConfigError
from repro.network.topology import NetworkTopology, aries_like, star


class TestAriesLike:
    def test_node_and_switch_counts(self):
        topo = aries_like(num_nodes=12, nodes_per_switch=4)
        assert len(topo.compute_nodes) == 12
        assert len(topo.switches) == 3

    def test_switches_fully_connected(self):
        topo = aries_like(num_nodes=16, nodes_per_switch=4)
        switches = topo.switches
        for i, a in enumerate(switches):
            for b in switches[i + 1 :]:
                assert topo.capacity(a, b) > 0

    def test_inter_switch_capacity_is_bundled(self):
        topo = aries_like(num_nodes=8, link_bw=5e9, inter_switch_redundancy=3)
        assert topo.capacity("sw0", "sw1") == pytest.approx(15e9)

    def test_switch_of(self):
        topo = aries_like(num_nodes=12, nodes_per_switch=4)
        assert topo.switch_of("node0") == "sw0"
        assert topo.switch_of("node4") == "sw1"
        assert topo.switch_of("node11") == "sw2"

    def test_partial_last_switch(self):
        topo = aries_like(num_nodes=10, nodes_per_switch=4)
        assert len(topo.switches) == 3

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            aries_like(num_nodes=0)


class TestStar:
    def test_single_router(self):
        topo = star(num_nodes=6)
        assert topo.switches == ["router"]
        assert len(topo.compute_nodes) == 6

    def test_no_redundant_paths(self):
        topo = star(num_nodes=4)
        paths = topo.k_shortest_paths("node0", "node1", k=4)
        assert len(paths) == 1  # only via the router


class TestPaths:
    def test_k_shortest_returns_increasing_lengths(self):
        topo = aries_like(num_nodes=48)
        paths = topo.k_shortest_paths("node0", "node4", k=4)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert lengths[0] == 4  # node0 -> sw0 -> sw1 -> node4

    def test_same_node_path(self):
        topo = star(num_nodes=2)
        assert topo.k_shortest_paths("node0", "node0") == [["node0"]]

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            NetworkTopology([("node0", "sw0", 0)])

    def test_switch_of_requires_single_uplink(self):
        topo = NetworkTopology([("node0", "sw0", 1e9), ("node0", "sw1", 1e9)])
        with pytest.raises(ConfigError):
            topo.switch_of("node0")


class TestEdges:
    def test_construction_order_kept(self):
        topo = aries_like(num_nodes=5, nodes_per_switch=2)
        assert topo.edges() == [
            ("sw0", "sw1", topo.capacity("sw0", "sw1")),
            ("sw0", "sw2", topo.capacity("sw0", "sw2")),
            ("sw1", "sw2", topo.capacity("sw1", "sw2")),
            ("node0", "sw0", topo.capacity("node0", "sw0")),
            ("node1", "sw0", topo.capacity("node1", "sw0")),
            ("node2", "sw1", topo.capacity("node2", "sw1")),
            ("node3", "sw1", topo.capacity("node3", "sw1")),
            ("node4", "sw2", topo.capacity("node4", "sw2")),
        ]

    def test_capacity_is_symmetric(self):
        topo = star(num_nodes=2, link_bw=3e9)
        assert topo.capacity("node0", "router") == topo.capacity("router", "node0")
        assert topo.capacity("node1", "router") == 3e9


class TestTypedErrors:
    @pytest.mark.parametrize("cap", [math.nan, math.inf, -1.0])
    def test_capacity_not_finite_positive(self, cap):
        with pytest.raises(ConfigError, match="capacity"):
            NetworkTopology([("node0", "sw0", cap)])

    @pytest.mark.parametrize(
        "edges",
        [
            [("node0", "sw0", 1e9), ("node0", "sw0", 2e9)],
            [("node0", "sw0", 1e9), ("sw0", "node0", 1e9)],
        ],
    )
    def test_duplicate_edge(self, edges):
        with pytest.raises(ConfigError, match="duplicate"):
            NetworkTopology(edges)

    def test_unknown_endpoint(self):
        topo = aries_like(num_nodes=4)
        with pytest.raises(ConfigError, match="node9"):
            topo.k_shortest_paths("node0", "node9")
        with pytest.raises(ConfigError, match="node9"):
            topo.switch_of("node9")

    def test_unknown_edge(self):
        with pytest.raises(ConfigError):
            aries_like(num_nodes=4).capacity("node0", "node1")

    def test_disconnected_pair(self):
        topo = NetworkTopology([("node0", "sw0", 1e9), ("node1", "sw1", 1e9)])
        with pytest.raises(ConfigError, match="no path"):
            topo.k_shortest_paths("node0", "node1")
