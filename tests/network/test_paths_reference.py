"""Path order is part of the byte contract.

The flow solver gives each path of a flow one sub-flow, and sub-flow
order fixes its float summation order, so ``k_shortest_paths`` must
return the same paths in the same order as ``networkx``'s
``shortest_simple_paths`` on a graph built from the same edges in the
same order.  The literal cases pin that order without networkx; the
reference grid compares every node pair when networkx is installed.
"""

from __future__ import annotations

import itertools

import pytest

from repro.network.topology import aries_like, dragonfly, star

TOPOLOGIES = {
    **{
        f"aries_like({n}, {p})": (lambda n=n, p=p: aries_like(n, p))
        for n in (1, 5, 16, 17)
        for p in (1, 4)
    },
    # the shape where an adjacency rebuilt in networkx's node order
    # visits neighbours in a different order than the builder's
    "dragonfly(3, 2, 2)": lambda: dragonfly(3, 2, 2),
    "star(4)": lambda: star(4),
}


class TestPinnedPaths:
    def test_same_switch(self):
        topo = aries_like(16, 4)
        assert topo.k_shortest_paths("node0", "node1", k=4) == [
            ["node0", "sw0", "node1"]
        ]

    def test_cross_switch_k4(self):
        topo = aries_like(16, 4)
        assert topo.k_shortest_paths("node0", "node5", k=4) == [
            ["node0", "sw0", "sw1", "node5"],
            ["node0", "sw0", "sw2", "sw1", "node5"],
            ["node0", "sw0", "sw3", "sw1", "node5"],
            ["node0", "sw0", "sw2", "sw3", "sw1", "node5"],
        ]

    def test_dragonfly_inter_group(self):
        topo = dragonfly(3, 2, 2)
        assert topo.k_shortest_paths("node0", "node5", k=4) == [
            ["node0", "g0sw0", "g1sw1", "g1sw0", "node5"],
            ["node0", "g0sw0", "g0sw1", "g2sw0", "g2sw1", "g1sw0", "node5"],
        ]
        assert topo.k_shortest_paths("node0", "node11", k=1) == [
            ["node0", "g0sw0", "g0sw1", "g2sw0", "g2sw1", "node11"]
        ]

    def test_star(self):
        assert star(4).k_shortest_paths("node0", "node3", k=4) == [
            ["node0", "router", "node3"]
        ]


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_matches_networkx_on_every_pair(name):
    nx = pytest.importorskip("networkx")
    topo = TOPOLOGIES[name]()
    graph = nx.Graph()
    graph.add_weighted_edges_from(topo.edges(), weight="capacity")
    nodes = list(graph.nodes)
    for src, dst in itertools.product(nodes, nodes):
        for k in (1, 4):
            expected = list(
                itertools.islice(nx.shortest_simple_paths(graph, src, dst), k)
            )
            assert topo.k_shortest_paths(src, dst, k) == expected, (src, dst, k)
