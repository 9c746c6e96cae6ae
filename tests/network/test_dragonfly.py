"""Dragonfly topology structure and routing behaviour."""

import pytest

from repro.errors import ConfigError
from repro.network.flows import FlowRequest, FlowSolver
from repro.network.topology import dragonfly


@pytest.fixture(scope="module")
def topo():
    return dragonfly(groups=4, switches_per_group=4, nodes_per_switch=4)


class TestStructure:
    def test_counts(self, topo):
        assert len(topo.compute_nodes) == 64
        assert len(topo.switches) == 16

    def test_intra_group_all_to_all(self, topo):
        for a in range(4):
            for b in range(a + 1, 4):
                assert topo.capacity(f"g0sw{a}", f"g0sw{b}") > 0

    def test_every_group_pair_connected(self, topo):
        linked = {frozenset((u, v)) for u, v, _ in topo.edges()}
        for ga in range(4):
            for gb in range(ga + 1, 4):
                # some switch of ga links to some switch of gb
                found = any(
                    frozenset((f"g{ga}sw{sa}", f"g{gb}sw{sb}")) in linked
                    for sa in range(4)
                    for sb in range(4)
                )
                assert found

    def test_global_links_thinner_than_local_bundles(self, topo):
        local = topo.capacity("g0sw0", "g0sw1")
        # find a global edge
        global_caps = [
            cap
            for u, v, cap in topo.edges()
            if str(u).startswith("g0") and str(v).startswith("g1")
        ]
        assert global_caps and max(global_caps) < local

    def test_validation(self):
        with pytest.raises(ConfigError):
            dragonfly(groups=1)


class TestRouting:
    def test_intra_group_path_shorter_than_inter_group(self, topo):
        intra = topo.k_shortest_paths("node0", "node4", k=1)[0]
        inter = topo.k_shortest_paths("node0", "node16", k=1)[0]
        assert len(intra) <= len(inter)

    def test_inter_group_flow_capped_by_global_link(self, topo):
        solver = FlowSolver(topo, k_paths=2, latency_alpha=0.0)
        res = solver.solve(
            [FlowRequest(key=1, src="node0", dst="node16", demand=9e9)]
        )
        # a single 4.7 GB/s global link per group pair (plus an indirect
        # route) bounds the flow well below the NIC rate
        assert res.grants[1] < 9e9
