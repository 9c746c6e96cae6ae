"""Exact equivalence of the production flow solver and its reference.

``FlowSolver`` runs the whole solve as scalar arithmetic on lists of edge
columns; :class:`~repro.cluster.reference.ReferenceFlowSolver` states the
same equations on one object per sub-flow.  Allocations must be
bit-identical, down to the key order of ``edge_load``: the
reference-model differential oracle fingerprints cluster state down to
the float bit, so "approximately the same grants" is not good enough.
"""

import pytest

from repro.cluster.reference import ReferenceFlowSolver
from repro.network.flows import FlowRequest, FlowSolver
from repro.network.topology import aries_like, dragonfly, star
from repro.sim.rng import spawn_rng

TOPOLOGIES = [
    lambda: star(num_nodes=6, link_bw=10e9),
    lambda: aries_like(num_nodes=8),
    lambda: dragonfly(groups=3, switches_per_group=2, nodes_per_switch=2),
]


def _random_flows(rng, nodes, n_flows):
    flows = []
    for key in range(n_flows):
        src, dst = rng.choice(len(nodes), size=2, replace=False)
        demand = float(rng.uniform(0.0, 12.0)) * 1e9
        if rng.random() < 0.15:
            demand = 0.0
        flows.append(
            FlowRequest(key=key, src=nodes[int(src)], dst=nodes[int(dst)], demand=demand)
        )
    return flows


def _compute_nodes(topo):
    return sorted(topo.compute_nodes)


def _assert_identical(got, want, context=""):
    # Exact float equality and identical key order: the two solvers must
    # be byte-for-byte interchangeable inside the rate model.
    assert list(got.grants.items()) == list(want.grants.items()), context
    assert list(got.edge_load.items()) == list(want.edge_load.items()), context


class TestVectorizedMatchesScalarReference:
    """Production solver vs ``ReferenceFlowSolver`` (historical name)."""

    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_full_solve_bitwise_equal(self, make_topo):
        rng = spawn_rng(700, "flows:vectorized")
        zero_demand_flows = 0
        for trial in range(25):
            topo = make_topo()
            nodes = _compute_nodes(topo)
            flows = _random_flows(rng, nodes, n_flows=int(rng.integers(1, 9)))
            zero_demand_flows += sum(f.demand == 0.0 for f in flows)
            for k in (1, 2, 4):
                got = FlowSolver(topo, k_paths=k).solve(list(flows))
                want = ReferenceFlowSolver(topo, k_paths=k).solve(list(flows))
                _assert_identical(got, want, f"trial {trial}, k={k}")
        assert zero_demand_flows > 0  # the zero-demand branch was exercised

    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    def test_many_multipath_flows_bitwise_equal(self, alpha):
        # Wide enough that rebalancing, bottleneck rounds and the latency
        # pass all interact across shared inter-switch links.
        topo = aries_like(num_nodes=32)
        nodes = _compute_nodes(topo)
        rng = spawn_rng(701, "flows:wide")
        flows = _random_flows(rng, nodes, n_flows=48)
        got = FlowSolver(topo, latency_alpha=alpha).solve(flows)
        want = ReferenceFlowSolver(topo, latency_alpha=alpha).solve(flows)
        _assert_identical(got, want)

    def test_rates_equal_under_contention_ties(self):
        # Equal demands over one shared hub link: the bottleneck tie-break
        # (lowest share, then lexicographically smallest edge) must pick
        # the same link in both implementations.
        topo = star(num_nodes=5, link_bw=1e9)
        flows = [
            FlowRequest(key=k, src="node0", dst=f"node{k + 1}", demand=1e9)
            for k in range(4)
        ]
        got = FlowSolver(topo).solve(list(flows))
        want = ReferenceFlowSolver(topo).solve(list(flows))
        _assert_identical(got, want)

    def test_all_zero_demands(self):
        topo = aries_like(num_nodes=8)
        flows = [
            FlowRequest(key=1, src="node0", dst="node5", demand=0.0),
            FlowRequest(key=2, src="node1", dst="node6", demand=0.0),
        ]
        got = FlowSolver(topo).solve(list(flows))
        _assert_identical(got, ReferenceFlowSolver(topo).solve(list(flows)))
        assert got.grants == {1: 0.0, 2: 0.0}

    def test_vectorized_solve_counter(self):
        s = FlowSolver(star(num_nodes=4, link_bw=10e9))
        s.solve([FlowRequest(key=1, src="node0", dst="node1", demand=5e9)])
        # One count per water-filling pass; latency_alpha > 0 re-shares.
        assert s.stats.counters["flow_waterfills"] == 2
