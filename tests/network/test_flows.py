"""Flow solver: max-min sharing, adaptive routing, latency degradation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceError
from repro.network.flows import FlowRequest, FlowSolver
from repro.network.topology import aries_like, star


def solver(topo=None, **kwargs):
    return FlowSolver(topo if topo is not None else star(num_nodes=4, link_bw=10e9), **kwargs)


class TestBasics:
    def test_single_flow_gets_demand(self):
        s = solver(latency_alpha=0.0)
        res = s.solve([FlowRequest(key=1, src="node0", dst="node1", demand=5e9)])
        assert res.grants[1] == pytest.approx(5e9)

    def test_empty_solve(self):
        assert solver().solve([]).grants == {}

    def test_duplicate_keys_rejected(self):
        s = solver()
        flows = [
            FlowRequest(key=1, src="node0", dst="node1", demand=1e9),
            FlowRequest(key=1, src="node1", dst="node2", demand=1e9),
        ]
        with pytest.raises(ResourceError):
            s.solve(flows)

    def test_negative_demand_rejected(self):
        with pytest.raises(ResourceError):
            FlowRequest(key=1, src="a", dst="b", demand=-1)

    def test_shared_uplink_is_split_fairly(self):
        s = solver(latency_alpha=0.0)
        flows = [
            FlowRequest(key=1, src="node0", dst="node1", demand=10e9),
            FlowRequest(key=2, src="node0", dst="node2", demand=10e9),
        ]
        res = s.solve(flows)
        # both cross node0's 10 GB/s uplink
        assert res.grants[1] == pytest.approx(5e9, rel=1e-6)
        assert res.grants[2] == pytest.approx(5e9, rel=1e-6)

    def test_small_demand_protected_under_maxmin(self):
        s = solver(latency_alpha=0.0)
        flows = [
            FlowRequest(key=1, src="node0", dst="node1", demand=1e9),
            FlowRequest(key=2, src="node0", dst="node2", demand=50e9),
        ]
        res = s.solve(flows)
        assert res.grants[1] == pytest.approx(1e9, rel=1e-6)


class TestAdaptiveRouting:
    def test_multipath_exceeds_single_link(self):
        # Aries fabric: sw0-sw1 direct plus 2-hop alternatives.
        topo = aries_like(num_nodes=48, link_bw=2e9, inter_switch_redundancy=1)
        adaptive = FlowSolver(topo, k_paths=4, latency_alpha=0.0)
        static = FlowSolver(topo, k_paths=1, latency_alpha=0.0)
        flow = [FlowRequest(key=1, src="node0", dst="node4", demand=8e9)]
        multi = adaptive.solve(flow).grants[1]
        single = static.solve(flow).grants[1]
        assert single == pytest.approx(2e9, rel=1e-6)  # one 2 GB/s bundle
        assert multi > 1.9 * single  # spread over near-minimal paths

    def test_latency_alpha_degrades_contended_flow(self):
        topo = aries_like(num_nodes=48)
        flows = [
            FlowRequest(key=1, src="node0", dst="node4", demand=9e9),
            FlowRequest(key=2, src="node1", dst="node5", demand=9e9),
        ]
        clean = FlowSolver(topo, latency_alpha=0.0).solve(flows).grants[1]
        degraded = FlowSolver(topo, latency_alpha=0.6).solve(flows).grants[1]
        assert degraded < clean

    def test_bad_params_rejected(self):
        topo = star(num_nodes=2)
        with pytest.raises(ResourceError):
            FlowSolver(topo, k_paths=0)
        with pytest.raises(ResourceError):
            FlowSolver(topo, latency_alpha=-1)


@settings(max_examples=50, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=0, max_value=20e9), min_size=1, max_size=6
    )
)
def test_flow_invariants_on_star(demands):
    """Grants never exceed demands nor link capacities."""
    topo = star(num_nodes=6, link_bw=10e9)
    s = FlowSolver(topo, latency_alpha=0.0)
    flows = [
        FlowRequest(key=i, src=f"node{i % 3}", dst=f"node{3 + i % 3}", demand=d)
        for i, d in enumerate(demands)
    ]
    res = s.solve(flows)
    for flow in flows:
        assert 0 <= res.grants[flow.key] <= flow.demand + 1e-3
    for edge, load in res.edge_load.items():
        assert load <= topo.capacity(*edge) * (1 + 1e-6) + 1e-3
