"""Incremental resolution must be invisible: same numbers, less work.

The scenario mixes every contended subsystem — CPU time-sharing, memory
bandwidth, network flows and a shared filesystem — and asserts that the
production rate model (node-solve reuse, stage memos and signature
skips, flow-solve memoization) produces *exactly* the results of the
from-scratch :class:`~repro.cluster.reference.ReferenceRateModel`, while
its reuse counters prove it actually avoided work.
"""

import pytest

from repro.apps import AppJob, IORBenchmark, get_app
from repro.check import use_reference_model
from repro.cluster import Cluster
from repro.core import CpuOccupy, IOBandwidth, MemBw, NetOccupy
from repro.monitoring import MetricService
from repro.units import MB10


def _run_mixed_scenario(reference: bool):
    """CPU + membw + network + storage contention on a Chameleon cluster."""
    cluster = Cluster.chameleon(num_nodes=6)
    if reference:
        use_reference_model(cluster)
    service = MetricService(cluster)
    service.attach(end=100_000)

    app = get_app("miniMD").scaled(iterations=8)
    job = AppJob(app, cluster, nodes=[0, 1], ranks_per_node=4, seed=3)
    job.launch()

    CpuOccupy(utilization=100).launch(cluster, "node0", core=0)
    MemBw().launch(cluster, "node0", core=4)
    NetOccupy.launch_pair(cluster, src="node1", dst="node3", ranks=2)
    ior = IORBenchmark(file_bytes=200 * MB10, access_files=200)
    ior.launch(cluster, node="node4", start=2.0)
    IOBandwidth().launch(cluster, "node2", core=0)

    runtime = job.run(timeout=100_000)
    cluster.sim.run(until=cluster.sim.now + 500.0)
    service.detach()

    fingerprint = {
        "app_runtime": runtime,
        "ior": ior.phase_bandwidth(),
        "end_times": tuple(p.end_time for p in cluster.sim.processes),
        "counters": tuple(
            tuple(sorted(p.counters.items())) for p in cluster.sim.processes
        ),
        "node0_series": service.matrix("node0").tobytes(),
    }
    return fingerprint, dict(cluster.sim.stats.as_dict())


@pytest.fixture(scope="module")
def runs():
    ref, _ = _run_mixed_scenario(reference=True)
    prod, stats = _run_mixed_scenario(reference=False)
    return ref, prod, stats


class TestEquivalence:
    def test_app_runtime_identical(self, runs):
        ref, prod, _ = runs
        assert prod["app_runtime"] == ref["app_runtime"]

    def test_ior_bandwidths_identical(self, runs):
        ref, prod, _ = runs
        assert prod["ior"] == ref["ior"]

    def test_process_end_times_identical(self, runs):
        ref, prod, _ = runs
        assert prod["end_times"] == ref["end_times"]

    def test_usage_counters_identical(self, runs):
        ref, prod, _ = runs
        assert prod["counters"] == ref["counters"]

    def test_monitoring_series_byte_identical(self, runs):
        ref, prod, _ = runs
        assert prod["node0_series"] == ref["node0_series"]


class TestWorkAvoidance:
    def test_nodes_were_reused(self, runs):
        _, _, stats = runs
        assert stats["nodes_reused"] > 0
        assert stats["nodes_solved"] > 0

    def test_flow_solves_were_memoized(self, runs):
        _, _, stats = runs
        # The network-stage memo absorbs recurring signatures before the
        # solver is reached (network_memo_hits); repeat traffic must hit.
        assert stats.get("network_memo_hits", 0) > 0

    def test_reschedules_were_skipped(self, runs):
        _, _, stats = runs
        assert stats["reschedules_skipped"] > 0

    def test_network_stage_skipped_for_disjoint_changes(self):
        # A CPU-only change on node6 leaves the flow signature untouched,
        # so the network stage is replayed from the memo, not re-solved.
        cluster = Cluster.voltrino(num_nodes=8)
        NetOccupy.launch_pair(cluster, src="node0", dst="node4", ranks=2)
        CpuOccupy(utilization=70, duration=50).launch(cluster, "node6", core=0)
        cluster.sim.run(until=100)
        assert cluster.sim.stats.counters["network_memo_hits"] > 0


class TestForcedFullResolve:
    def test_external_dirty_poke_forces_full_resolve(self):
        # Setting sim._dirty without naming pids (the tracing/test idiom)
        # must trigger a from-scratch resolve, not a stale cache replay.
        cluster = Cluster.chameleon(num_nodes=2)
        sim = cluster.sim
        CpuOccupy(utilization=100, duration=5.0).launch(cluster, "node0", core=0)
        sim.run(until=1.0)
        before = sim.stats.counters.get("full_resolves", 0)
        sim._dirty = True
        sim.schedule(1.5, lambda: None)  # the loop re-checks dirtiness per event
        sim.run(until=2.0)
        assert sim.stats.counters["full_resolves"] > before
