"""Replay engine: reference equivalence, dependency honoring, typed errors."""

from __future__ import annotations

import pytest

from repro.check.harness import fingerprint_cluster, reference_replay_fingerprint
from repro.cluster import Cluster
from repro.errors import TraceError
from repro.traces import (
    TRACE_GENERATORS,
    TraceReplayApp,
    build_replay_cluster,
    generate_trace,
    replay_fingerprint,
    replay_trace,
)


@pytest.mark.parametrize("name", sorted(TRACE_GENERATORS))
def test_replay_matches_reference_model(name):
    trace = generate_trace(name, seed=4, ranks=3, steps=2)
    assert replay_fingerprint(trace) == reference_replay_fingerprint(trace)


def test_network_memo_stays_bounded():
    # 8 ranks x 24 steps solve ~300 distinct network signatures, more
    # than the memo keeps: it must evict oldest-first, and replaying a
    # surviving entry must never change a simulated number.
    trace = generate_trace("ai_training", seed=0, ranks=8, steps=24)
    cluster = build_replay_cluster(trace)
    TraceReplayApp(trace, cluster).run()
    model = cluster.model
    assert model.stats.counters["network_stage_solves"] > model.NET_MEMO_SIZE
    assert len(model._net_memo) == model.NET_MEMO_SIZE  # bound was hit
    assert fingerprint_cluster(cluster) == reference_replay_fingerprint(trace)


def test_replay_completes_every_rank():
    trace = generate_trace("ai_training", seed=0, ranks=3, steps=2)
    cluster = build_replay_cluster(trace)
    app = TraceReplayApp(trace, cluster).run()
    assert app.finished
    assert len(app.procs) == trace.meta.ranks
    for proc in app.procs:
        assert proc.counters["trace_steps"] == 2.0


def test_collective_dependencies_gate_progress():
    # Every allreduce of step s depends on *all* sends of step s, so no
    # rank can be a full step ahead: all ranks finish at one instant.
    trace = generate_trace("ai_training", seed=9, ranks=4, steps=3)
    cluster = build_replay_cluster(trace)
    app = TraceReplayApp(trace, cluster).run()
    ends = {proc.end_time for proc in app.procs}
    assert len(ends) == 1


def test_build_replay_cluster_matches_header():
    trace = generate_trace("checkpoint_burst", seed=0, ranks=3, steps=1)
    cluster = build_replay_cluster(trace)
    assert len(cluster.nodes) == trace.meta.nodes
    assert "nfs" in cluster.filesystems


def test_replay_rejects_missing_node():
    trace = generate_trace("ai_training", seed=0, ranks=4, steps=1)
    small = Cluster.chameleon(num_nodes=2, with_nfs=False)
    with pytest.raises(TraceError, match="no such node"):
        TraceReplayApp(trace, small)


def test_replay_rejects_missing_filesystem():
    trace = generate_trace("metadata_storm", seed=0, ranks=2, steps=1)
    bare = Cluster.chameleon(num_nodes=2, with_nfs=False)
    with pytest.raises(TraceError, match="filesystem"):
        TraceReplayApp(trace, bare)


def test_double_launch_is_typed_error():
    trace = generate_trace("ai_training", seed=0, ranks=2, steps=1)
    app = TraceReplayApp(trace, build_replay_cluster(trace))
    app.launch()
    with pytest.raises(TraceError, match="already launched"):
        app.launch()


def test_replay_trace_returns_finished_cluster():
    trace = generate_trace("parameter_server", seed=1, ranks=3, steps=2)
    cluster = replay_trace(trace)
    assert cluster.sim.now > 0.0


def test_anomaly_composes_with_replay():
    # An injected cpuoccupy window must slow the replayed workload down —
    # replayed traces contend for resources like native applications.
    from repro.core import CpuOccupy

    trace = generate_trace("ai_training", seed=2, ranks=3, steps=3)
    clean = replay_trace(trace)
    squatted = build_replay_cluster(trace)
    CpuOccupy(utilization=100.0, duration=60.0).launch(
        squatted, "node0", core=0, start=0.0
    )
    app = TraceReplayApp(trace, squatted).run(timeout=1e6)
    assert app.finished
    assert max(p.end_time for p in app.procs) > clean.sim.now
