"""Trace recorder: transparency, taints, record-then-replay identity."""

from __future__ import annotations

import pytest

from repro.apps import AppJob, get_app
from repro.check.harness import fingerprint_cluster
from repro.cluster import Cluster
from repro.errors import TraceError
from repro.traces import (
    TraceRecorder,
    dumps,
    loads,
    record_experiment,
    recording_session,
    replay_fingerprint,
)


def _mini_job(cluster: Cluster) -> AppJob:
    app = get_app("miniMD").scaled(iterations=3)
    return AppJob(app, cluster, nodes=[0, 1], ranks_per_node=2, seed=11)


def test_recording_is_transparent():
    plain = Cluster.voltrino(num_nodes=2)
    _mini_job(plain).run()

    taped = Cluster.voltrino(num_nodes=2)
    recorder = TraceRecorder(taped)
    _mini_job(taped).run()
    recording = recorder.finalize()

    assert recording.clean, recording.taints
    assert fingerprint_cluster(plain) == fingerprint_cluster(taped)
    assert recording.fingerprint == fingerprint_cluster(taped)


def test_record_then_replay_is_byte_identical():
    cluster = Cluster.voltrino(num_nodes=2)
    recorder = TraceRecorder(cluster)
    _mini_job(cluster).run()
    recording = recorder.finalize()
    assert recording.clean, recording.taints
    assert replay_fingerprint(recording.trace) == recording.fingerprint


def test_recorded_trace_round_trips():
    cluster = Cluster.voltrino(num_nodes=2)
    recorder = TraceRecorder(cluster)
    _mini_job(cluster).run()
    trace = recorder.finalize().trace
    assert loads(dumps(trace)) == trace


def test_second_recorder_is_typed_error():
    cluster = Cluster.voltrino(num_nodes=2)
    TraceRecorder(cluster)
    with pytest.raises(TraceError, match="record"):
        TraceRecorder(cluster)


def test_unbounded_anomaly_taints_the_recording():
    from repro.core import CpuOccupy

    cluster = Cluster.voltrino(num_nodes=2)
    recorder = TraceRecorder(cluster)
    CpuOccupy(utilization=80.0).launch(cluster, "node0", core=0, start=0.0)
    cluster.sim.run(until=5.0)
    recording = recorder.finalize()
    assert not recording.clean
    assert any("unbounded" in taint for taint in recording.taints)


def test_fault_injector_taints_the_recording():
    from repro.faults import FaultInjector

    cluster = Cluster.voltrino(num_nodes=2)
    recorder = TraceRecorder(cluster)
    faults = FaultInjector(cluster)
    faults.add(1.0, "node1", "slowdown", duration=2.0, factor=0.5)
    faults.deploy()
    _mini_job(cluster).run()
    recording = recorder.finalize()
    assert not recording.clean
    assert any("fault injector" in taint for taint in recording.taints)


def test_recording_session_captures_inner_clusters():
    with recording_session("inner") as session:
        cluster = Cluster.voltrino(num_nodes=2)
        _mini_job(cluster).run()
    assert len(session.traces) == 1
    recording = session.traces[0]
    assert recording.clean, recording.taints
    assert recording.trace.meta.origin == "recorded"
    assert recording.trace.meta.ran_until == pytest.approx(cluster.sim.now)


def test_record_experiment_yields_clean_replayable_traces():
    recorded = record_experiment(
        "table2", overrides={"iterations": 2, "ranks_per_node": 2}
    )
    clean = recorded.clean_traces()
    assert clean, [rec.taints for rec in recorded.recordings]
    first = clean[0]
    assert replay_fingerprint(first.trace) == first.fingerprint
