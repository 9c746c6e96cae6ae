"""Execution tracer."""

import pytest

from repro.cluster import Cluster
from repro.core import CpuOccupy
from repro.sim.engine import Simulator
from repro.sim.process import Segment, SimProcess
from repro.sim.trace import Timeline, TraceRecord, Tracer


def test_timeline_records_speed_changes():
    cluster = Cluster(num_nodes=1)
    tracer = Tracer()
    tracer.attach(cluster.sim)

    def app(proc):
        yield Segment(work=10.0, label="phase")

    cluster.spawn("app", app, node=0, core=0)
    CpuOccupy(utilization=100, duration=4.0).launch(cluster, "node0", core=0, start=2.0)
    cluster.sim.run(until=100)
    timeline = tracer.by_name("app")
    assert timeline.speed_at(1.0) == pytest.approx(1.0)
    assert timeline.speed_at(3.0) == pytest.approx(0.5)
    assert timeline.speed_at(7.0) == pytest.approx(1.0)


def test_intervals_cover_process_lifetime():
    cluster = Cluster(num_nodes=1)
    tracer = Tracer()
    tracer.attach(cluster.sim)

    def app(proc):
        yield Segment(work=5.0)

    cluster.spawn("app", app, node=0, core=0)
    cluster.sim.run()
    intervals = tracer.by_name("app").intervals()
    assert intervals[0][0] == pytest.approx(0.0)
    assert intervals[-1][1] == pytest.approx(5.0)


def test_end_record_carries_reason():
    cluster = Cluster(num_nodes=1)
    tracer = Tracer()
    tracer.attach(cluster.sim)

    def app(proc):
        yield Segment(work=5.0)

    p = cluster.spawn("app", app, node=0, core=0)
    cluster.sim.schedule(2.0, lambda: cluster.sim.kill(p, reason="testing"))
    cluster.sim.run(until=10)
    records = [r for r in tracer.by_name("app").records if r.kind == "end"]
    assert records[0].detail == "testing"
    assert records[0].time == pytest.approx(2.0)


def _counters_after_run(traced):
    cluster = Cluster(num_nodes=1)
    if traced:
        Tracer().attach(cluster.sim)

    def app(proc):
        yield Segment(work=10.0, ips=1e9, mem_bw=1e9)

    app_proc = cluster.spawn("app", app, node=0, core=0)
    CpuOccupy(utilization=100, duration=4.0).launch(cluster, "node0", core=0, start=2.0)
    cluster.sim.run(until=100)
    return dict(app_proc.counters), dict(cluster.node(0).counters)


def test_tracing_leaves_counters_unchanged():
    traced = _counters_after_run(traced=True)
    assert traced == _counters_after_run(traced=False)
    assert traced[0]["instructions"] > 0.0


def test_render_is_readable():
    cluster = Cluster(num_nodes=1)
    tracer = Tracer()
    tracer.attach(cluster.sim)

    def app(proc):
        yield Segment(work=1.0, label="compute")

    cluster.spawn("app", app, node=0, core=0)
    cluster.sim.run()
    text = tracer.render()
    assert "app" in text and "compute" in text and "END" in text


def test_duplicate_resolves_deduplicated():
    sim = Simulator()
    tracer = Tracer()
    tracer.attach(sim)

    def body(proc):
        yield Segment(work=2.0, label="x")

    p = SimProcess("p", body, node="n", core=0)
    sim.spawn(p)
    sim.every(0.1, lambda t: setattr(sim, "_dirty", True), start=0.0, end=1.0)
    sim.run()
    speed_records = [
        r for r in tracer.by_name("p").records if r.kind == "speed"
    ]
    assert len(speed_records) == 1  # same speed re-resolved -> one record


def test_unknown_name_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.by_name("ghost")


def test_double_attach_rejected():
    sim = Simulator()
    tracer = Tracer()
    tracer.attach(sim)
    with pytest.raises(RuntimeError):
        tracer.attach(sim)


def test_detach_restores_model_and_allows_reattach():
    cluster = Cluster(num_nodes=1)
    original_model = cluster.sim.model
    tracer = Tracer()
    tracer.attach(cluster.sim)

    def app(proc):
        yield Segment(work=2.0)

    cluster.spawn("app", app, node=0, core=0)
    cluster.sim.run()
    tracer.detach()
    assert cluster.sim.model is original_model
    # recorded data survives detach, and the tracer can attach again
    assert tracer.by_name("app").records
    tracer.attach(cluster.sim)

    def second(proc):
        yield Segment(work=1.0)

    cluster.spawn("second", second, node=0, core=0)
    cluster.sim.run()
    assert tracer.by_name("second").records
    tracer.detach()
    assert cluster.sim.model is original_model


def test_detach_without_attach_rejected():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.detach()


def test_detach_with_foreign_model_rejected():
    sim = Simulator()
    tracer = Tracer()
    tracer.attach(sim)
    other = Tracer()
    other.attach(sim)  # wraps on top of the first tracer's wrapper
    with pytest.raises(RuntimeError, match="wrapper"):
        tracer.detach()
    other.detach()  # unwraps cleanly back to the first wrapper
    tracer.detach()


class TestTimelineIntervals:
    @staticmethod
    def _speed(time, value):
        return TraceRecord(time=time, pid=1, name="p", kind="speed", detail="", value=value)

    @staticmethod
    def _end(time):
        return TraceRecord(time=time, pid=1, name="p", kind="end", detail="done")

    def test_empty_timeline(self):
        assert Timeline().intervals() == []

    def test_end_only_timeline(self):
        assert Timeline(records=[self._end(3.0)]).intervals() == []

    def test_coincident_speed_records(self):
        timeline = Timeline(
            records=[self._speed(1.0, 0.5), self._speed(1.0, 0.8), self._end(4.0)]
        )
        pieces = timeline.intervals()
        # zero-width piece for the superseded record, then the real one
        assert pieces == [(1.0, 1.0, 0.5), (1.0, 4.0, 0.8)]

    def test_end_before_speed_record(self):
        timeline = Timeline(records=[self._end(1.0), self._speed(2.0, 1.0)])
        pieces = timeline.intervals()
        assert pieces == [(2.0, 1.0, 1.0)]  # degenerate: end precedes speed

    def test_open_timeline_extends_to_infinity(self):
        pieces = Timeline(records=[self._speed(0.0, 1.0)]).intervals()
        assert pieces == [(0.0, float("inf"), 1.0)]

    def test_pieces_are_contiguous(self):
        timeline = Timeline(
            records=[
                self._speed(0.0, 1.0),
                self._speed(2.0, 0.5),
                self._speed(5.0, 0.8),
                self._end(9.0),
            ]
        )
        pieces = timeline.intervals()
        assert pieces == [(0.0, 2.0, 1.0), (2.0, 5.0, 0.5), (5.0, 9.0, 0.8)]
        for (_, prev_end, _), (nxt_start, _, _) in zip(pieces, pieces[1:]):
            assert prev_end == nxt_start

    def test_single_sample_profile(self):
        timeline = Timeline(records=[self._speed(1.0, 0.25), self._end(3.0)])
        assert timeline.intervals() == [(1.0, 3.0, 0.25)]
        assert timeline.speed_at(0.5) == 0.0  # before the first record
        assert timeline.speed_at(2.0) == 0.25

    def test_multiple_end_records_use_the_last(self):
        # A respawned process logs two ends; the profile closes at the last.
        timeline = Timeline(
            records=[self._speed(0.0, 1.0), self._end(2.0), self._end(4.0)]
        )
        assert timeline.intervals() == [(0.0, 4.0, 1.0)]
