"""SpanCollector: lifecycle, emission primitives, engine integration."""

import pytest

from repro.cluster import Cluster
from repro.errors import ObservabilityError
from repro.obs import SpanCollector
from repro.sim.engine import Simulator
from repro.sim.process import Segment, Sleep


def run_app(collector=None, work=5.0):
    cluster = Cluster(num_nodes=1)
    if collector is not None:
        collector.attach(cluster.sim)

    def app(proc):
        yield Segment(work=work, label="compute")

    cluster.spawn("app", app, node=0, core=0)
    cluster.sim.run()
    return cluster


class TestLifecycle:
    def test_attach_sets_sim_obs(self):
        sim = Simulator()
        collector = SpanCollector()
        assert sim.obs is None
        collector.attach(sim)
        assert sim.obs is collector
        assert collector.attached

    def test_detach_restores_zero_cost_state(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        collector.detach()
        assert sim.obs is None
        assert not collector.attached

    def test_double_attach_rejected(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        with pytest.raises(ObservabilityError):
            collector.attach(sim)

    def test_second_collector_on_same_sim_rejected(self):
        sim = Simulator()
        SpanCollector().attach(sim)
        with pytest.raises(ObservabilityError):
            SpanCollector().attach(sim)

    def test_detach_without_attach_rejected(self):
        with pytest.raises(ObservabilityError):
            SpanCollector().detach()

    def test_now_requires_attachment(self):
        with pytest.raises(ObservabilityError):
            SpanCollector().now

    def test_unobserved_sim_records_nothing(self):
        cluster = run_app(collector=None)
        assert cluster.sim.obs is None


class TestEngineSpans:
    def test_process_and_segment_spans(self):
        collector = SpanCollector()
        run_app(collector)
        engine = collector.by_category("engine")
        names = {s.name for s in engine}
        assert "app" in names and "compute" in names
        proc_span = next(s for s in engine if s.name == "app")
        seg_span = next(s for s in engine if s.name == "compute")
        assert seg_span.parent == proc_span.sid
        assert proc_span.start == pytest.approx(0.0)
        assert proc_span.end == pytest.approx(5.0)
        assert proc_span.args["exit"] == "done"

    def test_sleep_closes_segment_span(self):
        cluster = Cluster(num_nodes=1)
        collector = SpanCollector()
        collector.attach(cluster.sim)

        def app(proc):
            yield Segment(work=2.0, label="a")
            yield Sleep(3.0)
            yield Segment(work=1.0, label="b")

        cluster.spawn("app", app, node=0, core=0)
        cluster.sim.run()
        by_name = {s.name: s for s in collector.by_category("engine")}
        assert by_name["a"].end == pytest.approx(2.0)
        assert by_name["b"].start == pytest.approx(5.0)
        assert by_name["b"].end == pytest.approx(6.0)

    def test_resolve_instants_recorded(self):
        collector = SpanCollector()
        run_app(collector)
        resolves = [e for e in collector.instants if e.name == "resolve"]
        assert resolves
        assert all(e.args["running"] >= 0 for e in resolves)

    def test_collection_does_not_perturb_simulated_time(self):
        plain = run_app(collector=None)
        observed = run_app(SpanCollector())
        assert observed.sim.now == plain.sim.now
        assert (
            observed.sim.stats.counters["resolves"]
            == plain.sim.stats.counters["resolves"]
        )


class TestEmission:
    def test_end_twice_rejected(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        span = collector.begin("x", "s", ("g", "l"))
        collector.end(span)
        with pytest.raises(ObservabilityError):
            collector.end(span)

    def test_open_span_duration_rejected(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        span = collector.begin("x", "s", ("g", "l"))
        assert span.open
        with pytest.raises(ObservabilityError):
            span.duration

    def test_sids_unique_and_ordered(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        sids = [collector.begin("x", f"s{i}", ("g", "l")).sid for i in range(5)]
        assert sids == sorted(set(sids))

    def test_watch_closes_span_when_last_pid_ends(self):
        cluster = Cluster(num_nodes=1)
        collector = SpanCollector()
        collector.attach(cluster.sim)

        def app(work):
            def body(proc):
                yield Segment(work=work)

            return body

        p1 = cluster.spawn("a", app(2.0), node=0, core=0)
        p2 = cluster.spawn("b", app(4.0), node=0, core=1)
        group = collector.begin("group", "pair", ("cluster", "group"))
        collector.watch(group, [p1.pid, p2.pid])
        cluster.sim.run()
        assert group.end == pytest.approx(4.0)

    def test_window_opens_and_closes_once(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        for active in (True, True, False, False):
            collector.window("k", "io", "busy", ("g", "l"), active=active)
        spans = collector.by_category("io")
        assert len(spans) == 1
        assert not spans[0].open

    def test_finalize_closes_open_spans(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        span = collector.begin("x", "s", ("g", "l"))
        collector.finalize(t=7.0)
        assert span.end == pytest.approx(7.0)
        assert span.args["unfinished"] is True

    def test_categories_summary(self):
        sim = Simulator()
        collector = SpanCollector()
        collector.attach(sim)
        collector.begin("a", "s1", ("g", "l"))
        collector.begin("b", "s2", ("g", "l"))
        collector.begin("a", "s3", ("g", "l"))
        assert collector.categories() == {"a": 2, "b": 1}
