"""The trace-query engine: filters, rollups, and causal walks."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.analyze import Trace
from repro.obs.export import write_jsonl_trace
from repro.obs.observability import trace_job


@pytest.fixture(scope="module")
def obs():
    return trace_job("mixed")[1]


@pytest.fixture(scope="module")
def trace(obs):
    return Trace.from_collector(obs.collector)


class TestLoading:
    def test_load_roundtrips_from_collector(self, obs, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("analyze") / "trace.jsonl"
        write_jsonl_trace(obs.collector, path)
        loaded = Trace.load(path)
        assert len(loaded) == len(trace)
        assert loaded.categories() == trace.categories()
        assert [s.sid for s in loaded] == [s.sid for s in trace]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            Trace.load(path)

    def test_categories_cover_the_stack(self, trace):
        cats = trace.categories()
        assert {"engine", "injector", "scheduler"} <= set(cats)
        assert all(n > 0 for n in cats.values())


class TestFilters:
    def test_filter_by_category(self, trace):
        engine = trace.filter(cat="engine")
        assert 0 < len(engine) < len(trace)
        assert all(s.cat == "engine" for s in engine)

    def test_filters_compose(self, trace):
        some = trace.filter(cat="engine").filter(group="node0")
        assert all(s.cat == "engine" and s.group == "node0" for s in some)

    def test_predicate_filter(self, trace):
        long_spans = trace.filter(predicate=lambda s: s.duration > 10.0)
        assert all(s.duration > 10.0 for s in long_spans)


class TestRollups:
    def test_duration_stats_counts_sum_to_spans(self, trace):
        stats = trace.duration_stats(by="cat")
        assert sum(s.count for s in stats.values()) == len(trace.spans)
        assert stats == dict(sorted(stats.items()))

    def test_duration_stats_rejects_unknown_grouping(self, trace):
        with pytest.raises(ObservabilityError, match="grouping"):
            trace.duration_stats(by="lane")

    def test_utilization_is_a_fraction(self, trace):
        util = trace.utilization(cat="engine")
        assert util  # the mixed scenario keeps nodes busy
        assert all(0.0 < frac <= 1.0 for frac in util.values())

    def test_nested_spans_never_double_count(self, trace):
        # Engine process spans fully contain their segment spans; a naive
        # sum would exceed the horizon, the merged union cannot.
        assert all(f <= 1.0 for f in trace.utilization().values())

    def test_lane_utilization_refines_groups(self, trace):
        by_node = trace.utilization(cat="engine")
        by_lane = trace.lane_utilization(cat="engine")
        assert {group for group, _ in by_lane} == set(by_node)


class TestCausalWalks:
    def test_critical_path_is_a_causal_chain(self, trace):
        path = trace.critical_path()
        assert path
        assert path[0].parent is None  # starts at a root
        for parent, child in zip(path, path[1:]):
            assert child.parent == parent.sid

    def test_critical_path_root_ends_last(self, trace):
        path = trace.critical_path()
        assert path[0].end == max(s.end for s in trace.roots())

    def test_enclosing_finds_innermost(self, trace):
        span = trace.critical_path()[-1]
        mid = (span.start + span.end) / 2
        found = trace.enclosing(span.group, mid)
        assert found is not None
        assert found.contains(mid)
        assert found.duration <= span.duration

    def test_enclosing_misses_cleanly(self, trace):
        assert trace.enclosing("no-such-node", 1.0) is None


class TestMisc:
    def test_horizon_is_latest_end(self, trace):
        assert trace.horizon == max(s.end for s in trace.spans)

    def test_shifted_moves_everything(self, trace):
        moved = trace.shifted(5.0)
        assert moved.horizon == trace.horizon + 5.0
        assert len(moved) == len(trace)
