"""Streaming sinks: byte-identity with the batch exporters and with the
stdlib's own rendering of hand-built records, and per-node sample routing.

The contract under test (docs/OBSERVABILITY.md, "Streaming sinks"): a
sink receives records in completion (``seq``) order and an incremental
writer therefore produces *byte-identical* files to the end-of-run
exporters, while holding O(tracks) state instead of the record backlog.
"""

import io
import json
import math

import pytest

from repro.cluster import Cluster
from repro.errors import ConfigError, ObservabilityError
from repro.monitoring.export import to_jsonl_text
from repro.monitoring.service import MetricService
from repro.obs import Observability, assert_valid_chrome_trace
from repro.obs.export import chrome_trace, jsonl_lines, write_jsonl_trace
from repro.obs.observability import trace_job
from repro.obs.spans import InstantEvent, Span
from repro.obs.stream import (
    COUNTERS_JSON,
    COUNTERS_JSONL,
    METRICS_DIR,
    TRACE_CHROME,
    TRACE_JSONL,
    ChromeStreamWriter,
    CounterStreamWriter,
    JsonlStreamWriter,
    MetricJsonlStreamWriter,
    ObsSink,
    _json_safe,
    counters_snapshot_text,
)

HORIZON = 60.0


class _CountingSink(ObsSink):
    def __init__(self):
        self.closed = 0
        self.instants = 0
        self.samples = 0

    def on_span_close(self, span):
        self.closed += 1

    def on_instant(self, event):
        self.instants += 1

    def on_metric_sample(self, time, node, values):
        self.samples += 1


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One traced ``mixed`` run with in-memory sinks *and* a RunStreamer
    attached."""
    run_dir = tmp_path_factory.mktemp("stream") / "run"
    buffers = {"jsonl": io.StringIO(), "chrome": io.StringIO()}
    metric_buffers = {}
    counter = _CountingSink()

    def hook(obs):
        obs.collector.add_sink(JsonlStreamWriter(buffers["jsonl"]))
        obs.collector.add_sink(ChromeStreamWriter(buffers["chrome"]))
        obs.collector.add_sink(counter)
        service = obs.service
        for node in sorted(service.data):
            buf = metric_buffers.setdefault(node, io.StringIO())
            service.add_sink(
                MetricJsonlStreamWriter(buf, node, service.metric_names), node=node
            )
        service.add_sink(counter)
        obs.stream_to(run_dir, chrome=True)

    _, obs = trace_job("mixed", overrides={"horizon": HORIZON}, on_obs=hook)
    # The finalized collector already fed the in-memory sinks the
    # horizon-sealed spans; only the Chrome footer is left to us.
    assert obs.close_streams() == [run_dir]
    for sink in list(obs.collector.sinks):
        sink.close()
    return obs, run_dir, buffers, metric_buffers, counter


class TestByteIdentity:
    def test_jsonl_stream_matches_batch(self, streamed):
        obs, _, buffers, _, _ = streamed
        batch = "\n".join(jsonl_lines(obs.collector)) + "\n"
        assert buffers["jsonl"].getvalue() == batch

    def test_chrome_stream_matches_batch(self, streamed):
        obs, _, buffers, _, _ = streamed
        batch = (
            json.dumps(chrome_trace(obs.collector), sort_keys=True, indent=1)
            + "\n"
        )
        assert buffers["chrome"].getvalue() == batch

    def test_chrome_stream_is_schema_valid(self, streamed):
        _, _, buffers, _, _ = streamed
        trace = json.loads(buffers["chrome"].getvalue())
        assert_valid_chrome_trace(trace)

    def test_metric_streams_match_batch(self, streamed):
        obs, _, _, metric_buffers, _ = streamed
        assert metric_buffers  # the job samples at least one node
        for node, buf in metric_buffers.items():
            assert buf.getvalue() == to_jsonl_text(obs.service, node)

    def test_counting_sink_saw_every_record(self, streamed):
        obs, _, _, _, counter = streamed
        collector = obs.collector
        assert counter.closed == len(collector.spans)
        assert counter.instants == len(collector.instants)
        nodes = len(obs.service.data)
        assert counter.samples == len(obs.service.times) * nodes


class TestRunStreamer:
    def test_run_directory_layout(self, streamed):
        _, run_dir, _, _, _ = streamed
        assert (run_dir / TRACE_JSONL).is_file()
        assert (run_dir / TRACE_CHROME).is_file()
        assert (run_dir / COUNTERS_JSONL).is_file()
        assert (run_dir / COUNTERS_JSON).is_file()
        metrics = sorted(p.name for p in (run_dir / METRICS_DIR).iterdir())
        assert metrics == [f"node{i}.jsonl" for i in range(6)]

    def test_streamed_files_match_batch_exports(self, streamed, tmp_path):
        obs, run_dir, _, _, _ = streamed
        batch_path = tmp_path / "batch.jsonl"
        write_jsonl_trace(obs.collector, batch_path)
        assert (run_dir / TRACE_JSONL).read_bytes() == batch_path.read_bytes()

    def test_final_counter_snapshot(self, streamed):
        obs, run_dir, _, _, _ = streamed
        text = (run_dir / COUNTERS_JSON).read_text()
        assert text == counters_snapshot_text(obs.stats)
        payload = json.loads(text)
        assert payload["counters"] == dict(obs.stats.counters)

    def test_counter_stream_is_one_snapshot_per_tick(self, streamed):
        obs, run_dir, _, _, _ = streamed
        lines = (run_dir / COUNTERS_JSONL).read_text().splitlines()
        times = [json.loads(line)["time"] for line in lines]
        assert times == sorted(set(times))  # strictly one record per tick
        assert len(times) == len(obs.service.times)

    def test_sinks_detached_after_close(self, streamed):
        obs, _, _, _, counter = streamed
        # close_streams() removed the streamer's sinks; only the three
        # in-memory ones registered by the fixture hook remain.
        assert len(obs.collector.sinks) == 3
        assert counter in obs.service.sinks


class TestWriterEdges:
    def test_write_after_close_raises(self):
        sink = JsonlStreamWriter(io.StringIO())
        sink.close()
        with pytest.raises(ObservabilityError, match="closed"):
            sink._write("x")

    def test_close_is_idempotent(self):
        buf = io.StringIO()
        sink = ChromeStreamWriter(buf)
        sink.close()
        first = buf.getvalue()
        sink.close()
        assert buf.getvalue() == first

    def test_empty_chrome_stream_is_valid_json(self):
        buf = io.StringIO()
        ChromeStreamWriter(buf).close()
        trace = json.loads(buf.getvalue())
        assert trace["traceEvents"] == []

    def test_metric_writer_ignores_other_nodes(self):
        buf = io.StringIO()
        sink = MetricJsonlStreamWriter(buf, "node0", ["m"])
        sink.on_metric_sample(1.0, "node1", {"m": 2.0})
        assert buf.getvalue() == ""
        sink.on_metric_sample(1.0, "node0", {"m": 2.0})
        assert json.loads(buf.getvalue()) == {"time": 1.0, "node": "node0", "m": 2.0}

    def test_base_sink_callbacks_are_noops(self):
        sink = ObsSink()
        sink.on_span_close(None)
        sink.on_instant(None)
        sink.on_metric_sample(0.0, "node0", {})
        sink.flush()
        sink.close()


class TestServiceSinkRegistry:
    def test_duplicate_add_rejected(self, streamed):
        obs, _, _, _, counter = streamed
        with pytest.raises(ConfigError):
            obs.service.add_sink(counter)

    def test_remove_absent_rejected(self, streamed):
        obs, _, _, _, _ = streamed
        with pytest.raises(ConfigError):
            obs.service.remove_sink(ObsSink())


# -- reference bytes: hand-built records against the stdlib ------------------

NAN, INF = float("nan"), float("inf")

#: spans and instants in completion order, covering every args shape the
#: writers convert: empty, nested containers, tuples, sets, bools, None,
#: non-finite floats, non-str keys, quotes, newlines and non-ASCII text
RECORDS = [
    Span(sid=1, cat="engine", name="app", track=("node0", "p1:app"),
         start=0.5, end=1.25, seq=1),
    Span(sid=2, cat="engine", name="seg", track=("node0", "p1:app"),
         start=0.75, end=1.0, parent=1, seq=2,
         args={"nested": {"b": [1, 2.5, {"c": None}], "a": {}},
               "tuple": (1, "x"), "set": {3, 1, 2}, "flag": True,
               "none": None, "empty": []}),
    InstantEvent(cat="engine", name="resolve", track=("cluster", "engine"),
                 time=1.0, seq=3),
    Span(sid=3, cat="anomaly", name='say "hi"\n', track=("cluster", "nœud ✓"),
         start=0.0, end=2.0, seq=4,
         args={"nan": NAN, "inf": INF, "ninf": -INF, 1: "int key",
               (2, 3): "tuple key", "quote": 'a "b"', "newline": "a\nb",
               "unicode": "nœud ✓"}),
    InstantEvent(cat="sched", name="place", track=("node0", "sched"),
                 time=1.5, seq=5,
                 args={"running": 3, "dirty": -1, "ratio": 0.1, "label": "ünï"}),
    Span(sid=4, cat="anomaly", name="forever", track=("node1", "p2:membw"),
         start=1.5, end=INF, seq=6, args={"work": 3.0}),
]

#: the same records as the logical Chrome trace, spelled out by hand
CHROME_EVENTS = [
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
     "args": {"name": "node0"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
     "args": {"name": "p1:app"}},
    {"name": "app", "cat": "engine", "ph": "X", "ts": 500000.0,
     "dur": 750000.0, "pid": 1, "tid": 1, "args": {"sid": 1}},
    {"name": "seg", "cat": "engine", "ph": "X", "ts": 750000.0,
     "dur": 250000.0, "pid": 1, "tid": 1,
     "args": {"nested": {"b": [1, 2.5, {"c": None}], "a": {}},
              "tuple": [1, "x"], "set": ["1", "2", "3"], "flag": True,
              "none": None, "empty": [], "sid": 2, "parent": 1}},
    {"name": "process_name", "ph": "M", "pid": 2, "tid": 0, "ts": 0,
     "args": {"name": "cluster"}},
    {"name": "thread_name", "ph": "M", "pid": 2, "tid": 2, "ts": 0,
     "args": {"name": "engine"}},
    {"name": "resolve", "cat": "engine", "ph": "i", "s": "t", "ts": 1000000.0,
     "pid": 2, "tid": 2, "args": {}},
    {"name": "thread_name", "ph": "M", "pid": 2, "tid": 3, "ts": 0,
     "args": {"name": "nœud ✓"}},
    {"name": 'say "hi"\n', "cat": "anomaly", "ph": "X", "ts": 0.0,
     "dur": 2000000.0, "pid": 2, "tid": 3,
     "args": {"nan": "nan", "inf": "inf", "ninf": "-inf", "1": "int key",
              "(2, 3)": "tuple key", "quote": 'a "b"', "newline": "a\nb",
              "unicode": "nœud ✓", "sid": 3}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "ts": 0,
     "args": {"name": "sched"}},
    {"name": "place", "cat": "sched", "ph": "i", "s": "t", "ts": 1500000.0,
     "pid": 1, "tid": 4,
     "args": {"running": 3, "dirty": -1, "ratio": 0.1, "label": "ünï"}},
    {"name": "process_name", "ph": "M", "pid": 3, "tid": 0, "ts": 0,
     "args": {"name": "node1"}},
    {"name": "thread_name", "ph": "M", "pid": 3, "tid": 5, "ts": 0,
     "args": {"name": "p2:membw"}},
    {"name": "forever", "cat": "anomaly", "ph": "X", "ts": 1500000.0,
     "dur": INF, "pid": 3, "tid": 5, "args": {"work": 3.0, "sid": 4}},
]


def _jsonl_record(record):
    """The logical JSONL record of a span or instant."""
    common = {"seq": record.seq, "cat": record.cat, "name": record.name,
              "group": record.track[0], "lane": record.track[1],
              "args": dict(record.args)}
    if isinstance(record, Span):
        return {"type": "span", "sid": record.sid, "start": record.start,
                "end": record.end, "parent": record.parent, **common}
    return {"type": "instant", "time": record.time, **common}


def _feed(sink):
    for record in RECORDS:
        if isinstance(record, Span):
            sink.on_span_close(record)
        else:
            sink.on_instant(record)
    sink.close()


class TestReferenceBytes:
    def test_chrome_equals_stdlib_indent1(self):
        buf = io.StringIO()
        _feed(ChromeStreamWriter(buf))
        trace = {
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated", "time_unit": "us"},
            "traceEvents": CHROME_EVENTS,
        }
        assert buf.getvalue() == json.dumps(trace, sort_keys=True, indent=1) + "\n"

    def test_jsonl_equals_stdlib_compact(self):
        buf = io.StringIO()
        _feed(JsonlStreamWriter(buf))
        expected = [
            json.dumps(
                _json_safe(_jsonl_record(r)), sort_keys=True, separators=(",", ":")
            )
            for r in RECORDS
        ]
        assert buf.getvalue().splitlines() == expected

    def test_non_finite_times_are_strings(self):
        buf = io.StringIO()
        writer = JsonlStreamWriter(buf)
        writer.on_span_close(RECORDS[-1])
        writer.on_instant(
            InstantEvent(cat="c", name="n", track=("g", "l"), time=NAN, seq=7)
        )
        span, instant = map(json.loads, buf.getvalue().splitlines())
        assert (span["start"], span["end"], instant["time"]) == (1.5, "inf", "nan")

    def test_strict_dict_is_returned_as_is(self):
        strict = {"a": 1, "b": 2.5, "c": "x", "d": None, "e": True}
        assert _json_safe(strict) is strict

    @pytest.mark.parametrize(
        "args",
        [{"a": NAN}, {1: "x"}, {"a": (1,)}, {"a": {"b": 1}}, {"a": {1}}],
        ids=["nan", "int-key", "tuple", "nested", "set"],
    )
    def test_dict_needing_conversion_is_rebuilt(self, args):
        safe = _json_safe(args)
        assert safe is not args
        assert json.loads(json.dumps(safe, allow_nan=False)) == safe
        assert not any(isinstance(v, float) and not math.isfinite(v)
                       for v in safe.values())


class _NodeLog(ObsSink):
    def __init__(self):
        self.nodes = []

    def on_metric_sample(self, time, node, values):
        self.nodes.append(node)


class TestMetricRouting:
    def _service(self):
        service = MetricService(Cluster.voltrino(num_nodes=3))
        service.attach()
        return service

    def test_node_sink_receives_only_its_node(self):
        service = self._service()
        own, every = _NodeLog(), _NodeLog()
        service.add_sink(own, node="node1")
        service.add_sink(every)
        service.cluster.sim.run(until=3.5)
        ticks = len(service.times)
        assert ticks > 0
        assert own.nodes == ["node1"] * ticks
        assert every.nodes == ["node0", "node1", "node2"] * ticks

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigError, match="unknown node"):
            self._service().add_sink(ObsSink(), node="node9")

    def test_removed_node_sink_gets_nothing(self):
        service = self._service()
        sink = _NodeLog()
        service.add_sink(sink, node="node0")
        service.remove_sink(sink)
        service.cluster.sim.run(until=2.5)
        assert sink.nodes == [] and service.sinks == ()


class _FirstNodeCounters(ObsSink):
    """The counter stream as the writer rendered it while it was fed every
    node's sample and kept only those of the first node it saw."""

    def __init__(self, stats):
        self.stats = stats
        self.first = None
        self.text = ""

    def on_metric_sample(self, time, node, values):
        if self.first is None:
            self.first = node
        if node == self.first:
            record = {"time": float(time), "counters": self.stats.counters}
            self.text += json.dumps(record, sort_keys=True) + "\n"


class TestCounterStreamRouting:
    def test_one_callback_per_tick_and_bytes_unchanged(self, tmp_path, monkeypatch):
        nodes = []
        write = CounterStreamWriter.on_metric_sample

        def counted(self, time, node, values):
            nodes.append(node)
            write(self, time, node, values)

        monkeypatch.setattr(CounterStreamWriter, "on_metric_sample", counted)
        reference = []

        def hook(obs):
            reference.append(_FirstNodeCounters(obs.stats))
            obs.service.add_sink(reference[0])
            obs.stream_to(tmp_path / "run")

        _, obs = trace_job("mixed", overrides={"horizon": HORIZON}, on_obs=hook)
        obs.close_streams()
        service = obs.service
        assert len(service.data) > 1 and service.times
        assert nodes == [next(iter(service.data))] * len(service.times)
        text = (tmp_path / "run" / COUNTERS_JSONL).read_text()
        assert text == reference[0].text

    def test_service_without_nodes(self, tmp_path):
        # A cluster has at least one node, but a service may sample none:
        # the writer is then registered for every node, and no tick comes.
        cluster = Cluster.voltrino(num_nodes=1)
        service = MetricService(cluster)
        service.data.clear()
        streamer = Observability(cluster, service=service).stream_to(tmp_path / "run")
        assert len(service.sinks) == 1
        streamer.close()
        assert (tmp_path / "run" / COUNTERS_JSONL).read_text() == ""
