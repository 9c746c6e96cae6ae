"""Streaming sinks: byte-identity with the batch exporters.

The contract under test (docs/OBSERVABILITY.md, "Streaming sinks"): a
sink receives records in completion (``seq``) order and an incremental
writer therefore produces *byte-identical* files to the end-of-run
exporters, while holding O(tracks) state instead of the record backlog.
"""

import io
import json

import pytest

from repro.errors import ConfigError, ObservabilityError
from repro.monitoring.export import to_jsonl_text
from repro.obs import assert_valid_chrome_trace, run_scenario
from repro.obs.export import chrome_trace, jsonl_lines, write_jsonl_trace
from repro.obs.stream import (
    COUNTERS_JSON,
    COUNTERS_JSONL,
    METRICS_DIR,
    TRACE_CHROME,
    TRACE_JSONL,
    ChromeStreamWriter,
    JsonlStreamWriter,
    MetricJsonlStreamWriter,
    ObsSink,
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
    """One scenario run with in-memory sinks *and* a RunStreamer attached."""
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
                MetricJsonlStreamWriter(buf, node, service.metric_names)
            )
        service.add_sink(counter)
        obs.stream_to(run_dir, chrome=True)

    run = run_scenario("loadbalance", seed=0, horizon=HORIZON, on_obs=hook)
    # close_streams() finalizes the collector, so the in-memory sinks see
    # the horizon-sealed spans too; only the Chrome footer is left to us.
    assert run.obs.close_streams() == [run_dir]
    for sink in list(run.obs.collector.sinks):
        sink.close()
    return run, run_dir, buffers, metric_buffers, counter


class TestByteIdentity:
    def test_jsonl_stream_matches_batch(self, streamed):
        run, _, buffers, _, _ = streamed
        batch = "\n".join(jsonl_lines(run.obs.collector)) + "\n"
        assert buffers["jsonl"].getvalue() == batch

    def test_chrome_stream_matches_batch(self, streamed):
        run, _, buffers, _, _ = streamed
        batch = (
            json.dumps(chrome_trace(run.obs.collector), sort_keys=True, indent=1)
            + "\n"
        )
        assert buffers["chrome"].getvalue() == batch

    def test_chrome_stream_is_schema_valid(self, streamed):
        _, _, buffers, _, _ = streamed
        trace = json.loads(buffers["chrome"].getvalue())
        assert_valid_chrome_trace(trace)

    def test_metric_streams_match_batch(self, streamed):
        run, _, _, metric_buffers, _ = streamed
        assert metric_buffers  # the scenario samples at least one node
        for node, buf in metric_buffers.items():
            assert buf.getvalue() == to_jsonl_text(run.obs.service, node)

    def test_counting_sink_saw_every_record(self, streamed):
        run, _, _, _, counter = streamed
        collector = run.obs.collector
        assert counter.closed == len(collector.spans)
        assert counter.instants == len(collector.instants)
        nodes = len(run.obs.service.data)
        assert counter.samples == len(run.obs.service.times) * nodes


class TestRunStreamer:
    def test_run_directory_layout(self, streamed):
        _, run_dir, _, _, _ = streamed
        assert (run_dir / TRACE_JSONL).is_file()
        assert (run_dir / TRACE_CHROME).is_file()
        assert (run_dir / COUNTERS_JSONL).is_file()
        assert (run_dir / COUNTERS_JSON).is_file()
        metrics = sorted(p.name for p in (run_dir / METRICS_DIR).iterdir())
        assert metrics == ["node0.jsonl", "node1.jsonl"]

    def test_streamed_files_match_batch_exports(self, streamed, tmp_path):
        run, run_dir, _, _, _ = streamed
        batch_path = tmp_path / "batch.jsonl"
        write_jsonl_trace(run.obs.collector, batch_path)
        assert (run_dir / TRACE_JSONL).read_bytes() == batch_path.read_bytes()

    def test_final_counter_snapshot(self, streamed):
        run, run_dir, _, _, _ = streamed
        text = (run_dir / COUNTERS_JSON).read_text()
        assert text == counters_snapshot_text(run.obs.stats)
        payload = json.loads(text)
        assert payload["counters"] == dict(run.obs.stats.counters)

    def test_counter_stream_is_one_snapshot_per_tick(self, streamed):
        run, run_dir, _, _, _ = streamed
        lines = (run_dir / COUNTERS_JSONL).read_text().splitlines()
        times = [json.loads(line)["time"] for line in lines]
        assert times == sorted(set(times))  # strictly one record per tick
        assert len(times) == len(run.obs.service.times)

    def test_sinks_detached_after_close(self, streamed):
        run, _, _, _, counter = streamed
        # close_streams() removed the streamer's sinks; only the three
        # in-memory ones registered by the fixture hook remain.
        assert len(run.obs.collector.sinks) == 3
        assert counter in run.obs.service.sinks


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
        run, _, _, _, counter = streamed
        with pytest.raises(ConfigError):
            run.obs.service.add_sink(counter)

    def test_remove_absent_rejected(self, streamed):
        run, _, _, _, _ = streamed
        with pytest.raises(ConfigError):
            run.obs.service.remove_sink(ObsSink())
