"""Service telemetry: incremental job spans and queue gauges over ObsSink."""

import json

from repro.experiments.registry import JobRequest
from repro.service import (
    SERVICE_METRICS,
    SERVICE_NODE,
    JobQueue,
    ServiceTelemetry,
)


def request(name="probe"):
    return JobRequest(name=name, result_name="Result")


FP = "ab" + "0" * 62


class RecordingSink:
    """Minimal ObsSink capturing everything it is fed."""

    def __init__(self):
        self.spans = []
        self.instants = []
        self.samples = []
        self.closed = False

    def on_span_close(self, span):
        self.spans.append(span)

    def on_instant(self, instant):
        self.instants.append(instant)

    def on_metric_sample(self, t, node, values):
        self.samples.append((t, node, dict(values)))

    def close(self):
        self.closed = True


def wired(tmp_path):
    telemetry = ServiceTelemetry()
    sink = RecordingSink()
    telemetry.subscribe(sink)
    queue = JobQueue(tmp_path / "q", on_transition=telemetry.on_transition)
    return telemetry, sink, queue


def test_job_lifecycle_becomes_one_span(tmp_path):
    telemetry, sink, queue = wired(tmp_path)
    job = queue.submit(request(), FP, priority=3, client="alice")
    queue.claim_next()
    queue.complete(job.job_id)
    assert len(sink.spans) == 1
    span = sink.spans[0]
    assert span.cat == "job"
    assert span.name == "probe"
    assert span.args["job_id"] == job.job_id
    assert span.args["priority"] == 3
    assert span.args["client"] == "alice"
    assert span.args["state"] == "done"
    # logical clock: submit at tick 1, done at tick 3
    assert (span.start, span.end) == (1.0, 3.0)


def test_every_transition_emits_instant_and_gauges(tmp_path):
    telemetry, sink, queue = wired(tmp_path)
    job = queue.submit(request(), FP)
    queue.claim_next()
    queue.fail(job.job_id, "boom")
    assert [i.name for i in sink.instants] == ["submit", "start", "fail"]
    assert [t for t, _, _ in sink.samples] == [1.0, 2.0, 3.0]
    last = sink.samples[-1][2]
    assert set(last) == set(SERVICE_METRICS)
    assert last["failed"] == 1.0


def test_cache_hits_are_counted(tmp_path):
    telemetry, sink, queue = wired(tmp_path)
    job = queue.submit(request(), FP)
    queue.claim_next()
    queue.complete(job.job_id, cached=True)
    assert telemetry.cache_hits == 1
    assert sink.samples[-1][2]["cache_hits"] == 1.0
    assert sink.spans[0].args["cached"] is True


def test_stream_to_writes_tailable_files(tmp_path):
    telemetry = ServiceTelemetry()
    telemetry.stream_to(tmp_path / "obs")
    queue = JobQueue(tmp_path / "q", on_transition=telemetry.on_transition)
    job = queue.submit(request(), FP)
    queue.claim_next()
    queue.complete(job.job_id)
    telemetry.close()
    trace_lines = (tmp_path / "obs" / "trace.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["type"] for line in trace_lines if line]
    assert "span" in kinds and "instant" in kinds
    metric_path = tmp_path / "obs" / "metrics" / f"{SERVICE_NODE}.jsonl"
    samples = [json.loads(line) for line in metric_path.read_text().splitlines()]
    assert len(samples) == 3


def test_unsubscribed_sink_stops_receiving(tmp_path):
    telemetry, sink, queue = wired(tmp_path)
    queue.submit(request(), FP)
    telemetry.unsubscribe(sink)
    queue.submit(request("other"), "cd" + "0" * 62)
    assert len(sink.instants) == 1


def test_hit_claim_streams_the_same_bytes_as_three_transitions(tmp_path):
    def stream(root, grouped):
        telemetry = ServiceTelemetry()
        telemetry.stream_to(root / "obs")
        queue = JobQueue(root / "q", on_transition=telemetry.on_transition)
        job = queue.submit(request(), FP)
        if grouped:
            queue.claim_next(cached=lambda fingerprint: True)
        else:
            queue.claim_next()
            queue.complete(job.job_id, cached=True)
        telemetry.close()
        return [
            (root / "obs" / name).read_bytes()
            for name in ("trace.jsonl", f"metrics/{SERVICE_NODE}.jsonl")
        ]

    assert stream(tmp_path / "grouped", True) == stream(tmp_path / "separate", False)
