"""Streaming telemetry sinks: flush records as the run produces them.

Each on-disk telemetry format has exactly one serialiser, and it lives
here: an :class:`ObsSink` writer that flushes each record the moment it
is final, with bounded memory:

* spans flush when they **close** (the collector assigns their completion
  ``seq`` and notifies every registered sink),
* instants flush when they are recorded,
* :class:`~repro.monitoring.service.MetricService` samples flush at every
  sampling tick, each routed only to its own node's writer,
* :class:`~repro.sim.stats.SimStats` counters flush as periodic snapshot
  records alongside the samples (plus one final snapshot at close).

The batch exporters in :mod:`repro.obs.export` and
:mod:`repro.monitoring.export` are replays of a finished collector (or
of a service's stored columns) through these same writers, so a streamed
file and its batch export cannot drift apart.  The writers encode with
the C encoder, never with ``indent`` (which selects the pure-Python
one): Chrome's ``indent=1`` layout is spliced around its output.

**The ObsSink contract.**  A sink receives records in canonical
completion (``seq``) order — the order a batch replay feeds them in.
Determinism requirements:

* *Flush points are content-final*: a span's args must not be mutated
  after it closes; the collector enforces the ordering, the emitters the
  finality.  The ``stream_export`` differential oracle in
  :mod:`repro.check` compares a live stream with a post-run replay of
  the same run to catch a violation.
* *Finalize before close*: still-open spans at the end of a run are
  sealed (and streamed) by
  :meth:`~repro.obs.spans.SpanCollector.finalize`; closing a writer
  earlier simply omits the still-open spans.
* *Bounded memory*: writers keep O(tracks) state (the pid/tid numbering),
  never the record backlog.

``repro trace <scenario> --stream DIR`` and
:meth:`~repro.obs.observability.Observability.stream_to` wire a full run
directory::

    DIR/
      trace.jsonl          # spans + instants, streamed
      trace.json           # Chrome trace (opt-in), streamed
      metrics/<node>.jsonl # one LDMS-style sample stream per node
      counters.jsonl       # SimStats counter snapshots per sample tick
      counters.json        # final counter snapshot (written at close)

which is the layout ``repro diff`` and ``repro report`` analyse.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping, Sequence

from repro.errors import ObservabilityError
from repro.obs.spans import InstantEvent, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitoring.service import MetricService
    from repro.obs.observability import Observability
    from repro.sim.stats import SimStats

#: filenames of the streamed run-directory layout
TRACE_JSONL = "trace.jsonl"
TRACE_CHROME = "trace.json"
METRICS_DIR = "metrics"
COUNTERS_JSONL = "counters.jsonl"
COUNTERS_JSON = "counters.json"

#: simulated seconds -> Chrome trace microseconds
_US = 1e6

#: encoders built once; without ``indent`` they run the C encoder.  The
#: Chrome pair lays out a flat ``args`` dict and an event's other keys.
_SORTED = json.JSONEncoder(sort_keys=True).encode
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_CHROME_ARGS = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
_CHROME_KEYS = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": ")).encode
_SCALAR = json.JSONEncoder().encode
#: value types a strict dict may hold besides finite floats
_STRICT = frozenset({str, int, bool, type(None)})

#: ``json.dumps(trace, sort_keys=True, indent=1)`` up to the first event;
#: the fixed header keys sort before ``traceEvents``
_CHROME_HEAD = (
    '{\n "displayTimeUnit": "ms",\n "otherData": {\n  "clock": "simulated",'
    '\n  "time_unit": "us"\n },\n "traceEvents": ['
)


def _json_safe(value: object) -> object:
    """Recursively convert a value into strict-JSON-safe primitives.

    A dict with ``str`` keys and only strict scalar values (``_STRICT``
    or finite ``float``) is returned as it is; only one that needs
    converting is rebuilt.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        for key, item in value.items():
            kind = type(item)
            if type(key) is not str or not (
                kind in _STRICT or (kind is float and math.isfinite(item))
            ):
                return {str(k): _json_safe(v) for k, v in value.items()}
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    return str(value)


def _indent1(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=1)`` lays it
    out at indentation ``pad``; ``value`` is already strict JSON."""
    inner = pad + " "
    if isinstance(value, dict):
        pairs = sorted(value.items())
        items = [f"{_SCALAR(k)}: {_indent1(v, inner)}" for k, v in pairs]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_indent1(v, inner) for v in value]
        brackets = "[]"
    else:
        return _SCALAR(value)
    if not items:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


class ObsSink:
    """Protocol base for streaming telemetry consumers.

    Subclass and override the callbacks you care about; every method is a
    no-op by default so sinks only pay for what they consume.  Callbacks
    arrive in completion (``seq``) order — see the module docstring for
    the full contract.
    """

    def on_span_close(self, span: Span, end: float | None = None) -> None:
        """A span closed; its ``seq``, ``end`` and args are final.

        ``end`` overrides ``span.end``: a replay of an unfinalized
        collector passes the horizon it closes still-open spans at.
        """

    def on_instant(self, event: InstantEvent) -> None:
        """An instant was recorded (final at birth)."""

    def on_metric_sample(
        self, time: float, node: str, values: Mapping[str, float]
    ) -> None:
        """A monitoring tick sampled ``node`` (one value per metric)."""

    def flush(self) -> None:
        """Push buffered bytes to the underlying file, if any."""

    def close(self) -> None:
        """Seal the output; no callbacks may arrive afterwards."""


class _FileSink(ObsSink):
    """File-handle plumbing: accepts a path or an open text file."""

    def __init__(self, target: str | Path | IO[str]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns_file = False
        else:
            path = Path(target)  # type: ignore[arg-type]
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("w")
            self._owns_file = True
        self._closed = False

    def _write(self, text: str) -> None:
        if self._closed:
            raise ObservabilityError(f"{type(self).__name__} is closed")
        self._file.write(text)

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()


class JsonlStreamWriter(_FileSink):
    """The trace JSONL serialiser: one record line per span / instant.

    Keys are sorted, separators compact and non-finite floats
    stringified, so the bytes are canonical.
    """

    def on_span_close(self, span: Span, end: float | None = None) -> None:
        if end is None:
            end = span.end
        assert end is not None
        record = {
            "type": "span",
            "sid": span.sid,
            "seq": span.seq,
            "cat": span.cat,
            "name": span.name,
            "group": span.track[0],
            "lane": span.track[1],
            "start": _json_safe(span.start),
            "end": _json_safe(end),
            "parent": span.parent,
            "args": _json_safe(span.args),
        }
        self._write(_COMPACT(record) + "\n")

    def on_instant(self, event: InstantEvent) -> None:
        record = {
            "type": "instant",
            "seq": event.seq,
            "cat": event.cat,
            "name": event.name,
            "group": event.track[0],
            "lane": event.track[1],
            "time": _json_safe(event.time),
            "args": _json_safe(dict(event.args)),
        }
        self._write(_COMPACT(record) + "\n")


class ChromeStreamWriter(_FileSink):
    """The Chrome trace-event serialiser (Perfetto / ``chrome://tracing``).

    Writes ``json.dumps(trace, sort_keys=True, indent=1)`` of one
    ``{"displayTimeUnit", "otherData", "traceEvents"}`` object without
    ever holding more than one event: the fixed header keys sort before
    ``traceEvents``, and each event's ``indent=1`` layout is built from
    its fixed shape with the C encoder (see :meth:`_emit`).  Spans become
    ``X`` events, instants ``i`` events, in microseconds.  Track ids
    (``pid`` per group, ``tid`` per lane) are numbered by first
    appearance, and the ``M`` metadata events naming a track are emitted
    immediately before its first event.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        super().__init__(target)
        self._group_ids: dict[str, int] = {}
        self._lane_ids: dict[tuple[str, str], int] = {}
        self._n_events = 0
        self._write(_CHROME_HEAD)

    def _emit(self, event: dict[str, object], args: dict[str, object]) -> None:
        """Write one event, its ``args`` passed apart from its other keys.

        ``"args"`` sorts first.  A dict :func:`_json_safe` returns as it
        is holds only scalars and renders in one C-encoder call; a
        converted one may nest, and :func:`_indent1` lays it out.
        """
        safe = _json_safe(args)
        if safe is not args:
            body = _indent1(safe, "   ")
        else:
            body = "{\n    " + _CHROME_ARGS(args)[1:-1] + "\n   }" if args else "{}"
        lead = ",\n" if self._n_events else "\n"
        keys = _CHROME_KEYS(event)[1:-1]
        self._write(f'{lead}  {{\n   "args": {body},\n   {keys}\n  }}')
        self._n_events += 1

    def _name_track(self, kind: str, pid: int, tid: int, name: str) -> None:
        event = {"name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0}
        self._emit(event, {"name": name})

    def _ids(self, track: tuple[str, str]) -> tuple[int, int]:
        """``(pid, tid)`` of a track, naming it with ``M`` events at first use."""
        group = track[0]
        pid = self._group_ids.get(group)
        if pid is None:
            pid = self._group_ids[group] = len(self._group_ids) + 1
            self._name_track("process_name", pid, 0, group)
        tid = self._lane_ids.get(track)
        if tid is None:
            tid = self._lane_ids[track] = len(self._lane_ids) + 1
            self._name_track("thread_name", pid, tid, track[1])
        return pid, tid

    def on_span_close(self, span: Span, end: float | None = None) -> None:
        if end is None:
            end = span.end
        assert end is not None
        pid, tid = self._ids(span.track)
        args = dict(span.args)
        args["sid"] = span.sid
        if span.parent is not None:
            args["parent"] = span.parent
        self._emit(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(0.0, end - span.start) * _US,
                "pid": pid,
                "tid": tid,
            },
            args,
        )

    def on_instant(self, event: InstantEvent) -> None:
        pid, tid = self._ids(event.track)
        self._emit(
            {
                "name": event.name,
                "cat": event.cat,
                "ph": "i",
                "s": "t",
                "ts": event.time * _US,
                "pid": pid,
                "tid": tid,
            },
            dict(event.args),
        )

    def close(self) -> None:
        if self._closed:
            return
        self._write(("\n ]" if self._n_events else "]") + "\n}\n")
        super().close()


class MetricJsonlStreamWriter(_FileSink):
    """The metric JSONL serialiser: one node's monitoring samples.

    One ``{"time", "node", metrics...}`` record per sampling tick (keys
    sorted), restricted to the service's declared metric names (per-core
    extras stay out of the export).
    """

    def __init__(
        self,
        target: str | Path | IO[str],
        node: str,
        metrics: Sequence[str],
    ) -> None:
        super().__init__(target)
        self.node = node
        self.metrics = tuple(metrics)

    def on_metric_sample(
        self, time: float, node: str, values: Mapping[str, float]
    ) -> None:
        if node != self.node:
            return
        record: dict[str, object] = {"time": float(time), "node": node}
        for metric in self.metrics:
            record[metric] = float(values[metric])
        self._write(_SORTED(record) + "\n")


class CounterStreamWriter(_FileSink):
    """Streams deterministic SimStats counter snapshots per sample tick.

    Each line is ``{"time": t, "counters": {...}}`` with the integer
    counters sorted by name; wall-clock timings are excluded (they are
    not deterministic and belong to ``repro report``'s wallclock section).
    Every callback writes a line, so register the writer for one node
    (:class:`RunStreamer` takes the first node the service samples).
    """

    def __init__(self, target: str | Path | IO[str], stats: "SimStats") -> None:
        super().__init__(target)
        self._stats = stats

    def on_metric_sample(
        self, time: float, node: str, values: Mapping[str, float]
    ) -> None:
        record = {"time": float(time), "counters": self._stats.counters}
        self._write(_SORTED(record) + "\n")


def counters_snapshot_text(stats: "SimStats") -> str:
    """Canonical JSON of the final deterministic counter block."""
    return (
        json.dumps(
            {"counters": dict(sorted(stats.counters.items()))},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )


class RunStreamer:
    """Wire a full streamed run directory onto an Observability handle.

    Registers trace writers on the span collector and per-node metric
    writers on the metric service, each fed only its own node's samples,
    plus the counter writer, fed the first node's (one line per tick);
    :meth:`close` finalizes the collector, seals every file and writes
    the final counter snapshot.  Create via :meth:`Observability.stream_to`.
    """

    def __init__(
        self,
        obs: "Observability",
        directory: str | Path,
        chrome: bool = False,
    ) -> None:
        self.obs = obs
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sinks: list[ObsSink] = []
        self._closed = False

        self._trace_sinks: list[ObsSink] = [
            JsonlStreamWriter(self.directory / TRACE_JSONL)
        ]
        if chrome:
            self._trace_sinks.append(ChromeStreamWriter(self.directory / TRACE_CHROME))
        for sink in self._trace_sinks:
            obs.collector.add_sink(sink)
        self.sinks.extend(self._trace_sinks)

        self._metric_sinks: list[ObsSink] = []
        service = obs.service
        if service is not None:
            metrics = service.metric_names
            for node in sorted(service.data):
                writer = MetricJsonlStreamWriter(
                    self.directory / METRICS_DIR / f"{node}.jsonl", node, metrics
                )
                service.add_sink(writer, node=node)
                self._metric_sinks.append(writer)
            counters = CounterStreamWriter(self.directory / COUNTERS_JSONL, obs.stats)
            # one line per tick: the first node the service samples (with
            # no nodes there are no ticks, and every-node routing is moot)
            service.add_sink(counters, node=next(iter(service.data), None))
            self._metric_sinks.append(counters)
            self.sinks.extend(self._metric_sinks)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> Path:
        """Finalize, detach every sink, seal the files; returns the dir."""
        if self._closed:
            return self.directory
        self._closed = True
        collector = self.obs.collector
        if collector.attached:
            collector.finalize()
        for sink in self._trace_sinks:
            collector.remove_sink(sink)
        service = self.obs.service
        if service is not None:
            for sink in self._metric_sinks:
                service.remove_sink(sink)
        for sink in self.sinks:
            sink.close()
        (self.directory / COUNTERS_JSON).write_text(
            counters_snapshot_text(self.obs.stats)
        )
        return self.directory
