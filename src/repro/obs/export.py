"""Trace exporters: Chrome trace-event JSON and JSONL, by replay.

The Chrome format (one ``traceEvents`` array of ``X``/``i``/``M`` events)
opens directly in Perfetto / ``chrome://tracing``, the same way ATLAHS
renders its simulator traces; JSONL (one record per line) is the
grep/pandas-friendly form.  Neither is serialised here: each format's
one serialiser is its streaming writer in :mod:`repro.obs.stream`, and a
batch export is a :func:`replay` of a finished collector through that
writer.  A streamed file and the batch export of the same run are
therefore the same bytes by construction.

Records replay in the collector-wide **completion sequence** (``seq``),
assigned when a span closes or an instant is recorded — the order the
live writers see.  A record's content is final exactly when its ``seq``
is assigned.  Consumers wanting start-time order sort on
``start``/``time``; viewers do this themselves.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.spans import InstantEvent, Span, SpanCollector
from repro.obs.stream import ChromeStreamWriter, JsonlStreamWriter, ObsSink

_VALID_PHASES = frozenset({"X", "i", "M"})


def ordered_records(
    collector: SpanCollector,
) -> list[tuple[Span | InstantEvent, float | None]]:
    """Every span/instant in canonical completion (``seq``) order.

    Returns ``(record, end)`` pairs; ``end`` is the effective end time for
    spans (still-open spans are assigned the trace horizon) and ``None``
    for instants.  Spans that are still open — the collector was exported
    without :meth:`~repro.obs.spans.SpanCollector.finalize` — have no
    ``seq`` yet; they sort after every sealed record, in ``sid`` order,
    without mutating the collector (so repeated exports are identical).
    """
    horizon = 0.0
    for span in collector.spans:
        horizon = max(horizon, span.start, span.end if span.end is not None else 0.0)
    for event in collector.instants:
        horizon = max(horizon, event.time)

    sealed: list[tuple[int, Span | InstantEvent, float | None]] = []
    pending: list[tuple[int, Span]] = []
    for span in collector.spans:
        if span.seq is None:
            pending.append((span.sid, span))
        else:
            sealed.append((span.seq, span, span.end))
    for event in collector.instants:
        sealed.append((event.seq, event, None))
    sealed.sort(key=lambda r: r[0])
    out: list[tuple[Span | InstantEvent, float | None]] = [
        (record, end) for _, record, end in sealed
    ]
    for _, span in sorted(pending, key=lambda r: r[0]):
        out.append((span, max(horizon, span.start)))
    return out


def replay(collector: SpanCollector, sink: ObsSink) -> None:
    """Feed every record of ``collector`` to ``sink`` in completion order.

    Each span's effective end from :func:`ordered_records` is passed
    explicitly, so a collector that was never finalized exports its
    still-open spans closed at the horizon (with ``seq`` still ``None``)
    and is left untouched.
    """
    for record, end in ordered_records(collector):
        if isinstance(record, Span):
            sink.on_span_close(record, end)
        else:
            sink.on_instant(record)


def _render(
    collector: SpanCollector, writer: type[ChromeStreamWriter | JsonlStreamWriter]
) -> str:
    """The text ``writer`` produces for a replay of ``collector``."""
    buffer = io.StringIO()
    sink = writer(buffer)
    replay(collector, sink)
    sink.close()
    return buffer.getvalue()


def chrome_trace(collector: SpanCollector) -> dict[str, object]:
    """The collected spans/events as a Chrome trace-event object."""
    return json.loads(_render(collector, ChromeStreamWriter))


def jsonl_lines(collector: SpanCollector) -> list[str]:
    """One JSON record per span/instant, in completion (``seq``) order."""
    return _render(collector, JsonlStreamWriter).splitlines()


def write_chrome_trace(collector: SpanCollector, path: str | Path) -> Path:
    """Write (and validate) a Chrome trace-event JSON file."""
    text = _render(collector, ChromeStreamWriter)
    assert_valid_chrome_trace(json.loads(text))
    path = Path(path)
    path.write_text(text)
    return path


def write_jsonl_trace(collector: SpanCollector, path: str | Path) -> Path:
    """Write the JSONL form (one record per line).

    Open spans of an unfinalized collector are written with
    ``"seq": null``; :meth:`repro.obs.analyze.Trace.load` reads them back.
    """
    path = Path(path)
    sink = JsonlStreamWriter(path)
    replay(collector, sink)
    sink.close()
    return path


def validate_chrome_trace(trace: object) -> list[str]:
    """Schema-check a Chrome trace-event object; returns problems found.

    This is the validation CI runs on the ``repro trace`` artefact: the
    top-level shape, required per-event keys, known phases, non-negative
    timestamps/durations, and metadata naming for every referenced pid.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    named_pids: set[object] = set()
    used_pids: set[object] = set()
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing key {key!r}")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a number >= 0, got {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0, got {dur!r}")
            if "cat" not in event:
                problems.append(f"{where}: X event missing 'cat'")
            used_pids.add(event.get("pid"))
        elif phase == "i":
            used_pids.add(event.get("pid"))
        elif phase == "M" and event.get("name") == "process_name":
            named_pids.add(event.get("pid"))
    for pid in sorted(used_pids - named_pids, key=str):
        problems.append(f"pid {pid!r} has no process_name metadata event")
    return problems


def assert_valid_chrome_trace(trace: object) -> None:
    """Raise :class:`ObservabilityError` if the trace fails validation."""
    problems = validate_chrome_trace(trace)
    if problems:
        preview = "; ".join(problems[:5])
        raise ObservabilityError(
            f"invalid Chrome trace ({len(problems)} problem(s)): {preview}"
        )
