"""Trace-query engine: filter, roll up and walk exported span timelines.

A :class:`Trace` is the immutable, analysis-friendly view of a span
timeline — built either straight from a live
:class:`~repro.obs.spans.SpanCollector` or loaded back from a
``trace.jsonl`` file (batch-written or streamed; the two are
byte-identical, so this module never needs to know which it got).  On
top of it sit the queries the anomaly-diagnosis workflow needs:

* :meth:`Trace.filter` — slice by category / name / group (node) / lane,
* :meth:`Trace.duration_stats` — count/total/mean/max per span kind,
* :meth:`Trace.utilization` — per-node busy fraction from merged span
  intervals (the span-level analogue of ``user::procstat``),
* :meth:`Trace.critical_path` — the latest-finishing chain through the
  causal parent/child links, i.e. which spans an end-to-end run actually
  waited on,
* :meth:`Trace.enclosing` — the innermost span covering a (node, time)
  point, which is how ``repro diff`` turns a divergent sample index into
  a named culprit.

Everything here is deterministic: ties break on the canonical completion
``seq``, never on dict order or floating ambiguity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.export import ordered_records
from repro.obs.spans import Span, SpanCollector


def load_json(path: Path, text: str | None = None) -> object:
    """Decode one JSON document read from outside the process.

    Damage raises :class:`ObservabilityError` naming ``path:line``.
    """
    try:
        return json.loads(path.read_text() if text is None else text)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"{path}:{exc.lineno}: not valid JSON ({exc.msg})"
        ) from None


def json_records(path: Path) -> Iterator[tuple[str, dict]]:
    """``(path:line, record)`` for every non-blank line of a JSONL file.

    A line that does not decode to a JSON object raises
    :class:`ObservabilityError` naming ``path:line``.
    """
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"{where}: not valid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{where}: record must be a JSON object, "
                f"got {type(record).__name__}"
            )
        yield where, record


def is_number(value: object) -> bool:
    """True for a JSON number (``true``/``false`` decode to bools: no)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: keys a ``trace.jsonl`` record must carry, by record type
_RECORD_KEYS = {
    "span": ("sid", "seq", "cat", "name", "group", "lane", "start", "end"),
    "instant": ("seq", "cat", "name", "group", "lane", "time"),
}

#: what each ``trace.jsonl`` field must hold, where present
_FIELD_TYPES: dict[str, tuple[Callable[[object], bool], str]] = {
    **dict.fromkeys(("sid", "seq"), (_is_int, "an integer")),
    **dict.fromkeys(
        ("cat", "name", "group", "lane"), (lambda v: isinstance(v, str), "a string")
    ),
    **dict.fromkeys(("start", "end", "time"), (is_number, "a number")),
    "parent": (lambda v: v is None or _is_int(v), "an integer or null"),
    "args": (lambda v: isinstance(v, dict), "an object"),
}


@dataclass(frozen=True)
class TraceSpan:
    """One closed span, as exported (times in simulated seconds)."""

    sid: int
    seq: int
    cat: str
    name: str
    group: str
    lane: str
    start: float
    end: float
    parent: int | None
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def contains(self, time: float) -> bool:
        return self.start <= time <= self.end


@dataclass(frozen=True)
class TraceInstant:
    """One instantaneous event, as exported."""

    seq: int
    cat: str
    name: str
    group: str
    lane: str
    time: float
    args: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DurationStats:
    """Aggregate of one span kind."""

    count: int
    total: float
    mean: float
    max: float


def _merged_busy(intervals: Iterable[tuple[float, float]]) -> float:
    """Total covered length of a set of (start, end) intervals."""
    merged = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            merged += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        merged += cur_end - cur_start
    return merged


class Trace:
    """An immutable span/instant timeline with query helpers."""

    def __init__(
        self,
        spans: Iterable[TraceSpan] = (),
        instants: Iterable[TraceInstant] = (),
    ) -> None:
        self.spans: tuple[TraceSpan, ...] = tuple(
            sorted(spans, key=lambda s: s.seq)
        )
        self.instants: tuple[TraceInstant, ...] = tuple(
            sorted(instants, key=lambda i: i.seq)
        )
        self._by_sid: dict[int, TraceSpan] = {s.sid: s for s in self.spans}
        self._children: dict[int, list[TraceSpan]] = {}
        for span in self.spans:
            if span.parent is not None and span.parent in self._by_sid:
                self._children.setdefault(span.parent, []).append(span)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_collector(cls, collector: SpanCollector) -> "Trace":
        """Snapshot a live collector (open spans close at the horizon)."""
        spans: list[TraceSpan] = []
        instants: list[TraceInstant] = []
        fallback_seq = sum(1 for s in collector.spans if s.seq is not None) + len(
            collector.instants
        )
        for record, end in ordered_records(collector):
            if isinstance(record, Span):
                if record.seq is None:
                    fallback_seq += 1
                seq = record.seq if record.seq is not None else fallback_seq
                assert end is not None
                spans.append(
                    TraceSpan(
                        sid=record.sid,
                        seq=seq,
                        cat=record.cat,
                        name=record.name,
                        group=record.track[0],
                        lane=record.track[1],
                        start=record.start,
                        end=end,
                        parent=record.parent,
                        args=dict(record.args),
                    )
                )
            else:
                instants.append(
                    TraceInstant(
                        seq=record.seq,
                        cat=record.cat,
                        name=record.name,
                        group=record.track[0],
                        lane=record.track[1],
                        time=record.time,
                        args=dict(record.args),
                    )
                )
        return cls(spans, instants)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a ``trace.jsonl`` file (streamed or batch — same bytes).

        Every field is type-checked (damage raises
        :class:`ObservabilityError` naming ``path:line``).  A span
        exported from a collector that was never finalized carries
        ``"seq": null``; it gets the same fallback ``seq`` (after every
        sealed record, in file order) as :meth:`from_collector` gives it.
        """
        path = Path(path)
        spans: list[TraceSpan] = []
        instants: list[TraceInstant] = []
        unsealed: list[int] = []
        for where, record in json_records(path):
            kind = record.get("type")
            keys = _RECORD_KEYS.get(kind) if isinstance(kind, str) else None
            if keys is None:
                raise ObservabilityError(f"{where}: unknown record type {kind!r}")
            for key in keys:
                if key not in record:
                    raise ObservabilityError(
                        f"{where}: {kind} record is missing {key!r}"
                    )
            unsealed_span = kind == "span" and record["seq"] is None
            for key, (accepts, what) in _FIELD_TYPES.items():
                if key not in record or (key == "seq" and unsealed_span):
                    continue
                if not accepts(record[key]):
                    raise ObservabilityError(
                        f"{where}: {key} must be {what}, got {record[key]!r}"
                    )
            if unsealed_span:
                unsealed.append(len(spans))
            if kind == "span":
                spans.append(
                    TraceSpan(
                        sid=record["sid"],
                        seq=record["seq"],
                        cat=record["cat"],
                        name=record["name"],
                        group=record["group"],
                        lane=record["lane"],
                        start=record["start"],
                        end=record["end"],
                        parent=record.get("parent"),
                        args=record.get("args", {}),
                    )
                )
            else:
                instants.append(
                    TraceInstant(
                        seq=record["seq"],
                        cat=record["cat"],
                        name=record["name"],
                        group=record["group"],
                        lane=record["lane"],
                        time=record["time"],
                        args=record.get("args", {}),
                    )
                )
        fallback_seq = len(spans) - len(unsealed) + len(instants)
        for index in unsealed:
            fallback_seq += 1
            spans[index] = replace(spans[index], seq=fallback_seq)
        return cls(spans, instants)

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def __iter__(self) -> Iterator[TraceSpan]:
        return iter(self.spans)

    def span(self, sid: int) -> TraceSpan:
        try:
            return self._by_sid[sid]
        except KeyError:
            raise ObservabilityError(f"no span with sid {sid}") from None

    def children(self, sid: int) -> tuple[TraceSpan, ...]:
        return tuple(self._children.get(sid, ()))

    def roots(self) -> tuple[TraceSpan, ...]:
        """Spans with no (in-trace) parent."""
        return tuple(
            s
            for s in self.spans
            if s.parent is None or s.parent not in self._by_sid
        )

    @property
    def horizon(self) -> float:
        """Latest time any record reaches."""
        latest = 0.0
        for span in self.spans:
            latest = max(latest, span.end)
        for instant in self.instants:
            latest = max(latest, instant.time)
        return latest

    def categories(self) -> dict[str, int]:
        """Span count per category, alphabetical."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.cat] = counts.get(span.cat, 0) + 1
        return dict(sorted(counts.items()))

    # -- filtering -----------------------------------------------------------

    def filter(
        self,
        cat: str | None = None,
        name: str | None = None,
        group: str | None = None,
        lane: str | None = None,
        predicate: Callable[[TraceSpan], bool] | None = None,
    ) -> "Trace":
        """A sub-trace of the spans (and instants) matching every filter."""

        def keep_span(s: TraceSpan) -> bool:
            return (
                (cat is None or s.cat == cat)
                and (name is None or s.name == name)
                and (group is None or s.group == group)
                and (lane is None or s.lane == lane)
                and (predicate is None or predicate(s))
            )

        def keep_instant(i: TraceInstant) -> bool:
            return (
                (cat is None or i.cat == cat)
                and (name is None or i.name == name)
                and (group is None or i.group == group)
                and (lane is None or i.lane == lane)
            )

        instants = () if predicate is not None else tuple(
            i for i in self.instants if keep_instant(i)
        )
        return Trace((s for s in self.spans if keep_span(s)), instants)

    # -- rollups -------------------------------------------------------------

    def duration_stats(self, by: str = "name") -> dict[str, DurationStats]:
        """Aggregate span durations, keyed by ``name``/``cat``/``cat:name``."""
        if by not in ("name", "cat", "cat:name"):
            raise ObservabilityError(
                f"unknown grouping {by!r} (use 'name', 'cat' or 'cat:name')"
            )
        buckets: dict[str, list[float]] = {}
        for span in self.spans:
            if by == "name":
                key = span.name
            elif by == "cat":
                key = span.cat
            else:
                key = f"{span.cat}:{span.name}"
            buckets.setdefault(key, []).append(span.duration)
        return {
            key: DurationStats(
                count=len(durs),
                total=sum(durs),
                mean=sum(durs) / len(durs),
                max=max(durs),
            )
            for key, durs in sorted(buckets.items())
        }

    def utilization(
        self, horizon: float | None = None, cat: str | None = None
    ) -> dict[str, float]:
        """Per-group (node) busy fraction from merged span intervals.

        A group counts as busy whenever *any* of its lanes has an open
        span (intervals are unioned across lanes, so nested/parallel
        spans never double-count).  ``cat`` restricts to one category,
        e.g. ``"engine"`` for compute activity only.
        """
        horizon = self.horizon if horizon is None else horizon
        if horizon <= 0:
            return {}
        intervals: dict[str, list[tuple[float, float]]] = {}
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            intervals.setdefault(span.group, []).append(
                (span.start, min(span.end, horizon))
            )
        return {
            group: min(1.0, _merged_busy(ivals) / horizon)
            for group, ivals in sorted(intervals.items())
        }

    def lane_utilization(
        self, horizon: float | None = None, cat: str | None = None
    ) -> dict[tuple[str, str], float]:
        """Busy fraction per (group, lane) — one row per timeline track."""
        horizon = self.horizon if horizon is None else horizon
        if horizon <= 0:
            return {}
        intervals: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            intervals.setdefault((span.group, span.lane), []).append(
                (span.start, min(span.end, horizon))
            )
        return {
            track: min(1.0, _merged_busy(ivals) / horizon)
            for track, ivals in sorted(intervals.items())
        }

    # -- causal walks --------------------------------------------------------

    def critical_path(self, sid: int | None = None) -> tuple[TraceSpan, ...]:
        """The latest-finishing causal chain from a root span downwards.

        Starting from ``sid`` (default: the root that ends last), repeatedly
        descend into the child that finishes last — the child the parent's
        completion actually waited on.  Ties break on the smaller ``seq``
        so the walk is deterministic.  Returns root-first.
        """
        if sid is None:
            roots = self.roots()
            if not roots:
                return ()
            start = max(roots, key=lambda s: (s.end, -s.seq))
        else:
            start = self.span(sid)
        path = [start]
        current = start
        while True:
            kids = self._children.get(current.sid)
            if not kids:
                break
            current = max(kids, key=lambda s: (s.end, -s.seq))
            path.append(current)
        return tuple(path)

    def enclosing(
        self, group: str, time: float, cat: str | None = None
    ) -> TraceSpan | None:
        """The innermost span on ``group`` covering ``time``.

        "Innermost" = shortest duration, ties broken by smaller ``seq`` —
        the most specific activity running on that node at that moment.
        Returns ``None`` if nothing covers the point.
        """
        best: TraceSpan | None = None
        for span in self.spans:
            if span.group != group or not span.contains(time):
                continue
            if cat is not None and span.cat != cat:
                continue
            if best is None or (span.duration, span.seq) < (
                best.duration,
                best.seq,
            ):
                best = span
        return best

    # -- misc ----------------------------------------------------------------

    def shifted(self, dt: float) -> "Trace":
        """A copy with every time moved by ``dt`` (alignment helper)."""
        return Trace(
            (
                replace(s, start=s.start + dt, end=s.end + dt)
                for s in self.spans
            ),
            (replace(i, time=i.time + dt) for i in self.instants),
        )
