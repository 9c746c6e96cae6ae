"""Structured span/event collection in *simulated* time.

A :class:`SpanCollector` is the substrate-wide analogue of the monitoring
stack: while :class:`~repro.monitoring.service.MetricService` samples
numeric counters at 1 Hz, the collector records *causally linked spans and
instant events* — process lifetimes, work segments, anomaly injection
windows, scheduler decisions, MPI collectives, filesystem busy windows and
load-balancer iterations — each stamped with the simulated clock.

The design is pull-based and pay-for-what-you-use: nothing is recorded
(and nothing beyond a ``None``-check is executed) unless a collector is
attached to the simulator.  Every instrumentation site in the engine and the subsystems is
guarded by ``if obs is not None``.

Spans carry:

``sid``
    A collector-unique id, handed out in emission order (deterministic for
    a deterministic simulation).
``seq``
    The collector-wide *completion sequence*: assigned when a span closes
    (and when an instant is recorded), shared between spans and instants.
    This is the canonical record order of every exporter — a record's
    content is final exactly when its ``seq`` is assigned, which is what
    lets the streaming sinks (:mod:`repro.obs.stream`) flush records
    incrementally with bounded memory and still produce files
    byte-identical to the end-of-run exporters.
``parent``
    Optional ``sid`` of the causally enclosing span (e.g. a segment span's
    parent is its process span), preserved by both exporters.
``track``
    A ``(group, lane)`` pair naming where the span renders in a trace
    viewer — ``("node0", "p3:app")`` for process work,
    ``("cluster", "scheduler")`` for control-plane events.

Spans and instants carry no host wall-clock time, so exported traces are
byte-identical per seed; host timings live in the ``SimStats`` timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.stream import ObsSink
    from repro.sim.engine import Simulator
    from repro.sim.process import SimProcess

#: (group, lane) pair locating a span/event in the trace display.
Track = tuple[str, str]


@dataclass
class Span:
    """One duration event in simulated time (``end is None`` while open)."""

    sid: int
    cat: str
    name: str
    track: Track
    start: float
    end: float | None = None
    parent: int | None = None
    args: dict[str, object] = field(default_factory=dict)
    #: completion sequence (None while open); see the module docstring
    seq: int | None = None

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.end - self.start


@dataclass(frozen=True)
class InstantEvent:
    """One point event in simulated time."""

    cat: str
    name: str
    track: Track
    time: float
    args: Mapping[str, object] = field(default_factory=dict)
    #: completion sequence (assigned at emission; instants are final at birth)
    seq: int = 0


class SpanCollector:
    """Collects spans and instant events from an attached simulator.

    Attach with :meth:`attach`; every instrumented subsystem then emits
    through ``sim.obs``.  Detach restores the simulator to its un-observed
    (zero-overhead) state while keeping the recorded data.  One instant
    event is recorded per engine rate-resolve round.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._sim: "Simulator | None" = None
        self._next_sid = 1
        #: completion sequence shared by spans and instants (record order)
        self._next_seq = 1
        #: streaming sinks notified as records close (see obs.stream)
        self._sinks: list["ObsSink"] = []
        #: open per-pid spans maintained by the engine callbacks
        self._proc_spans: dict[int, Span] = {}
        self._seg_spans: dict[int, Span] = {}
        # Engine pids are allocated from a process-global counter, so lane
        # names derived from them would differ between two same-seed runs in
        # one interpreter.  Map them to run-local ordinals instead to keep
        # exported traces byte-identical across reruns.
        self._local_pids: dict[int, int] = {}
        #: spans auto-closed when (all of) their watched pids terminate
        self._watch_index: dict[int, list[Span]] = {}
        self._watch_remaining: dict[int, set[int]] = {}
        #: open keyed windows (e.g. per-filesystem busy spans)
        self._windows: dict[object, Span] = {}

    # -- lifecycle ----------------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Start observing ``sim`` (sets ``sim.obs`` to this collector)."""
        if self._sim is not None:
            raise ObservabilityError("collector already attached")
        if getattr(sim, "obs", None) is not None:
            raise ObservabilityError("simulator already has a collector attached")
        self._sim = sim
        sim.obs = self

    def detach(self) -> None:
        """Stop observing; recorded spans/events are kept."""
        if self._sim is None:
            raise ObservabilityError("collector is not attached")
        self._sim.obs = None
        self._sim = None

    @property
    def attached(self) -> bool:
        return self._sim is not None

    @property
    def now(self) -> float:
        if self._sim is None:
            raise ObservabilityError("collector is not attached")
        return self._sim.now

    # -- streaming sinks ----------------------------------------------------

    def add_sink(self, sink: "ObsSink") -> None:
        """Register a streaming sink (notified as records close).

        Sinks receive every subsequently *closed* span and every instant
        in completion (``seq``) order — the canonical record order of the
        exporters — so a sink that writes records as they arrive produces
        the same bytes as an end-of-run export.
        """
        if sink in self._sinks:
            raise ObservabilityError("sink already registered")
        self._sinks.append(sink)

    def remove_sink(self, sink: "ObsSink") -> None:
        """Unregister a sink (already-written records are kept)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            raise ObservabilityError("sink is not registered") from None

    @property
    def sinks(self) -> tuple["ObsSink", ...]:
        return tuple(self._sinks)

    def _dispatch(self, method: str, record: object) -> None:
        """Fan one record out to every sink, attributing host time to obs.

        The wall time sinks spend serialising/writing is accumulated under
        the ``obs`` SimStats timer so ``repro report`` can attribute it;
        an un-sinked collector never enters this method body beyond the
        truthiness check at each call site.
        """
        sim = self._sim
        if sim is not None:
            with sim.stats.timer("obs"):
                for sink in self._sinks:
                    getattr(sink, method)(record)
        else:
            for sink in self._sinks:
                getattr(sink, method)(record)

    def _close(
        self,
        span: Span,
        t: float,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Seal a span: set its end, assign its seq, notify the sinks."""
        span.end = t
        if args:
            span.args.update(args)
        span.seq = self._next_seq
        self._next_seq += 1
        if self._sinks:
            self._dispatch("on_span_close", span)

    # -- emission -----------------------------------------------------------

    def begin(
        self,
        cat: str,
        name: str,
        track: Track,
        start: float | None = None,
        parent: int | None = None,
        args: Mapping[str, object] | None = None,
    ) -> Span:
        """Open a span at ``start`` (default: simulated now)."""
        span = Span(
            sid=self._next_sid,
            cat=cat,
            name=name,
            track=track,
            start=self.now if start is None else start,
            parent=parent,
            args=dict(args) if args else {},
        )
        self._next_sid += 1
        self.spans.append(span)
        return span

    def end(
        self,
        span: Span,
        t: float | None = None,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Close an open span at ``t`` (default: simulated now)."""
        if span.end is not None:
            raise ObservabilityError(f"span {span.name!r} already closed")
        self._close(span, self.now if t is None else t, args)

    def complete(
        self,
        cat: str,
        name: str,
        track: Track,
        start: float,
        end: float,
        parent: int | None = None,
        args: Mapping[str, object] | None = None,
    ) -> Span:
        """Record an already-finished span (e.g. a barrier cycle).

        The span may start arbitrarily far in the past (a barrier cycle's
        first arrival); it enters the record stream at the moment it is
        recorded, which is why exporters order by completion ``seq``.
        """
        span = self.begin(cat, name, track, start=start, parent=parent, args=args)
        self._close(span, end)
        return span

    def instant(
        self,
        cat: str,
        name: str,
        track: Track,
        t: float | None = None,
        args: Mapping[str, object] | None = None,
    ) -> InstantEvent:
        """Record a point event at ``t`` (default: simulated now)."""
        event = InstantEvent(
            cat=cat,
            name=name,
            track=track,
            time=self.now if t is None else t,
            args=dict(args) if args else {},
            seq=self._next_seq,
        )
        self._next_seq += 1
        self.instants.append(event)
        if self._sinks:
            self._dispatch("on_instant", event)
        return event

    def watch(self, span: Span, pids: Iterable[int]) -> None:
        """Auto-close ``span`` when the last of ``pids`` terminates."""
        remaining = set(pids)
        if not remaining:
            return
        self._watch_remaining[span.sid] = remaining
        for pid in remaining:
            self._watch_index.setdefault(pid, []).append(span)

    def window(
        self,
        key: object,
        cat: str,
        name: str,
        track: Track,
        active: bool,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Maintain a keyed open/closed window span (idempotent).

        ``active=True`` opens the window if closed; ``active=False``
        closes it if open.  Used for state that is "busy while any demand
        exists", like a filesystem serving requests.
        """
        span = self._windows.get(key)
        if active and span is None:
            self._windows[key] = self.begin(cat, name, track, args=args)
        elif not active and span is not None:
            del self._windows[key]
            self.end(span)

    def finalize(self, t: float | None = None) -> None:
        """Close every still-open span (at ``t`` or simulated now).

        Call before exporting so anomalies running "forever" and processes
        alive at the horizon produce well-formed duration events.
        """
        end = self.now if t is None else t
        for span in self.spans:
            if span.end is None:
                span.args.setdefault("unfinished", True)
                self._close(span, max(end, span.start))
        self._proc_spans.clear()
        self._seg_spans.clear()
        self._watch_index.clear()
        self._watch_remaining.clear()
        self._windows.clear()

    # -- engine callbacks ---------------------------------------------------
    # Called by the Simulator (guarded by ``if self.obs is not None``), so
    # an unattached simulation never pays more than an attribute check.

    def _lane(self, proc: "SimProcess") -> str:
        local = self._local_pids.setdefault(proc.pid, len(self._local_pids) + 1)
        return f"p{local}:{proc.name}"

    def on_process_start(self, proc: "SimProcess") -> None:
        lane = self._lane(proc)
        self._proc_spans[proc.pid] = self.begin(
            "engine",
            proc.name,
            (proc.node or "cluster", lane),
            args={"pid": self._local_pids[proc.pid], "core": proc.core},
        )

    def on_segment_start(self, proc: "SimProcess") -> None:
        self.on_segment_end(proc)
        parent = self._proc_spans.get(proc.pid)
        seg = proc.current
        label = seg.label if seg is not None and seg.label else "segment"
        self._seg_spans[proc.pid] = self.begin(
            "engine",
            label,
            (proc.node or "cluster", self._lane(proc)),
            parent=parent.sid if parent is not None else None,
            args={"work": seg.work if seg is not None else 0.0},
        )

    def on_segment_end(self, proc: "SimProcess") -> None:
        span = self._seg_spans.pop(proc.pid, None)
        if span is not None and span.end is None:
            self.end(span)

    def on_process_end(self, proc: "SimProcess") -> None:
        self.on_segment_end(proc)
        span = self._proc_spans.pop(proc.pid, None)
        if span is not None and span.end is None:
            self.end(span, args={"exit": proc.exit_reason})
        for watched in self._watch_index.pop(proc.pid, ()):  # group spans
            remaining = self._watch_remaining.get(watched.sid)
            if remaining is None:
                continue
            remaining.discard(proc.pid)
            if not remaining:
                del self._watch_remaining[watched.sid]
                if watched.end is None:
                    self.end(watched)

    def on_resolve(self, now: float, n_running: int, dirty: frozenset[int] | None) -> None:
        self.instant(
            "engine",
            "resolve",
            ("cluster", "engine"),
            t=now,
            args={
                "running": n_running,
                "dirty": -1 if dirty is None else len(dirty),
            },
        )

    # -- queries ------------------------------------------------------------

    def by_category(self, cat: str) -> list[Span]:
        return [span for span in self.spans if span.cat == cat]

    def categories(self) -> dict[str, int]:
        """Span counts per category (summary/manifest material)."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.cat] = counts.get(span.cat, 0) + 1
        return dict(sorted(counts.items()))
