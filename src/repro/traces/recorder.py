"""Trace recording: capture a native run into a replayable trace.

:class:`TraceRecorder` attaches to a cluster's simulator through the
engine's ``record`` hook (the same pay-for-what-you-use contract as
``obs``/``check``) and transparently wraps every spawned process body.
The wrapper forwards each yielded item to the engine unchanged — the
recorded run *is* the native run — while writing one
:class:`~repro.traces.schema.TraceRecord` per yield:

* ``Segment`` → a ``compute``/``send``/``io`` record carrying the full
  demand vector (ids assigned in global yield order);
* ``Sleep`` → a ``sleep`` record;
* ``Wait`` → a ``collective`` record, emitted when the process *resumes*
  so its dependency edge can point at the record that released it: the
  engine's ``notify`` tap attributes each release to the notifying
  process's most recently emitted record (or its start marker).  Ids
  assigned at resume keep every edge pointing backwards, so recorded
  traces are acyclic by construction.

Body-side counter writes are captured as exact float deltas by diffing
``proc.counters`` across each generator step (rate-model accruals only
happen *between* steps, so the diff isolates the body's writes);
resident memory is captured as absolute held bytes.  Runs the
recorder cannot faithfully replay — killed or unfinished processes,
attached fault injectors, unattributable notifies, unbounded segments —
*taint* the recording instead of failing it: the trace is still built
for inspection, but :attr:`RecordedTrace.clean` is False and replay
equivalence is not claimed.

:func:`recording_session` extends this to code that builds its own
clusters internally (experiment runners): every cluster constructed
inside the ``with`` block gets a recorder, and
:func:`record_experiment` wraps a registry experiment end to end.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.cluster.cluster import _CLUSTER_OBSERVERS, Cluster
from repro.errors import ProcessCrash, TraceError
from repro.sim.process import (
    Condition,
    ProcessState,
    Segment,
    SimProcess,
    Sleep,
    Wait,
)
from repro.traces.schema import (
    TRACE_MACHINES,
    Trace,
    TraceMeta,
    TraceRecord,
)


class _RankEntry:
    """Mutable per-process recording state."""

    __slots__ = ("rank", "proc", "start", "last_id", "pending_wait", "prev_mem")

    def __init__(self, rank: int, proc: SimProcess, start: float) -> None:
        self.rank = rank
        self.proc = proc
        self.start = start
        #: id of the most recently emitted record (None before the first);
        #: what a notify fired by this process is attributed to
        self.last_id: int | None = None
        #: captured state of a yielded Wait, emitted as a record on resume
        self.pending_wait: tuple[tuple[tuple[str, float], ...], float | None, str] | None = None
        self.prev_mem: float = 0.0


@dataclass(frozen=True)
class RecordedTrace:
    """One cluster's recording: the trace plus its native ground truth.

    ``fingerprint`` is the recorded cluster's state fingerprint at
    finalize time — the value a byte-identical replay must reproduce.
    ``taints`` lists the reasons (if any) the recording cannot claim
    replay equivalence.
    """

    trace: Trace
    fingerprint: str
    taints: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.taints


class TraceRecorder:
    """Records every process of one cluster into a trace.

    Attach before any process is spawned; call :meth:`finalize` after the
    last ``run()`` returns.  One recorder per simulator — attaching a
    second is a :class:`~repro.errors.TraceError`.
    """

    def __init__(self, cluster: Cluster, name: str = "recorded") -> None:
        if cluster.sim.record is not None:
            raise TraceError("a trace recorder is already attached to this simulator")
        self.cluster = cluster
        self.name = name
        cluster.sim.record = self
        self._entries: list[_RankEntry] = []
        self._by_pid: dict[int, _RankEntry] = {}
        self._records: list[TraceRecord] = []
        self._id = 0
        self._tickers: list[tuple[float, float, float | None]] = []
        self._taints: list[str] = []
        #: the entry whose generator step is currently executing (notify
        #: attribution); None between steps and for unrecorded callers
        self._executing: _RankEntry | None = None
        #: pid -> dependency key assigned by the releasing notify, consumed
        #: when the released process resumes and its wait record is emitted
        self._pending_deps: dict[int, int] = {}
        self._finalized: RecordedTrace | None = None

    def taint(self, reason: str) -> None:
        if reason not in self._taints:
            self._taints.append(reason)

    # -- engine taps ---------------------------------------------------------

    def on_spawn(self, proc: SimProcess, start: float) -> None:
        entry = _RankEntry(rank=len(self._entries), proc=proc, start=start)
        self._entries.append(entry)
        self._by_pid[proc.pid] = entry
        inner_factory = proc._body_factory
        proc._body_factory = lambda p: self._wrap(entry, inner_factory(p))

    def on_notify(self, condition: Condition) -> None:
        waiters = condition.waiters
        if not waiters:
            return
        entry = self._executing
        if entry is None:
            self.taint(
                f"notify of {condition.name!r} outside any recorded process body"
            )
            return
        dep = -(entry.rank + 1) if entry.last_id is None else entry.last_id
        for waiter in waiters:
            if waiter.pid in self._by_pid:
                self._pending_deps[waiter.pid] = dep
            else:
                self.taint(f"notify released unrecorded process {waiter.name!r}")

    def on_every(self, interval: float, first: float, end: float) -> None:
        self._tickers.append(
            (interval, first, None if math.isinf(end) else end)
        )

    # -- body wrapper --------------------------------------------------------

    def _wrap(self, entry: _RankEntry, inner) -> Iterator[object]:
        """Pass-through generator around a process body.

        Forwards sends, throws, and close to the wrapped generator so the
        engine observes byte-identical behaviour, snapshotting counters
        around each step to isolate body-side writes.
        """
        try:
            pending_exc: BaseException | None = None
            while True:
                if entry.pending_wait is not None:
                    self._emit_wait(entry)
                before = dict(entry.proc.counters)
                outer = self._executing
                self._executing = entry
                try:
                    if pending_exc is None:
                        item = inner.send(None)
                    else:
                        exc, pending_exc = pending_exc, None
                        item = inner.throw(exc)
                except StopIteration:
                    self._emit_epilogue(entry, before)
                    return
                finally:
                    self._executing = outer
                self._observe(entry, item, before)
                try:
                    yield item
                except ProcessCrash as crash:
                    self.taint(
                        f"process {entry.proc.name!r} interrupted mid-run: {crash}"
                    )
                    pending_exc = crash
        finally:
            inner.close()

    # -- record emission -----------------------------------------------------

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def _counter_deltas(
        self, proc: SimProcess, before: dict[str, float]
    ) -> tuple[tuple[str, float], ...]:
        deltas = []
        for key, value in proc.counters.items():
            old = before.get(key, 0.0)
            if value != old:
                deltas.append((key, value - old))
        return tuple(deltas)

    def _mem_snapshot(self, entry: _RankEntry) -> float | None:
        held = self.cluster.node(entry.proc.node).memory.held_by(entry.proc.pid)
        if held == entry.prev_mem:
            return None
        entry.prev_mem = held
        return held

    def _finite_work(self, entry: _RankEntry, work: float, what: str) -> float:
        if math.isinf(work):
            self.taint(
                f"process {entry.proc.name!r} yielded an unbounded {what} "
                "(runs until stopped; not replayable)"
            )
            return 0.0
        return work

    def _observe(self, entry: _RankEntry, item: object, before: dict[str, float]) -> None:
        counters = self._counter_deltas(entry.proc, before)
        if isinstance(item, Segment):
            mem = self._mem_snapshot(entry)
            kind = "io" if item.io is not None else "send" if item.flows else "compute"
            record = TraceRecord(
                id=self._next_id(),
                kind=kind,
                rank=entry.rank,
                work=self._finite_work(entry, item.work, "segment"),
                cpu=item.cpu,
                cache=tuple(sorted(item.cache_footprint.items())),
                cache_intensity=item.cache_intensity,
                mpki_base=item.mpki_base,
                mpki_extra=item.mpki_extra,
                miss_cpi_penalty=item.miss_cpi_penalty,
                mem_bw=item.mem_bw,
                mem_bw_extra=item.mem_bw_extra,
                ips=item.ips,
                flows=tuple((flow.dst, flow.rate) for flow in item.flows),
                io=None
                if item.io is None
                else (item.io.fs, item.io.write_bw, item.io.read_bw, item.io.meta_ops),
                counters=counters,
                mem=mem,
                label=item.label,
            )
        elif isinstance(item, Sleep):
            mem = self._mem_snapshot(entry)
            record = TraceRecord(
                id=self._next_id(),
                kind="sleep",
                rank=entry.rank,
                work=self._finite_work(entry, item.duration, "sleep"),
                counters=counters,
                mem=mem,
                label="sleep",
            )
        elif isinstance(item, Wait):
            # Emitted on resume (see _emit_wait), once the releasing
            # notify has been attributed.
            entry.pending_wait = (
                counters,
                self._mem_snapshot(entry),
                item.condition.name or "wait",
            )
            return
        else:  # pragma: no cover - engine validates yieldables
            self.taint(f"process {entry.proc.name!r} yielded {item!r}")
            return
        self._records.append(record)
        entry.last_id = record.id

    def _emit_wait(self, entry: _RankEntry) -> None:
        assert entry.pending_wait is not None
        counters, mem, label = entry.pending_wait
        entry.pending_wait = None
        dep = self._pending_deps.pop(entry.proc.pid, None)
        if dep is None:
            self.taint(
                f"process {entry.proc.name!r} resumed from a wait "
                "with no recorded notify"
            )
            deps: tuple[int, ...] = ()
        else:
            deps = (dep,)
        record = TraceRecord(
            id=self._next_id(),
            kind="collective",
            rank=entry.rank,
            deps=deps,
            counters=counters,
            mem=mem,
            label=label,
        )
        self._records.append(record)
        entry.last_id = record.id

    def _emit_epilogue(self, entry: _RankEntry, before: dict[str, float]) -> None:
        """Counter writes after the last yield become a dep-free marker."""
        counters = self._counter_deltas(entry.proc, before)
        if not counters:
            return
        record = TraceRecord(
            id=self._next_id(),
            kind="collective",
            rank=entry.rank,
            counters=counters,
            label="epilogue",
        )
        self._records.append(record)
        entry.last_id = record.id

    # -- finalize ------------------------------------------------------------

    def finalize(self) -> RecordedTrace:
        """Detach from the simulator and build the trace (idempotent)."""
        if self._finalized is not None:
            return self._finalized
        sim = self.cluster.sim
        if sim.record is self:
            sim.record = None
        if not self._entries:
            self.taint("no processes were recorded")
        if self.cluster.faults is not None:
            self.taint("a fault injector is attached (fault timing is not recorded)")
        machine = self.cluster.spec.name
        if machine not in TRACE_MACHINES:
            self.taint(f"machine {machine!r} has no replay constructor")
            machine = TRACE_MACHINES[0]
        for entry in self._entries:
            state = entry.proc.state
            if state is ProcessState.KILLED:
                self.taint(f"process {entry.proc.name!r} was killed")
            elif not state.terminal:
                self.taint(f"process {entry.proc.name!r} did not finish")
            if entry.pending_wait is not None:
                self.taint(f"process {entry.proc.name!r} died holding a wait")
        meta = TraceMeta(
            name=self.name,
            machine=machine,
            nodes=len(self.cluster.nodes),
            ranks=max(len(self._entries), 1),
            placement=tuple((e.proc.node, e.proc.core) for e in self._entries)
            or (("node0", 0),),
            rank_names=tuple(e.proc.name for e in self._entries) or ("empty",),
            starts=tuple(e.start for e in self._entries) or (0.0,),
            filesystems=tuple(self.cluster.filesystems),
            tickers=tuple(self._tickers),
            ran_until=sim.now,
            origin="recorded",
        )
        trace = Trace(meta=meta, records=tuple(self._records))
        if not self._taints:
            try:
                trace.validate()
            except TraceError as err:
                self.taint(f"recorded trace failed validation: {err}")
        from repro.check.harness import fingerprint_cluster

        self._finalized = RecordedTrace(
            trace=trace,
            fingerprint=fingerprint_cluster(self.cluster),
            taints=tuple(self._taints),
        )
        return self._finalized


class RecordingSession:
    """Collects recorders for every cluster built while active."""

    def __init__(self, name: str = "recorded") -> None:
        self.name = name
        self.recorders: list[TraceRecorder] = []
        self._results: list[RecordedTrace] | None = None

    def _on_cluster(self, cluster: Cluster) -> None:
        index = len(self.recorders)
        self.recorders.append(
            TraceRecorder(cluster, name=f"{self.name}.{index}")
        )

    def finalize(self) -> list[RecordedTrace]:
        if self._results is None:
            self._results = [recorder.finalize() for recorder in self.recorders]
        return self._results

    @property
    def traces(self) -> list[RecordedTrace]:
        return self.finalize()

    def clean_traces(self) -> list[RecordedTrace]:
        """Recordings whose replay equivalence is actually claimed."""
        return [rec for rec in self.finalize() if rec.clean]


@contextmanager
def recording_session(name: str = "recorded"):
    """Record every cluster constructed inside the ``with`` block.

    Finalizes all recorders on exit, so :attr:`RecordingSession.traces`
    is complete as soon as the block closes.
    """
    session = RecordingSession(name)
    _CLUSTER_OBSERVERS.append(session._on_cluster)
    try:
        yield session
    finally:
        _CLUSTER_OBSERVERS.remove(session._on_cluster)
        session.finalize()


@dataclass(frozen=True)
class RecordedExperiment:
    """A registry experiment's native result plus its recordings."""

    name: str
    result: object
    recordings: tuple[RecordedTrace, ...] = field(default=())

    def clean_traces(self) -> list[RecordedTrace]:
        return [rec for rec in self.recordings if rec.clean]


def record_experiment(
    name: str,
    seed: int | None = None,
    overrides: dict[str, object] | None = None,
) -> RecordedExperiment:
    """Run a registry experiment with every cluster it builds recorded.

    Multi-cluster experiments (most figures) yield one recording per
    cluster; anomaly-bearing clusters come back tainted (anomalies run
    unbounded segments), while their clean baselines replay byte-for-byte.
    """
    from repro.experiments.registry import resolve_job_spec

    spec = resolve_job_spec(name)
    request = spec.normalize(seed=seed, overrides=overrides)
    with recording_session(name=name) as session:
        result = spec.run_request(request)
    return RecordedExperiment(
        name=name, result=result, recordings=tuple(session.finalize())
    )
