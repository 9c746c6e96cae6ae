"""The simulation engine: exact fluid advancement between rate-change events.

The engine owns simulated time, the event queue, and the process table.  It
delegates *all* performance modelling to a :class:`RateModel` (the cluster
package provides the real one): whenever the set of running segments
changes, the engine calls :meth:`RateModel.resolve` to obtain each process's
speed, and between events it calls :meth:`RateModel.accrue` so the model can
integrate usage counters (CPU seconds, bytes moved, NIC flits, ...) for the
monitoring samplers.

Because processes advance linearly between events, segment completions can
be scheduled exactly — the simulation has no time-step discretisation error
and its cost scales with the number of rate changes, not with simulated
duration.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Sequence

from repro.errors import ProcessCrash, SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.stats import SimStats
from repro.sim.process import (
    Condition,
    ProcessState,
    Segment,
    SimProcess,
    Sleep,
    Wait,
)

#: Guard against runaway event loops (a real experiment uses ~1e4 events).
MAX_EVENTS = 20_000_000

#: Slack used when clamping residual work after float round-off.
_EPS = 1e-9


def default_backend() -> str:
    """Name of the simulation core, for run metadata.

    There is one core — ``ClusterRateModel`` on the heap event queue —
    so this is a constant.
    """
    return "array"


class RateModel(ABC):
    """Performance model plugged into the engine.

    Implementations translate the demand vectors of running segments into
    per-process speeds (fraction of nominal progress per wall second) and
    integrate usage counters between events.  :meth:`accrue` adds straight
    into the process and node counter dicts, so readers see current
    counters at every event.
    """

    #: shared counter block; the engine injects its own via :meth:`attach_stats`
    stats: SimStats | None = None

    @abstractmethod
    def resolve(self, running: Sequence[SimProcess], now: float) -> dict[int, float]:
        """Return ``{pid: speed}`` for every running process.

        Speeds are in ``[0, 1]``: 1 means the segment progresses in real
        time, 0.5 means it takes twice its nominal duration.
        """

    def resolve_incremental(
        self,
        running: Sequence[SimProcess],
        now: float,
        dirty: frozenset[int] | None = None,
    ) -> dict[int, float]:
        """Like :meth:`resolve`, but with a hint of *which* pids changed.

        ``dirty`` names the pids whose segment started, changed, or ended
        since the previous resolve; ``None`` means "assume everything
        changed" (the first resolve, or an externally forced one).  The
        default implementation ignores the hint and delegates to
        :meth:`resolve`, so existing models stay correct; models that can
        reuse per-subsystem results (see
        :class:`~repro.cluster.ratemodel.ClusterRateModel`) override this.
        """
        return self.resolve(running, now)

    @abstractmethod
    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        """Integrate usage counters over ``[t0, t1]`` at the current rates."""

    def attach_stats(self, stats: SimStats) -> None:
        """Adopt the engine's :class:`SimStats` block (shared counters)."""
        self.stats = stats

    def on_process_end(self, proc: SimProcess) -> None:
        """Hook called when a process finishes or is killed (cleanup)."""


class UnitRateModel(RateModel):
    """Trivial model: every segment runs at full speed (used in tests)."""

    def resolve(self, running: Sequence[SimProcess], now: float) -> dict[int, float]:
        return {proc.pid: 1.0 for proc in running}

    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        dt = t1 - t0
        for proc in running:
            seg = proc.current
            if seg is not None:
                proc.add_counter("cpu_seconds", seg.cpu * dt * proc.speed)


class RecurringHandle:
    """Cancellation handle for :meth:`Simulator.every`."""

    def __init__(self) -> None:
        self._event: Event | None = None
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Discrete-event driver for fluid-rate simulation.

    Parameters
    ----------
    model:
        The :class:`RateModel` that prices resource contention.  Defaults
        to :class:`UnitRateModel` (no contention), which is useful for unit
        tests of process logic.

    Events run from a heap :class:`~repro.sim.events.EventQueue` with
    *batched dispatch*: all events sharing a timestamp run in one batch
    with a single rate resolve at the end (see :meth:`_run_batched`).
    """

    def __init__(self, model: RateModel | None = None) -> None:
        self.model: RateModel = model if model is not None else UnitRateModel()
        self.now: float = 0.0
        self.stats = SimStats()
        self.model.attach_stats(self.stats)
        #: attached span collector (see :mod:`repro.obs`), or None.  Every
        #: emission site is guarded by a None-check, so an unobserved
        #: simulation pays nothing beyond the attribute read.
        self.obs = None
        #: attached invariant checker (see :mod:`repro.check`), or None.
        #: Same pay-for-what-you-use contract as ``obs``: every hook site
        #: is guarded, so an unchecked simulation pays one attribute read.
        self.check = None
        #: attached trace recorder (see :mod:`repro.traces`), or None.
        #: Same pay-for-what-you-use contract: spawn/notify/every are the
        #: only tap sites, each guarded by a None-check.
        self.record = None
        self._queue = EventQueue()
        self._processes: dict[int, SimProcess] = {}
        self._running: list[SimProcess] = []
        self._ready: deque[SimProcess] = deque()
        self._dirty = False
        #: pids whose segment started/changed/ended since the last resolve;
        #: handed to the rate model so it can re-solve only what moved
        self._dirty_pids: set[int] = set()
        #: set by :meth:`invalidate_rates`: model-global state changed (e.g.
        #: a fault factor), so the next resolve must re-price *everything*
        #: even if some pids were also marked dirty individually
        self._force_full = False
        #: True while spawn order == pid order (the common case), letting
        #: :attr:`processes` skip re-sorting the pid dict on every access
        self._pids_monotonic = True
        self._last_pid = -1
        self._events_dispatched = 0
        self._terminate_hooks: list[Callable[[SimProcess], None]] = []

    # -- public API ---------------------------------------------------------

    @property
    def processes(self) -> tuple[SimProcess, ...]:
        """All processes ever spawned, in pid order.

        Pids are handed out monotonically, so insertion order *is* pid
        order unless a caller spawned pre-built processes out of creation
        order; only then is a sorted view materialised.
        """
        if self._pids_monotonic:
            return tuple(self._processes.values())
        return tuple(self._processes[pid] for pid in sorted(self._processes))

    @property
    def running(self) -> tuple[SimProcess, ...]:
        """Processes currently holding an active segment."""
        return tuple(self._running)

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"unknown pid {pid}") from None

    def add_terminate_hook(self, hook: Callable[[SimProcess], None]) -> None:
        """Register a callback fired whenever a process ends (done or killed)."""
        self._terminate_hooks.append(hook)

    def spawn(self, proc: SimProcess, at: float | None = None) -> SimProcess:
        """Register ``proc`` and start it at time ``at`` (default: now)."""
        start = self.now if at is None else at
        if start < self.now:
            raise SimulationError(
                f"cannot spawn {proc.name} in the past ({start} < {self.now})"
            )
        if proc.pid in self._processes:
            raise SimulationError(f"process {proc.name} already spawned")
        if proc.pid < self._last_pid:
            self._pids_monotonic = False
        self._last_pid = max(self._last_pid, proc.pid)
        self._processes[proc.pid] = proc
        if self.record is not None:
            self.record.on_spawn(proc, start)
        self._queue.push(start, lambda: self._start(proc))
        return proc

    def kill(self, proc: SimProcess, reason: str = "killed") -> None:
        """Terminate ``proc`` immediately (its ``finally`` blocks run)."""
        if proc.state.terminal or proc.state is ProcessState.NEW and proc.sim is None:
            return
        proc._close()
        self._finish(proc, ProcessState.KILLED, reason)

    def invalidate_rates(self) -> None:
        """Force a full rate re-resolve after the current event.

        Call when model-global state changed outside any segment — fault
        factors, filesystem health — so cached per-subsystem solves cannot
        be trusted.  The resolve happens at the engine's normal point in
        the event loop (current simulated time, after the event's action).
        """
        self._dirty = True
        self._force_full = True

    def interrupt(self, proc: SimProcess, exc: ProcessCrash) -> None:
        """Throw ``exc`` into ``proc`` at the current simulated time.

        The exception surfaces inside the process body at its current
        ``yield``, so ``finally`` blocks run and the body may catch it and
        continue (graceful degradation) or let it crash the process.  Only
        :class:`ProcessCrash` subclasses may be delivered: anything else
        escaping a body would abort the whole simulation.
        """
        if not isinstance(exc, ProcessCrash):
            raise SimulationError(
                f"can only interrupt with ProcessCrash subclasses, got {type(exc).__name__}"
            )
        if proc.state.terminal or proc.sim is None:
            return
        proc.wake_version += 1  # cancel pending sleep/segment wakes
        if proc.waiting_on is not None:
            proc.waiting_on.discard(proc)
            proc.waiting_on = None
        self._step(proc, exc)

    def schedule(self, time: float, action: Callable[[], None]) -> Event:
        """Run ``action`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        return self._queue.push(time, action)

    def call_in(self, delay: float, action: Callable[[], None]) -> Event:
        """Run ``action`` after ``delay`` simulated seconds."""
        return self.schedule(self.now + delay, action)

    def every(
        self,
        interval: float,
        action: Callable[[float], None],
        start: float | None = None,
        end: float = math.inf,
    ) -> RecurringHandle:
        """Invoke ``action(time)`` every ``interval`` seconds until ``end``.

        The monitoring stack uses this for 1 Hz sampling.
        """
        if interval <= 0:
            raise SimulationError("recurring interval must be > 0")
        handle = RecurringHandle()
        first = self.now if start is None else start
        if self.record is not None:
            self.record.on_every(interval, first, end)

        def fire(at: float) -> None:
            if handle.cancelled or at > end:
                return
            action(at)
            nxt = at + interval
            if nxt <= end:
                handle._event = self._queue.push(nxt, lambda: fire(nxt))

        handle._event = self._queue.push(first, lambda: fire(first))
        return handle

    def notify(self, condition: Condition) -> None:
        """Release all waiters of ``condition``; they resume in this event."""
        if self.record is not None:
            self.record.on_notify(condition)
        for proc in condition.notify_all():
            if proc.state is ProcessState.WAITING:
                proc.state = ProcessState.NEW  # transitional; _drain re-steps it
                proc.waiting_on = None
                self._ready.append(proc)

    def run(
        self,
        until: float = math.inf,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        ``stop_when`` is checked after every event; when it returns True
        the loop exits immediately (recurring background events such as
        monitoring ticks would otherwise keep an idle simulation running
        to ``until``).

        Returns the final simulated time.  Counters are integrated all the
        way to ``until`` when it is finite and no stop condition fired, so
        sampling windows that end in quiet periods account usage correctly.
        """
        try:
            return self._run_batched(until, stop_when)
        finally:
            if self._events_dispatched:
                self.stats.counters["events_dispatched"] = self._events_dispatched

    def _run_batched(
        self, until: float, stop_when: Callable[[], bool] | None
    ) -> float:
        """Event loop: batch each timestamp into a single resolve.

        Events at one timestamp cannot accrue work between each other
        (``dt == 0``), so only the *final* rate resolve of a timestamp is
        observable; per-event intermediate resolves would be pure
        recomputation — worse, their transient speed changes would
        re-stamp completion ETAs from the same ``(now, remaining)`` line
        with different rounding, so batching is what keeps a rate model
        and its reference bit-for-bit interchangeable.  Actions and
        ready-queue drains still run strictly in the serial order
        (per-event), preserving the dispatch sequence and tie-break
        contract.
        """
        if stop_when is not None and stop_when():
            return self.now
        queue = self._queue
        while True:
            tnext = queue.peek_time()
            if tnext is None or tnext > until:
                break
            self._advance(tnext)
            batch = 0
            while (event := queue.pop_at(tnext)) is not None:
                if self.check is not None:
                    self.check.on_event(self, event.time)
                self._count_event()
                event.action()
                self._drain_ready()
                batch += 1
                if stop_when is not None and stop_when():
                    if self._dirty:
                        self._resolve()
                    return self.now
            self.stats.count("event_batches")
            if batch > 1:
                self.stats.count("batched_events", batch - 1)
            if self._dirty:
                self._resolve()
            if stop_when is not None and stop_when():
                return self.now
        if math.isfinite(until) and until > self.now:
            self._advance(until)
        return self.now

    def _count_event(self) -> None:
        # The running total lands in stats once per run() (not per event).
        self._events_dispatched += 1
        if self._events_dispatched > MAX_EVENTS:
            raise SimulationError("event budget exhausted (runaway simulation?)")

    # -- internals ------------------------------------------------------------

    def _start(self, proc: SimProcess) -> None:
        proc._bind(self)
        proc.start_time = self.now
        if self.obs is not None:
            self.obs.on_process_start(proc)
        self._ready.append(proc)

    def _advance(self, t: float) -> None:
        dt = t - self.now
        if dt < 0:
            raise SimulationError("time went backwards")
        if dt == 0:
            return
        if self.check is not None:
            self.check.on_advance(self, t)
        if self._running:
            with self.stats.timer("accrue"):
                self.model.accrue(self._running, self.now, t)
            for proc in self._running:
                left = proc.remaining - proc.speed * dt
                proc.remaining = left if left > 0.0 else 0.0
        self.now = t

    def _drain_ready(self) -> None:
        while self._ready:
            proc = self._ready.popleft()
            if proc.state.terminal:
                continue
            self._step(proc)

    def _step(self, proc: SimProcess, exc: BaseException | None = None) -> None:
        was_running = proc.state is ProcessState.RUNNING
        try:
            item = proc._step(exc)
        except ProcessCrash as crash:
            if was_running and proc in self._running:
                self._running.remove(proc)
                self._mark_dirty(proc)
            self._finish(proc, ProcessState.KILLED, f"crash: {crash}")
            return
        if was_running and proc in self._running and not isinstance(item, Segment):
            self._running.remove(proc)
            self._mark_dirty(proc)
        if item is None:
            self._finish(proc, ProcessState.DONE, "done")
        elif isinstance(item, Segment):
            proc.current = item
            proc.remaining = item.work
            proc.wake_version += 1
            if proc.state is not ProcessState.RUNNING:
                proc.state = ProcessState.RUNNING
                self._running.append(proc)
            self._mark_dirty(proc)
            if self.obs is not None:
                self.obs.on_segment_start(proc)
        elif isinstance(item, Sleep):
            proc.current = None
            proc.state = ProcessState.SLEEPING
            proc.wake_version += 1
            if self.obs is not None:
                self.obs.on_segment_end(proc)
            version = proc.wake_version
            self._queue.push(self.now + item.duration, lambda: self._wake(proc, version))
        elif isinstance(item, Wait):
            proc.current = None
            proc.state = ProcessState.WAITING
            proc.wake_version += 1
            if self.obs is not None:
                self.obs.on_segment_end(proc)
            proc.waiting_on = item.condition
            item.condition._add(proc)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"process {proc.name} yielded {item!r}")

    def _wake(self, proc: SimProcess, version: int) -> None:
        if proc.wake_version != version or proc.state.terminal:
            return
        self._ready.append(proc)

    def _on_segment_done(self, proc: SimProcess, version: int) -> None:
        if proc.wake_version != version or proc.state is not ProcessState.RUNNING:
            return
        if proc.remaining > _EPS * max(1.0, proc.current.work if proc.current else 1.0):
            # Rates changed since this wake was scheduled; a fresh wake was
            # (or will be) scheduled by resolve.  Ignore the stale one.
            return
        proc.remaining = 0.0
        self._ready.append(proc)

    def _finish(self, proc: SimProcess, state: ProcessState, reason: str) -> None:
        if proc in self._running:
            self._running.remove(proc)
            self._mark_dirty(proc)
        if proc.waiting_on is not None:
            # Drop the stale waiter entry; the pointer itself is kept so
            # terminate hooks can see which condition the process died on.
            proc.waiting_on.discard(proc)
        proc.state = state
        proc.current = None
        proc.end_time = self.now
        proc.exit_reason = reason
        proc.wake_version += 1
        self.model.on_process_end(proc)
        if self.obs is not None:
            self.obs.on_process_end(proc)
        for hook in self._terminate_hooks:
            hook(proc)

    def _mark_dirty(self, proc: SimProcess) -> None:
        self._dirty = True
        self._dirty_pids.add(proc.pid)

    def _resolve(self) -> None:
        self._dirty = False
        # A dirty flag without recorded pids means an external actor poked
        # ``sim._dirty`` directly (tests, tracing helpers); a set
        # ``_force_full`` flag means :meth:`invalidate_rates` ran.  Either
        # way, fall back to a full resolve so arbitrary model-state changes
        # are re-priced even for pids whose segments did not move.
        if self._force_full or not self._dirty_pids:
            dirty = None
        else:
            dirty = frozenset(self._dirty_pids)
        self._force_full = False
        self._dirty_pids.clear()
        self.stats.count("resolves")
        if dirty is None:
            self.stats.count("full_resolves")
        if self.obs is not None:
            self.obs.on_resolve(self.now, len(self._running), dirty)
        with self.stats.timer("resolve"):
            speeds = self.model.resolve_incremental(self._running, self.now, dirty)
        if self.check is not None:
            self.check.after_resolve(self, speeds, dirty)
        skipped = 0
        for proc in self._running:
            new_speed = speeds.get(proc.pid, 0.0)
            if dirty is not None and proc.pid not in dirty and new_speed == proc.speed:
                # Clean process, unchanged speed: its pending completion
                # event (scheduled from the same remaining/speed line) is
                # still exact — skip the reschedule.
                skipped += 1
                continue
            proc.speed = new_speed
            proc.wake_version += 1
            if math.isfinite(proc.remaining) and proc.speed > 0.0:
                eta = self.now + proc.remaining / proc.speed
                version = proc.wake_version
                self._queue.push(eta, lambda p=proc, v=version: self._on_segment_done(p, v))
        if skipped:
            self.stats.count("reschedules_skipped", skipped)
        if self._dirty:
            # resolve() itself may kill processes (e.g. OOM policies); loop.
            self._resolve()
