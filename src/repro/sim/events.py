"""The simulation engine's event queue.

:class:`EventQueue` is a binary heap with one contract:

* events fire in non-decreasing ``time`` order;
* **equal-timestamp events fire in insertion order** (FIFO).  The queue
  stamps pushes with a monotone sequence number and orders events by
  ``(time, seq)``, so two runs of the same script always interleave
  identically.  ``tests/sim/test_events.py`` pins this contract.
"""

from __future__ import annotations

import itertools
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)``; the sequence number is a
    monotone insertion counter, which makes simultaneous events fire in the
    order they were scheduled.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at ``time`` and return a cancellable handle."""
        if math.isnan(time):
            raise SimulationError("event time is NaN")
        event = Event(time=time, seq=next(self._counter), action=action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without popping it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop_at(self, time: float) -> Event | None:
        """Pop the earliest event only if it is due exactly at ``time``.

        The engine's batched dispatch uses this to drain one timestamp's
        events (including ones pushed *during* the batch) without
        re-peeking the next distinct timestamp.
        """
        if self.peek_time() != time:
            return None
        return self.pop()
