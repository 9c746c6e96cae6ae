"""Event-queue behaviour: ordering, ties, cancellation.

The contract is non-decreasing time order with equal-timestamp events
firing in **insertion order** — the tie-break the engine's determinism
rests on.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


@pytest.fixture(params=[EventQueue], ids=["heap"])
def queue(request):
    return request.param()


def test_pops_in_time_order(queue):
    fired = []
    queue.push(3.0, lambda: fired.append(3))
    queue.push(1.0, lambda: fired.append(1))
    queue.push(2.0, lambda: fired.append(2))
    while (e := queue.pop()) is not None:
        e.action()
    assert fired == [1, 2, 3]


def test_ties_fire_in_insertion_order(queue):
    fired = []
    for i in range(10):
        queue.push(5.0, lambda i=i: fired.append(i))
    while (e := queue.pop()) is not None:
        e.action()
    assert fired == list(range(10))


def test_interleaved_ties_keep_per_timestamp_fifo(queue):
    # Ties pushed in interleaved time order must still dispatch FIFO
    # within each timestamp.
    fired = []
    for i in range(6):
        queue.push(2.0, lambda i=i: fired.append(("b", i)))
        queue.push(1.0, lambda i=i: fired.append(("a", i)))
    while (e := queue.pop()) is not None:
        e.action()
    assert fired == [("a", i) for i in range(6)] + [("b", i) for i in range(6)]


def test_cancelled_events_are_skipped(queue):
    keep = queue.push(1.0, lambda: None)
    drop = queue.push(0.5, lambda: None)
    drop.cancel()
    assert queue.pop() is keep
    assert queue.pop() is None


def test_peek_time_skips_cancelled(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 2.0


def test_len_counts_pending(queue):
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2


def test_nan_time_rejected(queue):
    with pytest.raises(SimulationError):
        queue.push(float("nan"), lambda: None)


def test_empty_queue_pop_and_peek(queue):
    assert queue.pop() is None
    assert queue.peek_time() is None


def test_pop_at_drains_only_the_due_timestamp(queue):
    # Batched dispatch must never merge distinct instants, however close:
    # an event one ulp later belongs to the next batch.
    a = queue.push(1.0, lambda: None)
    b = queue.push(1.0, lambda: None)
    queue.push(math.nextafter(1.0, 2.0), lambda: None)
    assert queue.pop_at(1.0) is a
    assert queue.pop_at(1.0) is b
    assert queue.pop_at(1.0) is None  # next event is one ulp later
    assert queue.peek_time() == math.nextafter(1.0, 2.0)


def test_infinite_timestamps_sort_last(queue):
    far = queue.push(float("inf"), lambda: None)
    near = queue.push(1.0, lambda: None)
    assert queue.peek_time() == 1.0
    assert queue.pop() is near
    assert queue.peek_time() == float("inf")
    assert queue.pop() is far
    assert queue.pop() is None
