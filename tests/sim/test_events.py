"""Tests for the event queue."""

import heapq

import pytest

from repro.sim.events import EventQueue


def _drain(q):
    """Pop and run every entry in heap order, as the simulator's loops do."""
    times = []
    while q:
        time, _, callback = heapq.heappop(q._heap)
        times.append(time)
        callback()
    return times


def test_events_pop_in_time_order():
    q = EventQueue()
    order = []
    q.push(2.0, lambda: order.append("b"))
    q.push(1.0, lambda: order.append("a"))
    q.push(3.0, lambda: order.append("c"))
    assert _drain(q) == [1.0, 2.0, 3.0]
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    q = EventQueue()
    order = []
    for name in "abc":
        q.push(1.0, lambda n=name: order.append(n))
    _drain(q)
    assert order == ["a", "b", "c"]


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-1.0, lambda: None)
    assert not q


def test_empty_queue_behaviour():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert _drain(q) == []
    q.push(0.0, lambda: None)
    assert len(q) == 1
    assert q


def test_push_bare_is_push():
    assert EventQueue.push_bare is EventQueue.push
