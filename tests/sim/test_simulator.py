"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.simulator import Simulator

from tests.conftest import drain


def test_time_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.schedule(1.0, lambda: seen.append(sim.now))
    drain(sim)
    assert seen == [1.0, 5.0]
    assert sim.now == 5.0


def test_run_until_stops_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(10.0, lambda: seen.append(10))
    sim.run_until(5.0)
    assert seen == [1]
    assert sim.now == 5.0
    sim.run_until(20.0)
    assert seen == [1, 10]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    drain(sim)
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(0.1)


def test_periodic_callbacks():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(10.0, lambda: ticks.append(sim.now))
    sim.run_until(35.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run_until(10.0)
    assert seen == ["second"]
    assert sim.events_processed == 2


def test_defer_runs_callbacks_in_fifo_order_with_schedule():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule_at(1.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("c"))
    sim.run_until(2.0)
    assert order == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_defer_validates_like_schedule():
    sim = Simulator()
    sim.now = 5.0
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, lambda: None)
    assert not sim.queue


# ----------------------------------------------------------------------
# Every drain executes the same order
# ----------------------------------------------------------------------
# An event is ``(delay, children)``: when it fires it schedules each child
# ``delay`` seconds after its own time.  Quarter-second delays make ties
# (same-time FIFO) common and keep every sum exact.
_DELAYS = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)
_EVENTS = st.recursive(
    st.tuples(_DELAYS, st.just(())),
    lambda children: st.tuples(_DELAYS, st.lists(children, max_size=3).map(tuple)),
    max_leaves=30,
)


def _reference(roots):
    """Execution order by ``(time, push index)``, children pushed on firing."""
    pending = [(delay, index, kids) for index, (delay, kids) in enumerate(roots)]
    pushed = len(pending)
    order = []
    now = 0.0
    while pending:
        entry = min(pending, key=lambda e: (e[0], e[1]))
        pending.remove(entry)
        now, index, kids = entry
        order.append(index)
        for delay, grandkids in kids:
            pending.append((now + delay, pushed, grandkids))
            pushed += 1
    return order, now


def _play(roots, run):
    """Schedule ``roots`` on a fresh simulator, ``run`` it, report the run.

    An event's label is its push index; odd labels go through
    ``schedule_at`` and even ones through ``schedule``.
    """
    sim = Simulator()
    executed = []
    pushed = [0]

    def push(delay, kids):
        label = pushed[0]
        pushed[0] += 1

        def fire():
            executed.append(label)
            for child in kids:
                push(*child)

        if label % 2:
            sim.schedule_at(sim.now + delay, fire)
        else:
            sim.schedule(delay, fire)

    for root in roots:
        push(*root)
    run(sim)
    return executed, sim.events_processed, sim.now


@settings(deadline=None)
@given(roots=st.lists(_EVENTS, min_size=1, max_size=8),
       cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
def test_every_drain_matches_the_time_then_push_order(roots, cuts):
    order, end = _reference(roots)
    expected = (order, len(order), end)

    def sliced(sim):
        for fraction in sorted(cuts):
            sim.run_until(fraction * end)
        sim.run_until(end)

    run_probed = []

    def with_probe(sim):
        sim.queue.probe = lambda time, sequence, callback: run_probed.append(sequence)
        sim.run_until(end)

    assert _play(roots, sliced) == expected
    assert _play(roots, with_probe) == expected
    # Every push goes through one sequence counter, so a label is its sequence.
    assert run_probed == order
