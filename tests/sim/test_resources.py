"""Tests for the FIFO resource model (CPU / disk channel)."""

import pytest

from repro.sim.resources import ReplicaResources, Resource
from repro.sim.simulator import Simulator

from tests.conftest import drain


def backlog_seconds(res):
    """Service time accepted but not yet completed, as of now."""
    return max(0.0, res._busy_until - res.sim.now)


def utilization(res, window_start, window_end, busy_at_window_start=0.0):
    """Fraction of the window during which the server was busy, clamped to 0..1."""
    busy = res.busy_seconds_until(window_end) - busy_at_window_start
    return max(0.0, min(1.0, busy / (window_end - window_start)))


def test_requests_are_served_fifo():
    sim = Simulator()
    res = Resource(sim, "disk")
    done = []
    res.acquire(1.0, lambda: done.append(("a", sim.now)))
    res.acquire(2.0, lambda: done.append(("b", sim.now)))
    drain(sim)
    assert done == [("a", 1.0), ("b", 3.0)]


def test_background_work_delays_foreground():
    sim = Simulator()
    res = Resource(sim, "disk")
    res.add_background_work(5.0)
    done = []
    res.acquire(1.0, lambda: done.append(sim.now))
    drain(sim)
    assert done == [6.0]


def test_busy_accounting():
    sim = Simulator()
    res = Resource(sim, "cpu")
    res.acquire(2.0)
    sim.run_until(1.0)
    assert res.busy_seconds_until(1.0) == pytest.approx(1.0)
    assert backlog_seconds(res) == pytest.approx(1.0)
    sim.run_until(10.0)
    assert res.busy_seconds_until(10.0) == pytest.approx(2.0)
    assert utilization(res, 0.0, 10.0) == pytest.approx(0.2)


def test_utilization_clamped_to_unit_interval():
    sim = Simulator()
    res = Resource(sim, "cpu")
    for _ in range(10):
        res.acquire(10.0)
    sim.run_until(5.0)
    assert 0.0 <= utilization(res, 0.0, 5.0) <= 1.0


def test_negative_service_time_rejected():
    sim = Simulator()
    res = Resource(sim, "cpu")
    with pytest.raises(ValueError):
        res.acquire(-1.0)
    with pytest.raises(ValueError):
        res.add_background_work(-1.0)


def test_replica_resources_factory():
    sim = Simulator()
    pair = ReplicaResources.create(sim, 3)
    assert "3" in pair.cpu.name and "3" in pair.disk.name
