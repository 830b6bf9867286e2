"""Tests for the replica proxy: admission control and filtering state."""

import pytest

from repro.replication.proxy import AdmissionController, ReplicaProxy


class _Task:
    """Minimal admission task: anything with a start() method qualifies
    (the replica queues its slotted TransactionContexts)."""

    __slots__ = ("log", "label")

    def __init__(self, log, label):
        self.log = log
        self.label = label

    def start(self):
        self.log.append(self.label)


def test_admission_limits_concurrency():
    started = []
    ac = AdmissionController(max_concurrency=2)
    for i in range(4):
        ac.admit(_Task(started, i))
    assert started == [0, 1]
    assert ac.queued == 2
    ac.release()
    assert started == [0, 1, 2]
    ac.release()
    ac.release()
    assert started == [0, 1, 2, 3]
    assert ac.queued == 0
    # Two of the three releases handed their slot straight to a waiter;
    # the last one (empty queue) actually freed a slot.
    assert ac.active == 1
    assert ac.admitted_total == 4
    assert ac.queued_total == 2


def test_release_without_admit_raises():
    ac = AdmissionController(1)
    with pytest.raises(RuntimeError):
        ac.release()


def test_invalid_configs():
    with pytest.raises(ValueError):
        AdmissionController(0)


def test_filtering_state():
    proxy = ReplicaProxy(0)
    assert proxy.filter_tables is None
    proxy.set_filter({"orders"})
    assert proxy.filtering_enabled
    assert proxy.filter_tables == {"orders"}
    proxy.set_filter(None)
    assert not proxy.filtering_enabled
    assert proxy.filter_tables is None


def test_propagation_cursor_is_monotonic():
    proxy = ReplicaProxy(0)
    proxy.advance(5)
    proxy.advance(3)
    assert proxy.applied_version == 5
