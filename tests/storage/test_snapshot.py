"""Unit tests for replica-local snapshot bookkeeping."""

import pytest

from repro.storage.snapshot import SnapshotManager


def snapshot_of(mgr, txn_id):
    """The snapshot ``begin`` recorded for ``txn_id``; KeyError if none is open."""
    return mgr._snapshots[txn_id]


def lag(mgr, certified_version):
    """Committed writesets the manager's replica has not applied yet."""
    return max(0, certified_version - mgr.applied_version)


def test_begin_assigns_current_applied_version():
    mgr = SnapshotManager()
    mgr.advance(5)
    assert mgr.begin(1) == 5
    assert snapshot_of(mgr, 1) == 5


def test_unknown_transaction_raises():
    mgr = SnapshotManager()
    with pytest.raises(KeyError):
        snapshot_of(mgr, 42)
    mgr.begin(1)
    mgr.finish(1)
    with pytest.raises(KeyError):
        snapshot_of(mgr, 1)


def test_advance_is_monotonic():
    mgr = SnapshotManager()
    mgr.advance(10)
    mgr.advance(3)
    assert mgr.applied_version == 10
    assert lag(mgr, 15) == 5
    assert lag(mgr, 5) == 0


def test_active_and_oldest_snapshot_tracking():
    mgr = SnapshotManager()
    mgr.advance(3)
    mgr.begin(1)
    mgr.advance(7)
    mgr.begin(2)
    assert mgr.active_transactions == 2
    assert mgr.oldest_active_snapshot() == 3
    mgr.finish(1)
    assert mgr.oldest_active_snapshot() == 7
    mgr.finish(2)
    assert mgr.oldest_active_snapshot() is None
