"""Snapshot bookkeeping for a single replica.

Tashkent runs PostgreSQL at snapshot isolation and extends it to the
replicated setting with *generalized snapshot isolation* (GSI): a
transaction executes against a possibly slightly old snapshot of its local
replica, and at commit time the certifier checks that no concurrent,
already-committed transaction wrote an item the committing transaction also
wrote (write-write conflict).

The global side of the protocol -- certification, the commit log and the
conflict check -- lives in :mod:`repro.replication.certifier`.  This module
provides the *replica-local* bookkeeping: which global version the replica
has applied so far (the replica's one applied-version cursor) and which
snapshot version each in-flight transaction reads from.
"""

from __future__ import annotations

from typing import Dict, Optional


class SnapshotManager:
    """Tracks the applied version of a replica and per-transaction snapshots.

    Versions are the global commit sequence numbers assigned by the
    certifier.  ``applied_version`` is the index of the last writeset this
    replica has applied; any transaction starting now observes a snapshot at
    that version ("the state of any replica is always a consistent prefix of
    the certifier's log", Section 4.1).

    ``__slots__``-based: begin/finish run once per transaction and advance
    runs once per applied writeset batch.
    """

    __slots__ = ("applied_version", "_snapshots")

    def __init__(self, applied_version: int = 0) -> None:
        self.applied_version = applied_version
        self._snapshots: Dict[int, int] = {}

    def begin(self, txn_id: int) -> int:
        """Record and return the snapshot version of a starting transaction:
        the current applied version."""
        snapshot = self.applied_version
        self._snapshots[txn_id] = snapshot
        return snapshot

    def finish(self, txn_id: int) -> None:
        """Forget a finished transaction."""
        self._snapshots.pop(txn_id, None)

    def advance(self, version: int) -> None:
        """Note that the replica has applied writesets up to ``version``."""
        if version > self.applied_version:
            self.applied_version = version

    def abort_open(self) -> int:
        """Forget every in-flight transaction (crash path).

        A crashed replica's open transactions die with it; their snapshots
        must not keep pinning the oldest-active horizon after a restart.
        Returns the number of transactions discarded.
        """
        count = len(self._snapshots)
        self._snapshots.clear()
        return count

    @property
    def active_transactions(self) -> int:
        return len(self._snapshots)

    def oldest_active_snapshot(self) -> Optional[int]:
        """The oldest snapshot still in use (bounds log truncation)."""
        if not self._snapshots:
            return None
        return min(self._snapshots.values())
