"""Crash recovery of replicas and the certifier.

Section 3 of the paper notes that update filtering does not change recovery:
"If a replica crashes and later restarts, standard recovery is used.  For
example, the database can be restored from other copies in the cluster or by
the persistent log at the certifier."  The certifier itself is replicated
(a leader and two backups in the experimental set-up) so its log survives
individual failures.

This module provides that machinery for the simulated system:

* :class:`ReplicatedCertifierLog` -- a leader log mirrored to backups, with
  fail-over that promotes the most up-to-date backup;
* :func:`recover_replica` -- cold-restarts a replica: clears its buffer
  pool, restores any dropped tables and replays the writesets it missed from
  the certifier's log;
* :func:`recovery_replay_plan` -- the list of writesets a recovering replica
  must apply, useful for tests and for estimating recovery cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.replication.certifier import (CertificationResult, Certifier,
                                         CertifierStats, LagSubscriptionIndex,
                                         _RpcDedupState)
from repro.replication.replica import Replica
from repro.replication.writeset import CertifiedWriteSet, WriteSet


@dataclass
class ReplicatedCertifierLog:
    """A certifier leader with synchronously mirrored backups.

    The paper uses one leader and two backups.  Every certified writeset is
    appended to the leader and to all backups; fail-over promotes the backup
    with the longest log, which by construction equals the leader's log, so
    no committed transaction is lost.
    """

    leader: Certifier
    backups: List[Certifier] = field(default_factory=list)
    #: Lag subscriptions live on the replicated service, not on the leader:
    #: a fail-over must not forget which replicas are registered (the new
    #: leader's own index was never populated).  Created in __post_init__.
    subscriptions: Optional[LagSubscriptionIndex] = None
    #: The at-least-once RPC dedup cache also lives on the replicated
    #: service: a proxy retrying a round trip across a fail-over must be
    #: answered idempotently by the new leader, not re-certified.
    rpc_cache: Dict[int, _RpcDedupState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.subscriptions is None:
            self.subscriptions = LagSubscriptionIndex(
                self.leader.lag_notification_threshold)

    @property
    def lag_notification_threshold(self) -> int:
        return self.leader.lag_notification_threshold

    @classmethod
    def create(cls, num_backups: int = 2) -> "ReplicatedCertifierLog":
        if num_backups < 0:
            raise ValueError("number of backups cannot be negative")
        return cls(leader=Certifier(), backups=[Certifier() for _ in range(num_backups)])

    def certify(self, writeset: WriteSet, snapshot_version: int,
                now: float = 0.0) -> CertificationResult:
        """Certify at the leader and mirror the decision to the backups."""
        result = self.leader.certify(writeset, snapshot_version, now=now)
        if result.committed:
            self._mirror([(writeset, result.version - 1)], now)
        return result

    def certify_batch(self, requests: Sequence[Tuple[WriteSet, int]],
                      since_version: int, now: float = 0.0
                      ) -> Tuple[List[CertificationResult], List[CertifiedWriteSet]]:
        """Serve a proxy's batched round trip against the replicated log.

        The leader certifies the batch; its commits -- and only its commits
        -- are then mirrored to every backup, so a fail-over mid-run loses
        none of a batch's commits and no backup replays an aborted request.
        """
        results, piggyback = self.leader.certify_batch(requests, since_version, now=now)
        committed = [(writeset, result.version - 1)
                     for (writeset, _), result in zip(requests, results)
                     if result.committed]
        if committed:
            self._mirror(committed, now)
        return results, piggyback

    def _mirror(self, committed: List[Tuple[WriteSet, int]], now: float) -> None:
        """Append the leader's commits to every backup.

        Each writeset is certified at its leader commit version minus one,
        so it conflicts with nothing the backup already holds and commits
        at the same version as on the leader.
        """
        for backup in self.backups:
            mirrored, _ = backup.certify_batch(committed, backup.current_version, now=now)
            for result in mirrored:
                if not result.committed:
                    raise RuntimeError("backup certifier diverged from the leader")

    def certify_rpc(self, origin_replica: int, request_id: int,
                    requests: Sequence[Tuple[WriteSet, int]],
                    since_version: int, now: float = 0.0
                    ) -> Tuple[Optional[List[CertificationResult]],
                               List[CertifiedWriteSet]]:
        """Serve an at-least-once round trip against the replicated log.

        Reuses :meth:`Certifier.certify_rpc` unbound: the dedup window lives
        in this wrapper's ``rpc_cache`` and certification goes through the
        wrapper's mirrored :meth:`certify_batch`, so a retried batch
        straddling a fail-over is answered from cache by the new leader
        instead of being certified twice.
        """
        return Certifier.certify_rpc(self, origin_replica, request_id,
                                     requests, since_version, now=now)

    def fail_over(self, leader_failed: bool = True) -> Certifier:
        """Promote the most up-to-date backup to leader.

        By default the old leader is presumed dead and is dropped from the
        replica group (a crashed certifier cannot serve as a backup).  Pass
        ``leader_failed=False`` for a planned handover, which demotes the old
        leader to a backup instead.  Returns the new leader; raises if no
        backup exists.
        """
        if not self.backups:
            raise RuntimeError("no backup certifier available for fail-over")
        best = max(self.backups, key=lambda c: c.current_version)
        self.backups.remove(best)
        # The RPC dedup cache lives on this wrapper and transfers to the new
        # leader, so its hit counters transfer with it -- otherwise a
        # campaign report would show zero dedup hits after a fail-over.
        best.stats.dedup_hits += self.leader.stats.dedup_hits
        best.stats.stale_requests += self.leader.stats.stale_requests
        self.leader.stats.dedup_hits = 0
        self.leader.stats.stale_requests = 0
        if not leader_failed:
            self.backups.append(self.leader)
        self.leader = best
        return self.leader

    @property
    def current_version(self) -> int:
        return self.leader.current_version

    @property
    def oldest_available_version(self) -> int:
        return self.leader.oldest_available_version

    # ------------------------------------------------------------------
    # Certifier interface delegation.  A ReplicatedCertifierLog can stand in
    # for a plain Certifier inside a running cluster, so a mid-run fail-over
    # is transparent to the replicas (they keep talking to this wrapper).
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CertifierStats:
        return self.leader.stats

    def writesets_since(self, version: int, limit: Optional[int] = None) -> List[CertifiedWriteSet]:
        return self.leader.writesets_since(version, limit=limit)

    def truncate(self, oldest_needed_version: int) -> int:
        dropped = self.leader.truncate(oldest_needed_version)
        for backup in self.backups:
            backup.truncate(oldest_needed_version)
        return dropped

    def log_is_total_order(self) -> bool:
        return self.leader.log_is_total_order()


def recovery_replay_plan(certifier: Certifier, applied_version: int) -> List[CertifiedWriteSet]:
    """Writesets a replica at ``applied_version`` must replay to catch up."""
    return certifier.writesets_since(applied_version)


def recover_replica(replica: Replica, certifier: Optional[Certifier] = None,
                    cold_cache: bool = True) -> int:
    """Restart a crashed replica and bring it up to date from the log.

    Returns the number of writesets replayed.  The replica's buffer pool is
    cleared (a restart loses the page cache), previously dropped tables are
    restored (a recovering replica rejoins as a full copy; the load balancer
    may re-install filters afterwards), and all writesets committed since the
    replica's applied version are re-applied through the normal path so their
    resource cost is charged.
    """
    source = certifier or replica.certifier
    if cold_cache:
        replica.engine.buffer_pool.clear()
    for table in list(replica.engine.dropped_tables):
        replica.engine.restore_table(table)
    replica.proxy.set_filter(None)
    # Entries below the certifier's retention horizon have been truncated;
    # that prefix is restored from another copy in the cluster (the paper's
    # alternative recovery source) and only the retained suffix is replayed
    # from the log.  Affects cold joiners and replicas that crashed before a
    # truncation; live replicas always sit above the horizon because the
    # truncation floor tracks their applied versions.
    horizon = getattr(source, "oldest_available_version", 1) - 1
    if replica.proxy.applied_version < horizon:
        replica.proxy.advance(horizon)
        replica.engine.snapshots.advance(horizon)
        # The skipped prefix was restored from another copy, not delivered
        # over the network; lift the consistency checker's audit floor so it
        # does not flag those versions as lost deliveries.
        if replica.apply_ledger is not None and horizon > replica.apply_ledger_floor:
            replica.apply_ledger_floor = horizon
    entries = source.writesets_since(replica.proxy.applied_version)
    if entries:
        replica.apply_remote_writesets(entries)
    return len(entries)
