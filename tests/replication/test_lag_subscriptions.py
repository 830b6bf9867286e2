"""Tests for the certifier's lag-subscription index and the commit fan-out.

The index replaces the per-batch scan of every live replica: proxies
register their applied-version cursors, and a commit batch pops exactly the
replicas whose lag crossed the notification threshold.  These tests pin the
index against the old scan's notify set (including under membership churn)
and check the cluster wiring: deferred zero-latency notifications, the
one-in-flight dedup, and subscription lifecycle across crash/restore.
"""

import random

from repro.core.baselines import LeastConnectionsBalancer
from repro.replication import certifier as certifier_module
from repro.replication.certifier import (LAG_NOTIFICATION_THRESHOLD, Certifier,
                                         LagSubscriptionIndex)
from repro.replication import cluster as cluster_module
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.replication.replica import MAX_CERTIFICATION_BATCH
from repro.replication.writeset import WriteItem, WriteSet
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload, step


def subscribed(subscriptions, replica_id):
    """Whether the index holds a lag cursor for ``replica_id``."""
    return replica_id in subscriptions._armed


def index_with_threshold(monkeypatch, threshold):
    """A fresh index that notifies ``threshold`` versions behind."""
    monkeypatch.setattr(certifier_module, "LAG_NOTIFICATION_THRESHOLD", threshold)
    return LagSubscriptionIndex()


# ----------------------------------------------------------------------
# LagSubscriptionIndex unit semantics
# ----------------------------------------------------------------------
def test_crossed_returns_only_replicas_past_threshold(monkeypatch):
    index = index_with_threshold(monkeypatch, 5)
    index.subscribe(1, 0)    # crosses at version 5
    index.subscribe(2, 3)    # crosses at version 8
    assert index.crossed(4) == ()
    assert index.crossed(5) == (1,)
    # 1 is disarmed until its cursor advances; 2 crosses at 8.
    assert index.crossed(7) == ()
    assert index.crossed(8) == (2,)


def test_crossed_order_is_deterministic_by_notify_at_then_id(monkeypatch):
    index = index_with_threshold(monkeypatch, 10)
    # Subscribe in scrambled order; equal notify-at versions tie-break by id.
    for rid, applied in [(7, 2), (3, 0), (5, 0), (1, 2)]:
        index.subscribe(rid, applied)
    assert index.crossed(12) == (3, 5, 1, 7)


def test_advance_rearms_at_the_new_lag_target(monkeypatch):
    index = index_with_threshold(monkeypatch, 5)
    index.subscribe(1, 0)
    assert index.crossed(5) == (1,)
    # Pull landed: cursor moves to 5, so the next nudge is due at 10.
    index.advanced(1, 5)
    assert index.crossed(9) == ()
    assert index.crossed(10) == (1,)


def test_stale_heap_entries_are_discarded_lazily(monkeypatch):
    index = index_with_threshold(monkeypatch, 5)
    index.subscribe(1, 0)
    # Several cursor advances between crossings leave stale entries behind.
    index.advanced(1, 2)
    index.advanced(1, 4)
    index.advanced(1, 6)
    # Only the freshest target (11) may fire, exactly once.
    assert index.crossed(10) == ()
    assert index.crossed(11) == (1,)
    assert index.crossed(11) == ()


def test_unsubscribed_replicas_never_fire(monkeypatch):
    index = index_with_threshold(monkeypatch, 5)
    index.subscribe(1, 0)
    index.subscribe(2, 0)
    index.unsubscribe(1)
    assert index.crossed(100) == (2,)
    # advanced() on an unsubscribed id is a no-op, not a resurrection.
    index.advanced(1, 50)
    assert index.crossed(1000) == ()


def test_resubscribe_resets_the_cursor(monkeypatch):
    index = index_with_threshold(monkeypatch, 5)
    index.subscribe(1, 0)
    index.unsubscribe(1)
    index.subscribe(1, 20)       # restored replica, caught up to 20
    assert index.crossed(24) == ()
    assert index.crossed(25) == (1,)


def test_certifier_owns_an_index_matching_its_threshold(monkeypatch):
    monkeypatch.setattr(certifier_module, "LAG_NOTIFICATION_THRESHOLD", 7)
    certifier = Certifier()
    certifier.subscriptions.subscribe(1, 0)
    assert certifier.subscriptions.crossed(6) == ()
    assert certifier.subscriptions.crossed(7) == (1,)


def test_replicated_log_subscriptions_survive_fail_over(monkeypatch):
    monkeypatch.setattr(certifier_module, "LAG_NOTIFICATION_THRESHOLD", 7)
    cert = Certifier(backups=2)
    subscriptions = cert.subscriptions
    subscriptions.subscribe(1, 0)
    promoted_log = cert.backups[0].log
    cert.fail_over()
    # The index lives on the replicated service, not on the (dead) leader.
    assert cert.log is promoted_log
    assert cert.subscriptions is subscriptions
    assert subscribed(cert.subscriptions, 1)
    assert cert.subscriptions.crossed(7) == (1,)


# ----------------------------------------------------------------------
# Pin the index against the old per-batch scan, with membership churn
# ----------------------------------------------------------------------
def _reference_notify_set(live, applied, pending, origin, threshold, current):
    """The old ``_on_local_commit`` scan: every live replica checked per batch."""
    return {
        rid for rid in live
        if rid != origin and rid not in pending
        and current - applied[rid] >= threshold
    }


def test_subscription_index_matches_scan_on_churned_membership(monkeypatch):
    """Randomized lockstep: drive the index and a model of the old scan with
    the same commits / pulls / notification deliveries / churn, asserting
    the notified sets are identical at every commit batch."""
    rng = random.Random(20260730)
    threshold = 6
    index = index_with_threshold(monkeypatch, threshold)
    live = set()
    applied = {}
    pending = set()
    current = 0
    next_rid = 0

    def join(cursor):
        nonlocal next_rid
        rid = next_rid
        next_rid += 1
        live.add(rid)
        applied[rid] = cursor
        index.subscribe(rid, cursor)
        return rid

    for _ in range(6):
        join(0)

    commits = 0
    notified_total = 0
    for _ in range(2500):
        op = rng.random()
        if op < 0.55 and live:
            # One certification batch commits at a random origin.
            current += rng.randint(1, 4)
            origin = rng.choice(sorted(live))
            expected = _reference_notify_set(live, applied, pending, origin,
                                             threshold, current)
            crossed = index.crossed(current)
            actual = {rid for rid in crossed
                      if rid != origin and rid not in pending and rid in live}
            assert actual == expected
            pending |= actual
            notified_total += len(actual)
            # The origin applies the batch's piggyback immediately.
            applied[origin] = current
            index.advanced(origin, current)
            commits += 1
        elif op < 0.70 and pending:
            # A notification lands: the pull catches the replica up fully.
            rid = rng.choice(sorted(pending))
            pending.discard(rid)
            if rid in live:
                applied[rid] = current
                index.advanced(rid, current)
        elif op < 0.85 and live:
            # Periodic pull at a random replica (may race an in-flight
            # notification, which is exactly the case the dedup covers).
            rid = rng.choice(sorted(live))
            applied[rid] = current
            index.advanced(rid, current)
        elif op < 0.93 and len(live) > 2:
            # Crash or graceful leave: the replica unsubscribes.
            rid = rng.choice(sorted(live))
            live.discard(rid)
            index.unsubscribe(rid)
        else:
            # Join (cold, caught up) or restore (stale cursor).
            join(current if rng.random() < 0.5 else max(0, current - rng.randint(0, 20)))

    assert commits > 500
    assert notified_total > 50          # the schedule actually exercised fan-out


# ----------------------------------------------------------------------
# Cluster wiring
# ----------------------------------------------------------------------
def _make_cluster(replicas=3):
    config = ClusterConfig(
        num_replicas=replicas, replica_ram_bytes=mb(128),
        clients_per_replica=4, think_time_s=0.1, seed=2,
    )
    return ReplicatedCluster(workload=make_tiny_workload(),
                             balancer=LeastConnectionsBalancer(),
                             config=config, mix="balanced")


def _commit_writesets(certifier, count, origin_replica=0):
    for i in range(count):
        writeset = WriteSet(
            transaction_type="W",
            items=(WriteItem(relation="users", keys=(i,), pages_dirtied=1),),
            origin_replica=origin_replica,
        )
        result = certifier.certify(writeset, snapshot_version=certifier.current_version)
        assert result.committed


def test_zero_latency_notification_is_deferred_not_synchronous(monkeypatch):
    """With NOTIFICATION_LATENCY_S == 0 the pull must still go through the
    event queue (same dedup as the deferred path), never run synchronously
    inside the origin's commit processing."""
    monkeypatch.setattr(cluster_module, "NOTIFICATION_LATENCY_S", 0.0)
    cluster = _make_cluster(replicas=3)
    certifier = cluster.certifier
    threshold = LAG_NOTIFICATION_THRESHOLD
    _commit_writesets(certifier, threshold + 2)

    origin = cluster.replicas[0]
    before = certifier.stats.notifications_sent
    cluster._on_local_commit(origin)

    # Nothing pulled synchronously: the lagging replicas' cursors are
    # untouched until the event queue runs, and both are marked in flight.
    assert cluster.replicas[1].applied_version == 0
    assert cluster.replicas[2].applied_version == 0
    assert cluster._notify_pending == {1, 2}
    assert certifier.stats.notifications_sent == before + 2

    # A second commit batch before the notifications land must not stack
    # further notifications (one in flight per replica).
    cluster._on_local_commit(origin)
    assert certifier.stats.notifications_sent == before + 2

    for _ in range(10):
        step(cluster.sim)
    assert cluster._notify_pending == set()
    assert cluster.replicas[1].applied_version == certifier.current_version
    assert cluster.replicas[2].applied_version == certifier.current_version

    # Caught up: another batch hook with no new lag notifies nobody.
    cluster._on_local_commit(origin)
    assert certifier.stats.notifications_sent == before + 2


def test_origin_is_not_notified_and_rearms_via_piggyback():
    cluster = _make_cluster(replicas=2)
    certifier = cluster.certifier
    _commit_writesets(certifier, LAG_NOTIFICATION_THRESHOLD + 1)
    origin = cluster.replicas[0]
    cluster._on_local_commit(origin)
    assert 0 not in cluster._notify_pending
    assert 1 in cluster._notify_pending
    # The origin's piggyback application re-arms its subscription.
    origin.pull_updates()
    assert subscribed(certifier.subscriptions, 0)


def test_subscriptions_follow_membership():
    cluster = _make_cluster(replicas=3)
    subs = cluster.certifier.subscriptions
    assert all(subscribed(subs, rid) for rid in (0, 1, 2))
    cluster.start()
    crashed = cluster.crash_replica(2)
    assert not subscribed(subs, 2)
    assert crashed.replica_id == 2
    cluster.restore_replica(2)
    assert subscribed(subs, 2)
    new_id = cluster.add_replica()
    assert subscribed(subs, new_id)


def test_notifications_still_bound_lag_end_to_end():
    """A full run keeps every replica within the notification threshold of
    the certifier, exactly as the scan-based fan-out did."""
    cluster = _make_cluster(replicas=3)
    cluster.run(duration_s=30.0, warmup_s=5.0)
    certifier = cluster.certifier
    assert certifier.current_version > 0
    assert certifier.stats.notifications_sent >= 0
    for replica in cluster.replicas.values():
        assert replica.lag <= LAG_NOTIFICATION_THRESHOLD + \
            MAX_CERTIFICATION_BATCH
