"""Tests for replica recovery and certifier fail-over."""

import pytest

from repro.replication import certifier as certifier_module
from repro.replication.certifier import Certifier
from repro.sim.simulator import Simulator
from repro.storage.engine import WriteItem, WriteSet

from tests.conftest import drain
from tests.replication.test_replica import make_replica


def ws(table, key):
    return WriteSet(transaction_type="T",
                    items=(WriteItem(relation=table, keys=(key,), pages_dirtied=1),))


def test_replicated_log_mirrors_commits_and_fails_over():
    cert = Certifier(backups=2)
    for i in range(5):
        cert.certify(ws("a", i), snapshot_version=i)
    assert cert.current_version == 5
    dead_log = cert.log
    promoted_log = cert.backups[0].log
    cert.fail_over()
    assert cert.log is promoted_log
    assert all(backup.log is not dead_log for backup in cert.backups)
    assert cert.current_version == 5


def test_replicated_log_serves_batched_round_trips():
    cert = Certifier(backups=2)
    cert.certify(ws("a", 0), snapshot_version=0)
    results, piggyback = cert.certify_batch(
        [(ws("a", 1), 1), (ws("a", 2), 1)], since_version=0)
    assert [r.version for r in results] == [2, 3]
    assert [e.version for e in piggyback] == [1, 2, 3]
    # Batched commits are mirrored like single ones: fail-over loses nothing.
    cert.fail_over()
    assert cert.current_version == 3
    assert cert.log_is_total_order()


def test_replicated_log_mirrors_only_the_commits_of_a_mixed_batch():
    cert = Certifier(backups=2)
    cert.certify(ws("a", 0), snapshot_version=0)                       # v1
    # The middle request missed v1 and writes its key: it must abort, and
    # no backup may replay it.
    results, _ = cert.certify_batch(
        [(ws("a", 1), 1), (ws("a", 0), 0), (ws("a", 2), 1)], since_version=1)
    assert [r.committed for r in results] == [True, False, True]
    leader_log = cert.writesets_since(0)
    assert [e.version for e in leader_log] == [1, 2, 3]
    for backup in cert.backups:
        backup_log = backup.writesets_since(0)
        assert [e.version for e in backup_log] == [1, 2, 3]
        assert all(mine.writeset is theirs.writeset
                   for mine, theirs in zip(backup_log, leader_log))
    cert.fail_over()
    # The promoted backup and the remaining one still agree.
    results, _ = cert.certify_batch([(ws("a", 0), 3), (ws("a", 3), 3)], since_version=3)
    assert [r.version for r in results] == [4, 5]
    assert cert.backups[0].current_version == 5


def test_replicated_log_raises_when_a_backup_diverges():
    cert = Certifier(backups=1)
    cert.backups[0].certify(ws("a", 9), snapshot_version=0)   # behind the leader's back
    with pytest.raises(RuntimeError, match="diverged"):
        cert.certify(ws("a", 9), snapshot_version=0)


def test_fail_over_without_backups_raises():
    cert = Certifier(backups=0)
    with pytest.raises(RuntimeError):
        cert.fail_over()


def test_fail_over_drops_the_dead_leader_by_default():
    cert = Certifier(backups=2)
    dead_log = cert.log
    promoted_log = cert.backups[0].log
    cert.fail_over()
    # A crashed leader cannot serve as a backup: the group shrinks.
    assert cert.log is promoted_log
    assert all(backup.log is not dead_log for backup in cert.backups)
    assert len(cert.backups) == 1


def test_fail_over_keeps_the_service_stats(monkeypatch):
    # A fail-over swaps the crashed leader's log for a backup's; the stats
    # are the certification service's and must not be replaced by the
    # backup's (which counted the mirrored batches, not the real traffic).
    monkeypatch.setattr(certifier_module, "LAG_NOTIFICATION_THRESHOLD", 3)
    cert = Certifier(backups=2)
    for i in range(4):
        cert.certify(ws("a", i), snapshot_version=i)
    cert.certify_batch([(ws("a", 5), 4), (ws("a", 0), 0)], since_version=0)
    cert.stats.notifications_sent += 1
    before = vars(cert.stats).copy()
    assert before["aborts"] == 1
    cert.fail_over()
    assert vars(cert.stats) == before
    assert len(cert.backups) == 1


def test_certification_continues_after_leader_crash():
    cert = Certifier(backups=2)
    for i in range(4):
        cert.certify(ws("a", i), snapshot_version=i)
    cert.fail_over()
    result = cert.certify(ws("a", 99), snapshot_version=4)
    assert result.committed
    assert cert.current_version == 5
    assert cert.log_is_total_order()
    # The promoted log serves propagation for lagging replicas.
    assert [e.version for e in cert.writesets_since(2)] == [3, 4, 5]


def test_fail_over_then_truncate_keeps_backups_in_step():
    cert = Certifier(backups=2)
    for i in range(6):
        cert.certify(ws("a", i), snapshot_version=i)
    cert.fail_over()
    assert cert.truncate(oldest_needed_version=4) == 4
    backup = cert.backups[0]
    assert backup.oldest_available_version == cert.oldest_available_version == 5
    assert [e.version for e in backup.writesets_since(4)] == [5, 6]


def test_recover_replays_missed_writesets():
    sim = Simulator()
    certifier = Certifier()
    _, _, workload, origin = make_replica(0, sim, certifier)
    _, _, _, crashed = make_replica(1, sim, certifier)
    for _ in range(3):
        origin.submit(workload.type("Write"), submitted_at=0.0, on_done=lambda ok: None)
    drain(sim)
    # The crashed replica lost its cache and was behind.
    assert crashed.lag == 3
    assert len(certifier.writesets_since(crashed.applied_version)) == 3
    replayed = crashed.recover()
    assert replayed == 3
    assert crashed.lag == 0


def test_recovery_clears_filters_and_cache():
    sim = Simulator()
    certifier = Certifier()
    _, _, workload, replica = make_replica(0, sim, certifier)
    replica.set_filter({"users"})
    replica.recover()
    assert replica.filter_tables is None
    assert replica.engine.buffer_pool.resident_bytes == 0.0


def test_online_recovery_under_concurrent_load():
    """A replica crashed mid-run replays exactly the writesets it missed,
    rejoins with filters cleared, and no certified update is lost."""
    from repro.core.baselines import LeastConnectionsBalancer
    from repro.replication.cluster import ClusterConfig, ReplicatedCluster
    from repro.storage.pages import mb
    from tests.conftest import make_tiny_workload

    cluster = ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=3, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05, seed=13),
        mix="balanced")
    cluster.start()
    cluster.sim.run_until(8.0)

    replica = cluster.crash_replica(1)
    replica_applied_at_crash = replica.applied_version
    replica.set_filter({"users"})          # stale filter left behind
    cluster.sim.run_until(20.0)                  # traffic continues while down

    version_before_restore = cluster.certifier.current_version
    missed = version_before_restore - replica_applied_at_crash
    assert missed > 0, "no updates committed while the replica was down"

    replayed = cluster.restore_replica(1)
    assert replayed == cluster.replicas[1].applied_version - replica_applied_at_crash
    assert replayed >= missed                    # exactly the gap (plus any
    assert replica.filter_tables is None   # commits in the same tick)

    # No certified update is lost anywhere: after a final pull every live
    # replica holds the certifier's full history.
    cluster.sim.run_until(30.0)
    for live in cluster.replicas.values():
        live.pull_updates()
        assert live.applied_version == cluster.certifier.current_version
    assert cluster.certifier.log_is_total_order()


def test_recovery_replays_only_the_retained_suffix_after_truncation():
    sim, cert, workload, replica = make_replica()
    for i in range(10):
        cert.certify(ws("users", i), snapshot_version=i)
    cert.truncate(oldest_needed_version=6)

    # A cold joiner (applied_version=0) cannot replay versions 1..6 from the
    # log (truncate(6) dropped them); recovery restores that prefix from
    # another copy (modelled as a cursor jump) and replays the retained
    # suffix 7..10 through the normal path.
    replayed = replica.recover()
    assert replayed == 4
    assert replica.applied_version == 10
