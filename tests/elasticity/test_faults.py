"""Tests for the fault injector: crashes, restarts, certifier fail-over."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.elasticity.faults import FaultInjector
from repro.replication.certifier import LAG_NOTIFICATION_THRESHOLD
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def records_of_kind(injector, kind):
    """The injector's fault records of one kind, in order."""
    return [record for record in injector.records if record.kind == kind]


def make_cluster(replicas=3, backups=0):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05,
                             certifier_backups=backups, seed=5),
        mix="balanced")


def test_scheduled_crash_and_restart_recover_online():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_crash(5.0, replica_id=1, downtime_s=5.0)
    cluster.run(duration_s=20.0)
    kinds = [r.kind for r in injector.records]
    assert kinds == ["crash", "restart"]
    assert injector.records[0].time == pytest.approx(5.0)
    assert injector.records[1].time == pytest.approx(10.0)
    assert 1 in cluster.replica_ids()
    assert cluster.replicas[1].lag <= LAG_NOTIFICATION_THRESHOLD


def test_random_victim_is_chosen_at_fire_time():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_crash(5.0, downtime_s=2.0)
    cluster.run(duration_s=15.0)
    crash = records_of_kind(injector, "crash")[0]
    assert crash.replica_id in (0, 1, 2)


def test_crash_skipped_when_only_one_replica_remains():
    cluster = make_cluster(replicas=1)
    injector = FaultInjector(cluster)
    injector.schedule_crash(2.0)
    cluster.run(duration_s=5.0)
    assert records_of_kind(injector, "skipped")
    assert not records_of_kind(injector, "crash")
    assert cluster.replica_ids() == [0]


def test_certifier_failover_is_transparent_to_the_cluster():
    cluster = make_cluster(backups=2)
    injector = FaultInjector(cluster)
    injector.schedule_certifier_failover(10.0)
    dead_log = cluster.certifier.log
    promoted_log = cluster.certifier.backups[0].log
    result = cluster.run(duration_s=30.0)
    failover = records_of_kind(injector, "certifier-failover")[0]
    assert "leader crash" in failover.detail
    assert cluster.certifier.log is promoted_log
    assert all(backup.log is not dead_log for backup in cluster.certifier.backups)
    assert len(cluster.certifier.backups) == 1         # dead leader dropped
    # Certification kept working across the fail-over.
    assert cluster.certifier.current_version > 0
    assert cluster.certifier.log_is_total_order()
    for replica in cluster.replicas.values():
        replica.pull_updates()
        assert replica.applied_version == cluster.certifier.current_version
    assert result.metrics.completed > 0


def test_failover_requires_a_replicated_certifier():
    cluster = make_cluster(backups=0)
    injector = FaultInjector(cluster)
    with pytest.raises(RuntimeError):
        injector.schedule_certifier_failover(5.0)


# ----------------------------------------------------------------------
# Network faults (partitions, flaky links) and restart skip-safety
# ----------------------------------------------------------------------
def make_networked_cluster(replicas=3, backups=0):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05,
                             certifier_backups=backups, seed=5,
                             network=True),
        mix="balanced")


def test_restart_is_skip_safe_when_target_was_already_restored():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    # Crash with a long downtime, but somebody restores the replica first.
    injector.schedule_crash(5.0, replica_id=1, downtime_s=10.0)
    cluster.sim.schedule_at(8.0, lambda: cluster.restore_replica(1))
    cluster.run(duration_s=20.0)
    kinds = [r.kind for r in injector.records]
    assert kinds == ["crash", "skipped"]
    assert "no longer crashed" in injector.records[-1].detail
    assert 1 in cluster.replica_ids()


def test_scheduled_partition_heals_itself_after_duration():
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_partition(5.0, replica_id=1, duration_s=4.0)
    cluster.run(duration_s=20.0)
    kinds = [r.kind for r in injector.records]
    assert kinds == ["partition", "heal"]
    assert injector.records[0].replica_id == 1
    assert injector.records[1].time == pytest.approx(9.0)
    assert cluster.network.partitioned_ids() == ()
    # After healing, the replica caught back up.
    cluster.replicas[1].pull_updates()
    assert cluster.replicas[1].applied_version == \
        cluster.certifier.current_version


def test_network_faults_require_the_network_model():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    with pytest.raises(RuntimeError):
        injector.schedule_partition(5.0)
    with pytest.raises(RuntimeError):
        injector.schedule_heal(5.0)
    with pytest.raises(RuntimeError):
        injector.schedule_flaky_link(5.0, 2.0)


def test_flaky_link_window_degrades_then_restores():
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_flaky_link(5.0, 6.0, replica_id=0,
                                 drop_probability=0.4, jitter_s=0.002)
    cluster.run(duration_s=20.0)
    kinds = [r.kind for r in injector.records]
    assert kinds == ["flaky-link", "link-restored"]
    assert "drop=0.400" in injector.records[0].detail
    assert injector.records[1].time == pytest.approx(11.0)
    channel = cluster.network.link(0)
    assert channel.config.is_perfect                    # the link is perfect again
    assert channel.stats.dropped > 0                    # the window did bite


def test_overlapping_flaky_windows_do_not_cut_each_other_short():
    # Two windows on one link: the first window's end must not restore the
    # link while the second window is still running.
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_flaky_link(1.0, 10.0, replica_id=0, drop_probability=0.4)
    injector.schedule_flaky_link(2.0, 10.0, replica_id=0, drop_probability=0.4)
    cluster.start()
    cluster.sim.run_until(11.5)
    assert cluster.network.link(0).config.drop_probability == 0.4
    cluster.sim.run_until(13.0)
    assert cluster.network.link(0).config.is_perfect
    assert [(r.kind, r.time) for r in injector.records] == [
        ("flaky-link", 1.0), ("flaky-link", 2.0), ("skipped", 11.0),
        ("link-restored", 12.0)]


def test_nested_flaky_window_returns_the_link_to_the_outer_window():
    # A short window inside a longer one: its end puts the outer window's
    # config back instead of restoring the link to perfect.
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_flaky_link(1.0, 20.0, replica_id=0, drop_probability=0.4)
    injector.schedule_flaky_link(2.0, 5.0, replica_id=0, drop_probability=0.2)
    cluster.start()
    cluster.sim.run_until(10.0)
    assert cluster.network.link(0).config.drop_probability == 0.4
    cluster.sim.run_until(21.5)
    assert cluster.network.link(0).config.is_perfect
    assert [(r.kind, r.time) for r in injector.records] == [
        ("flaky-link", 1.0), ("flaky-link", 2.0), ("link-restored", 7.0),
        ("link-restored", 21.0)]


def test_heal_all_records_every_partitioned_link():
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_partition(4.0, replica_id=0)
    injector.schedule_partition(4.0, replica_id=2)
    injector.schedule_heal(8.0)
    cluster.run(duration_s=12.0)
    heal = records_of_kind(injector, "heal")[-1]
    assert "[0, 2]" in heal.detail
    assert cluster.network.partitioned_ids() == ()


def test_notifications_resume_after_crash_and_restart():
    # Regression: a crash used to leave the replica's entry in the
    # cluster's one-in-flight notification dedup set, so after the restart
    # no lag notification was ever delivered again and the replica only
    # caught up through slow periodic pulls.
    cluster = make_networked_cluster()
    injector = FaultInjector(cluster)
    injector.schedule_crash(6.0, replica_id=1, downtime_s=4.0)
    cluster.run(duration_s=30.0)
    assert 1 not in cluster._notify_pending or not cluster._notify_pending
    replica = cluster.replicas[1]
    # The recovered replica re-subscribed at its recovered cursor and kept
    # receiving commit notifications: its lag stays within the threshold.
    assert replica.lag <= LAG_NOTIFICATION_THRESHOLD


def test_dropped_notification_releases_the_dedup_slot():
    # A notification lost on the wire must clear the one-in-flight marker
    # synchronously, or the replica would never be notified again.
    cluster = make_networked_cluster()
    cluster.start()
    cluster.sim.run_until(5.0)
    cluster.network.partition(1)        # notifications to 1 now drop
    cluster.sim.run_until(10.0)
    assert 1 not in cluster._notify_pending
    cluster.network.heal(1)
    cluster.sim.run_until(20.0)
    cluster.replicas[1].pull_updates()
    assert cluster.replicas[1].applied_version == \
        cluster.certifier.current_version
