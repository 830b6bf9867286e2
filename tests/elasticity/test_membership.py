"""Tests for live cluster membership: join, crash, restore, graceful leave."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.core.grouping import GroupingMethod
from repro.core.malb import MemoryAwareLoadBalancer
from repro.replication.certifier import LAG_NOTIFICATION_THRESHOLD
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.storage.pages import mb

from tests.conftest import (RequestCounter, count_completions, make_tiny_workload,
                            verify_availability)


def make_cluster(balancer=None, replicas=3, backups=0, seed=7):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=balancer or LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05,
                             certifier_backups=backups, seed=seed),
        mix="balanced")


def events_of_kind(cluster, kind):
    return [event for event in cluster.membership_events if event.kind == kind]


def test_add_replica_joins_cold_and_catches_up():
    cluster = make_cluster()
    cluster.start()
    cluster.sim.run_until(10.0)
    version_at_join = cluster.certifier.current_version
    assert version_at_join > 0
    new_id = cluster.add_replica()
    assert new_id == 3
    assert new_id in cluster.replica_ids()
    replica = cluster.replicas[new_id]
    # The newcomer replayed the whole log and is up to date...
    assert replica.applied_version >= version_at_join
    # ...and paid for it: the replay was charged to its resources.
    assert (replica.resources.cpu.busy_seconds_until(float("inf"))
            + replica.resources.disk.busy_seconds_until(float("inf"))) > 0
    joins = events_of_kind(cluster, "join")
    assert len(joins) == 1 and joins[0].replica_id == new_id


def test_added_replica_serves_traffic_and_pulls_updates():
    cluster = make_cluster()
    completions = count_completions(cluster)
    cluster.start()
    cluster.sim.run_until(10.0)
    new_id = cluster.add_replica()
    cluster.sim.run_until(30.0)
    assert completions.by_replica.get(new_id, 0) > 0
    assert cluster.replicas[new_id].lag <= LAG_NOTIFICATION_THRESHOLD


def test_crash_fails_inflight_and_clients_reissue_elsewhere():
    cluster = make_cluster()
    completions = count_completions(cluster)
    requests = RequestCounter(cluster)
    cluster.start()
    cluster.sim.run_until(10.0)
    completed_before = cluster.metrics.completed
    cluster.crash_replica(0)
    assert 0 not in cluster.replica_ids()
    crash_events = events_of_kind(cluster, "crash")
    assert len(crash_events) == 1
    # The clients keep running on the survivors.
    by_replica_before = dict(completions.by_replica)
    cluster.sim.run_until(30.0)
    assert cluster.metrics.completed > completed_before
    by_replica_after = dict(completions.by_replica)
    # The corpse records no further completions; the survivors do.
    assert by_replica_after.get(0, 0) == by_replica_before.get(0, 0)
    assert sum(by_replica_after.get(rid, 0) for rid in (1, 2)) > \
        sum(by_replica_before.get(rid, 0) for rid in (1, 2))
    assert requests.outstanding <= cluster.config.total_clients


def test_crashed_replica_is_not_dispatchable_and_pulls_nothing():
    cluster = make_cluster()
    cluster.start()
    cluster.sim.run_until(5.0)
    replica = cluster.crash_replica(1)
    version = replica.applied_version
    cluster.sim.run_until(20.0)
    assert replica.applied_version == version      # no pulls while down
    assert not replica.alive


def test_restore_replays_exactly_the_missed_writesets():
    cluster = make_cluster()
    completions = count_completions(cluster)
    cluster.start()
    cluster.sim.run_until(5.0)
    replica = cluster.crash_replica(1)
    applied_at_crash = replica.applied_version
    cluster.sim.run_until(20.0)
    missed = cluster.certifier.current_version - applied_at_crash
    assert missed > 0
    replayed = cluster.restore_replica(1)
    assert replayed == missed
    assert replica.alive
    assert replica.applied_version == cluster.certifier.current_version
    assert 1 in cluster.replica_ids()
    # Back in rotation: it completes transactions again.
    completed = completions.by_replica.get(1, 0)
    cluster.sim.run_until(35.0)
    assert completions.by_replica.get(1, 0) > completed


def test_graceful_leave_drains_before_retiring():
    cluster = make_cluster()
    cluster.start()
    cluster.sim.run_until(10.0)
    cluster.remove_replica(2)
    assert 2 not in cluster.replica_ids()
    cluster.sim.run_until(30.0)
    retired = events_of_kind(cluster, "retired")
    assert len(retired) == 1 and retired[0].replica_id == 2
    # Drained, not crashed: the replica never lost a transaction.
    assert 2 in cluster.retired
    assert not events_of_kind(cluster, "crash")
    assert cluster.routing.outstanding.get(2, 0) == 0


def test_cannot_crash_or_remove_the_last_replica():
    cluster = make_cluster(replicas=1)
    with pytest.raises(RuntimeError):
        cluster.crash_replica(0)
    with pytest.raises(RuntimeError):
        cluster.remove_replica(0)


def test_registry_tracks_every_lifecycle_state():
    """``built_replicas`` keeps every replica the cluster built; only a
    crashed, unretired replica can be restored."""
    cluster = make_cluster(replicas=3)
    cluster.start()
    cluster.sim.run_until(5.0)
    new_id = cluster.add_replica()
    cluster.crash_replica(0)
    cluster.remove_replica(1)
    cluster.sim.run_until(20.0)
    assert sorted(cluster.built_replicas) == [0, 1, 2, new_id]
    assert cluster.retired == {1}
    assert [r.replica_id for r in cluster.returnable_replicas()] == [0, 2, new_id]
    assert cluster.is_crashed(0)
    assert not cluster.is_crashed(1) and not cluster.is_crashed(2)
    for not_crashed in (1, 2, 99):
        with pytest.raises(KeyError):
            cluster.restore_replica(not_crashed)
    for not_in_service in (0, 1, 99):
        with pytest.raises(KeyError):
            cluster.crash_replica(not_in_service)
        with pytest.raises(KeyError):
            cluster.remove_replica(not_in_service)
    cluster.restore_replica(0)
    assert not cluster.is_crashed(0)
    assert 0 in cluster.replica_ids()


def test_malb_reconciles_assignment_on_churn():
    balancer = MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC)
    cluster = make_cluster(balancer=balancer, replicas=3)
    cluster.start()
    cluster.sim.run_until(10.0)
    new_id = cluster.add_replica()
    allocator = balancer.allocator
    assert new_id in allocator.replica_ids
    allocator.validate()
    cluster.crash_replica(0)
    assert 0 not in allocator.replica_ids
    allocator.validate()
    # Every group still has at least one replica (validate enforces it),
    # and dispatch keeps working for every type.
    cluster.sim.run_until(25.0)
    for name in make_tiny_workload().types:
        rid = balancer.dispatch(cluster.workload().types[name])
        assert rid in cluster.replica_ids()


def test_malb_replans_update_filtering_on_churn():
    balancer = MemoryAwareLoadBalancer(
        method=GroupingMethod.MALB_SC, update_filtering=True)
    balancer.FILTERING_STABILIZATION_S = 5.0
    balancer.REBALANCE_INTERVAL_S = 2.0
    cluster = make_cluster(balancer=balancer, replicas=4)
    cluster.start()
    cluster.sim.run_until(40.0)
    assert balancer.filter_plan is not None, "filtering never activated"
    plan_before = balancer.filter_plan
    cluster.crash_replica(0)
    assert balancer.filter_plan is not plan_before, "filter plan not recomputed"
    assert 0 not in balancer.filter_plan.tables_per_replica
    # The availability floor survives the crash.
    assert verify_availability(balancer.filter_plan, min_copies=2) == []
    # Proxies of live replicas carry the new plan.
    for rid, replica in cluster.replicas.items():
        assert replica.filter_tables == balancer.filter_plan.tables_for(rid)


def test_churn_purges_stale_replica_state():
    """After a replica fully leaves (crash or retirement), nothing about it
    may linger where routing or snapshots could read it: no monitor
    smoothing state, no published load sample, no outstanding counter, no
    live transaction.  Regression test for the stale-sample leak on churn."""
    cluster = make_cluster(replicas=4)
    cluster.start()
    cluster.sim.run_until(10.0)

    def assert_purged(rid):
        assert rid not in cluster.monitor._monitors
        assert rid not in cluster.routing.outstanding
        assert rid not in cluster.routing._samples
        assert rid not in cluster.routing._eff_cache
        assert rid not in cluster.replicas
        assert not cluster.built_replicas[rid]._live

    # Crash: in-flight work fails synchronously, then the purge runs.
    cluster.crash_replica(1)
    assert_purged(1)

    # Restore: the replica is fully re-registered and accumulates samples
    # again (the purge must not break re-activation).
    cluster.restore_replica(1)
    cluster.sim.run_until(20.0)
    assert 1 in cluster.routing.outstanding
    assert 1 in cluster.monitor._monitors
    assert 1 in cluster.routing._samples

    # Graceful leave: purge runs at retirement, after the drain resolves.
    cluster.remove_replica(2)
    cluster.sim.run_until(40.0)
    assert 2 in cluster.retired
    assert_purged(2)

    # A replica the monitor sampled keeps publishing for the survivors only.
    for rid in cluster.replica_ids():
        assert rid in cluster.monitor._monitors
        assert rid in cluster.routing._samples
