"""Integration tests for the replicated cluster."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer, RoundRobinBalancer
from repro.core.malb import MemoryAwareLoadBalancer
from repro.experiments.runner import ExperimentConfig, make_cluster_config
from repro.replication import replica as replica_module
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.replication.replica import TransactionContext
from repro.storage.engine import WriteItem, WriteSet
from repro.storage.pages import mb
from repro.workloads.generator import WorkloadSchedule

from tests.conftest import count_completions, drain, make_tiny_workload, update_fraction


def make_cluster(balancer=None, replicas=4, mix="balanced", **kwargs):
    config = ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(128),
                           clients_per_replica=4, think_time_s=0.1, seed=2, **kwargs)
    return ReplicatedCluster(workload=make_tiny_workload(),
                             balancer=balancer or LeastConnectionsBalancer(),
                             config=config, mix=mix)


def test_cluster_runs_and_produces_metrics():
    cluster = make_cluster()
    result = cluster.run(duration_s=30.0, warmup_s=5.0)
    assert result.throughput_tps > 0
    assert result.metrics.completed > 50
    assert result.response_time_s > 0
    assert result.policy == "LeastConnections"


def test_all_replicas_receive_work_under_least_connections():
    cluster = make_cluster(replicas=4)
    completions = count_completions(cluster)
    cluster.run(duration_s=30.0, warmup_s=5.0)
    assert set(completions.by_replica) == {0, 1, 2, 3}


def test_updates_propagate_to_all_replicas():
    cluster = make_cluster(replicas=3)
    cluster.run(duration_s=30.0, warmup_s=5.0)
    version = cluster.certifier.current_version
    assert version > 0
    for replica in cluster.replicas.values():
        assert version - replica.applied_version <= 30


def test_update_fraction_matches_mix():
    cluster = make_cluster()
    result = cluster.run(duration_s=40.0, warmup_s=5.0)
    assert update_fraction(result.metrics) == pytest.approx(0.30, abs=0.06)


def test_cluster_requires_mix_or_schedule():
    with pytest.raises(ValueError):
        ReplicatedCluster(workload=make_tiny_workload(), balancer=RoundRobinBalancer(),
                          config=ClusterConfig(num_replicas=1, replica_ram_bytes=mb(128)))


def test_schedule_switches_mix_during_run():
    cluster = ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=2, replica_ram_bytes=mb(128),
                             clients_per_replica=4, think_time_s=0.1),
        schedule=WorkloadSchedule.alternating(["readonly", "balanced"], 20.0),
    )
    # The read-only phase commits no update; the balanced phase does.
    cluster.run(duration_s=19.0, warmup_s=0.0)
    assert cluster.metrics.updates_completed == 0
    cluster.run(duration_s=40.0, warmup_s=0.0)
    assert cluster.metrics.updates_completed > 0


def test_standalone_config_is_single_replica():
    config = make_cluster_config(ExperimentConfig(name="single", policy="Single"))
    assert config.num_replicas == 1
    assert config.replica_ram_bytes == mb(1024)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_replicas=0)
    with pytest.raises(ValueError):
        ClusterConfig(replica_ram_bytes=mb(10))
    with pytest.raises(ValueError):
        ClusterConfig(clients_per_replica=0)
    with pytest.raises(ValueError):
        make_cluster().run(duration_s=10.0, warmup_s=20.0)


def test_malb_cluster_installs_view_correctly():
    malb = MemoryAwareLoadBalancer()
    cluster = make_cluster(balancer=malb)
    assert cluster.replica_memory_bytes() == mb(128) - mb(70)
    assert malb.view is cluster
    result = cluster.run(duration_s=20.0, warmup_s=5.0)
    assert result.groupings


def test_certifier_log_is_truncated_periodically():
    cluster = make_cluster(replicas=3)
    cluster.run(duration_s=120.0, warmup_s=5.0)
    cert = cluster.certifier
    assert cert.current_version > 0
    # The periodic truncation kept the retained log to a recent suffix
    # instead of every writeset ever certified.
    assert cert.oldest_available_version > 1
    assert len(cert.log) < cert.current_version
    # Every live replica is still above the truncation horizon, so update
    # propagation never needs recovery.
    for replica in cluster.replicas.values():
        assert replica.applied_version >= cert.oldest_available_version - 1
        replica.pull_updates()


def test_truncation_can_be_disabled():
    cluster = make_cluster(replicas=2, log_truncation_interval_s=0.0)
    cluster.run(duration_s=40.0, warmup_s=5.0)
    cert = cluster.certifier
    assert cert.oldest_available_version == 1
    assert len(cert.log) == cert.current_version


def test_truncation_floor_respects_crashed_replicas():
    cluster = make_cluster(replicas=3)
    cluster.start()
    cluster.sim.run_until(20.0)
    victim = cluster.replica_ids()[0]
    cluster.crash_replica(victim)
    assert cluster.is_crashed(victim)
    applied_at_crash = cluster.built_replicas[victim].applied_version
    cluster.sim.run_until(120.0)
    # The dead replica's applied version holds the truncation floor down, so
    # it can still be restored from the log alone.
    assert cluster.certifier.oldest_available_version - 1 <= applied_at_crash
    replayed = cluster.restore_replica(victim)
    assert replayed >= 0
    assert cluster.replicas[victim].applied_version == \
        cluster.certifier.current_version


def commit_remote_writesets(cluster, count):
    """Certify ``count`` writesets from outside the cluster and let every
    in-service replica apply them; returns the new certifier version."""
    certifier = cluster.certifier
    for _ in range(count):
        key = 10 ** 6 + certifier.current_version     # outside every key space
        writeset = WriteSet("remote", (WriteItem("orders", (key,), 1),),
                            origin_replica=99)
        assert certifier.certify(writeset, certifier.current_version).committed
    for replica in cluster.replicas.values():
        replica.pull_updates()
    return certifier.current_version


def submit_to(cluster, replica_id, name, on_done):
    """Dispatch one transaction to a chosen replica, as ``_submit`` does."""
    cluster.routing.on_dispatch(replica_id)
    cluster.replicas[replica_id].submit(cluster.workload().type(name),
                                        cluster.sim.now, on_done)


def test_started_transaction_holds_truncation_floor_at_its_snapshot():
    cluster = make_cluster(replicas=2)
    reader = cluster.replicas[1]
    snapshot = commit_remote_writesets(cluster, 2)
    done = []
    submit_to(cluster, 1, "Write", done.append)
    (ctx,) = reader._live
    assert ctx.state != TransactionContext.ADMITTED
    assert ctx.snapshot == reader.applied_version == snapshot == 2
    # The replica applies three more commits while the transaction runs;
    # its snapshot, not the replica's cursor, is the floor.
    assert commit_remote_writesets(cluster, 3) == 5
    assert reader.applied_version == 5
    assert cluster.certifier_truncation_floor() == snapshot
    assert cluster.truncate_certifier_log() == snapshot
    assert cluster.certifier.oldest_available_version == snapshot + 1
    drain(cluster.sim)
    assert done == [True] and not reader._live
    # Finished, the transaction no longer holds the floor.
    assert cluster.certifier_truncation_floor() == \
        min(replica.applied_version for replica in cluster.replicas.values()) == 5


def test_admission_queued_context_does_not_hold_truncation_floor(monkeypatch):
    monkeypatch.setattr(replica_module, "MAX_CONCURRENCY", 1)
    cluster = make_cluster(replicas=2)
    reader = cluster.replicas[1]
    commit_remote_writesets(cluster, 2)
    done = []
    submit_to(cluster, 1, "Read", done.append)
    submit_to(cluster, 1, "Read", done.append)
    started, queued = reader._live
    assert list(reader.waiting) == [queued]
    assert queued.state == TransactionContext.ADMITTED
    commit_remote_writesets(cluster, 3)
    # The queued context's unset snapshot (0) does not pin the log.
    assert cluster.certifier_truncation_floor() == started.snapshot == 2
    drain(cluster.sim)
    assert done == [True, True]
    # It read the snapshot current when it finally started.
    assert queued.snapshot == 5
    assert cluster.certifier_truncation_floor() == 5


def test_crash_releases_the_crashed_replicas_snapshots():
    cluster = make_cluster(replicas=2)
    victim = cluster.replicas[1]
    commit_remote_writesets(cluster, 2)
    done = []
    submit_to(cluster, 1, "Write", done.append)
    commit_remote_writesets(cluster, 3)
    assert cluster.certifier_truncation_floor() == 2
    cluster.crash_replica(1)
    assert done == [False] and not victim._live
    # The survivor moves on; the dead replica's cursor, not its failed
    # transaction's snapshot, now holds the floor.
    commit_remote_writesets(cluster, 2)
    assert cluster.replicas[0].applied_version == 7
    assert cluster.certifier_truncation_floor() == victim.applied_version == 5


def test_attach_covers_joiners_for_every_observer():
    """One attach seam: a replica added after the hub, the dsan session and
    the consistency checker were attached is instrumented by all three."""
    from repro.analysis.dsan import DsanSession
    from repro.experiments.configs import golden_midsize_config
    from repro.experiments.runner import build_cluster
    from repro.net.invariants import ConsistencyChecker
    from repro.obs import ObservabilityHub

    cluster = build_cluster(golden_midsize_config())
    hub = ObservabilityHub()
    session = DsanSession()
    cluster.attach(hub)
    cluster.attach(session)
    checker = ConsistencyChecker(cluster)
    assert cluster.observers == [hub, session, checker]
    assert cluster.observability is hub
    cluster.start()
    cluster.sim.run_until(5.0)

    joiner = cluster.replicas[cluster.add_replica()]
    assert joiner.obs is hub
    assert joiner.apply_ledger is not None
    label = "engine[%d]" % joiner.replica_id
    assert getattr(joiner.engine.rng, "_dsan_label", None) == label
    cluster.sim.run_until(10.0)
    assert label in session.fingerprint()["rng"]
