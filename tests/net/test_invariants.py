"""Tests for the GSI consistency-invariant checker."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.net.invariants import ConsistencyChecker, InvariantReport, Violation
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.replication.replica import TransactionContext
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def make_cluster(replicas=3, network=True, **kwargs):
    config = ClusterConfig(
        num_replicas=replicas, replica_ram_bytes=mb(128),
        clients_per_replica=4, think_time_s=0.1, seed=2,
        log_truncation_interval_s=0.0,
        network=network,
        **kwargs)
    return ReplicatedCluster(workload=make_tiny_workload(),
                             balancer=LeastConnectionsBalancer(),
                             config=config, mix="balanced")


def run_quiesced(cluster, duration_s=20.0):
    """Run, then park the clients and drain so the audit sees a quiet cluster."""
    cluster.sim.schedule_at(duration_s - 5.0,
                            lambda: cluster.clients.set_active_clients(0))
    run = cluster.run(duration_s=duration_s, warmup_s=2.0)
    for replica in cluster.replicas.values():
        replica.pull_updates()
    return run


def test_clean_run_passes_every_invariant():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    report = checker.check()
    assert report.ok, report.summary()
    assert report.checked["log_entries"] > 0
    assert report.checked["ledger_entries"] > 0
    assert report.checked["replicas"] == 3
    report.raise_if_violated()          # must not raise


def test_checker_without_network_model_also_works():
    # The ledger rides the legacy direct-schedule path too; the checker is not
    # tied to channel mode.
    cluster = make_cluster(network=False)
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    report = checker.check()
    assert report.ok, report.summary()


def test_arm_is_idempotent_and_covers_existing_replicas():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    for replica in cluster.replicas.values():
        assert replica.apply_ledger is not None
    ledger = cluster.replicas[0].apply_ledger
    checker.instrument_replica(cluster.replicas[0])
    assert cluster.replicas[0].apply_ledger is ledger


def test_missing_ledger_is_reported():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    cluster.replicas[1].apply_ledger = None
    report = checker.check()
    assert any(v.invariant == "apply-exactly-once"
               and "no apply ledger" in v.detail for v in report.violations)


def test_double_delivery_is_detected():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    replica = cluster.replicas[0]
    # Tamper: claim some foreign committed writeset arrived twice.
    for version, count in replica.apply_ledger.items():
        if count == 1:
            replica.apply_ledger[version] = 2
            break
    report = checker.check()
    assert any(v.invariant == "apply-exactly-once" and "delivered 2 times" in v.detail
               for v in report.violations)


def test_lost_delivery_is_detected():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    replica = cluster.replicas[0]
    removed = None
    for version, count in list(replica.apply_ledger.items()):
        if count == 1:
            removed = version
            del replica.apply_ledger[version]
            break
    assert removed is not None
    report = checker.check()
    assert any(v.invariant == "apply-exactly-once" and "never" in v.detail
               for v in report.violations)


def test_double_certification_is_detected():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    certifier = cluster.certifier
    # Tamper: append an existing log entry again, as a dedup miss would.
    certifier.log.append(certifier.log[-1])
    report = checker.check(expect_quiesced=False)
    assert any(v.invariant == "no-double-certify" for v in report.violations)
    # The duplicated version also breaks the dense total order.
    assert any(v.invariant == "log-total-order" for v in report.violations)


def test_replica_ahead_of_certifier_is_detected():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    replica = cluster.replicas[2]
    replica.applied_version = \
        cluster.certifier.current_version + 10
    report = checker.check(expect_quiesced=False)
    assert any(v.invariant == "replica-prefix" and "ahead" in v.detail
               for v in report.violations)


def test_unquiesced_cluster_is_flagged_only_when_expected():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    # Stop mid-run: in-flight work is legitimate for a live audit.
    cluster.start()
    cluster.sim.run_until(10.0)
    live = checker.check(expect_quiesced=False)
    assert all(v.invariant != "in-flight-resolved" for v in live.violations)
    strict = checker.check(expect_quiesced=True)
    assert any(v.invariant == "in-flight-resolved" for v in strict.violations)


def test_leftover_live_context_on_retired_replica_is_reported():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run_quiesced(cluster)
    cluster.remove_replica(2)               # quiet, so it retires at once
    assert 2 in cluster.retired
    assert checker.check().ok
    retired = cluster.built_replicas[2]
    leftover = TransactionContext(retired, cluster.workload().type("Read"),
                                  0.0, lambda committed: None)
    retired._live[leftover] = None
    report = checker.check()
    assert any(v.invariant == "in-flight-resolved" and v.replica_id == 2
               and "still live" in v.detail for v in report.violations)


def test_violation_and_report_formatting():
    v = Violation("log-total-order", "broken", replica_id=3)
    assert "replica 3" in str(v)
    report = InvariantReport(violations=[v])
    assert not report.ok
    assert "1 invariant violation" in report.summary()
    with pytest.raises(AssertionError):
        report.raise_if_violated()
    clean = InvariantReport(checked={"log_entries": 5})
    assert clean.ok
    assert "log_entries=5" in clean.summary()
