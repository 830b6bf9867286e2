"""The abort-reason taxonomy: certification vs crash vs drain failures.

``metrics.aborts`` keeps its golden-pinned meaning (client-visible
certification aborts); ``metrics.abort_reasons`` breaks everything down:
conflicts that were retried, retries that exhausted, crash-in-flight
failures and drain-deadline stragglers.
"""

from repro.core.malb import MemoryAwareLoadBalancer
from repro.replication import cluster as cluster_module
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.sim.metrics import MetricsCollector
from repro.storage.engine import EngineConfig
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def _cluster(seed=3, clients=4, think=0.05, engine=None, replicas=3):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=MemoryAwareLoadBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(128),
                             clients_per_replica=clients, think_time_s=think,
                             seed=seed, engine=engine or EngineConfig()),
        mix="balanced",
    )


# ----------------------------------------------------------------------
# Collector unit semantics
# ----------------------------------------------------------------------
def test_record_abort_bumps_both_counters():
    metrics = MetricsCollector()
    metrics.record_abort()
    metrics.record_abort("retry-exhausted")
    assert metrics.aborts == 2
    assert metrics.abort_reasons == {"certification-conflict": 1,
                                     "retry-exhausted": 1}


def test_record_failure_stays_out_of_aborts():
    metrics = MetricsCollector()
    metrics.record_failure("crash-in-flight", 3)
    metrics.record_failure("drain-straggler")
    metrics.record_failure("crash-in-flight", 0)       # no-op
    assert metrics.aborts == 0
    assert metrics.abort_reasons == {"crash-in-flight": 3,
                                     "drain-straggler": 1}


# ----------------------------------------------------------------------
# Cluster-level attribution
# ----------------------------------------------------------------------
def test_certification_conflicts_are_classified():
    """A single-key-per-page key space forces conflicts; every cluster-level
    abort must carry a certification reason, and the reasons that bump
    ``aborts`` (conflict retried + retry exhausted) must sum to it."""
    cluster = _cluster(seed=7, clients=10, think=0.02, replicas=4,
                       engine=EngineConfig(key_space_per_page=1))
    cluster.start()
    cluster.sim.run_until(40.0)
    reasons = cluster.metrics.abort_reasons
    assert reasons.get("certification-conflict", 0) > 0
    certification_total = (reasons.get("certification-conflict", 0)
                           + reasons.get("retry-exhausted", 0))
    assert certification_total == cluster.metrics.aborts


def test_crash_in_flight_is_classified():
    cluster = _cluster(seed=11)
    cluster.start()
    cluster.sim.run_until(10.0)
    victim = cluster.replica_ids()[0]
    inflight_before = len(cluster.replicas[victim]._live)
    cluster.crash_replica(victim)
    assert cluster.metrics.abort_reasons.get("crash-in-flight", 0) == \
        inflight_before
    # Crash failures are not certification aborts.
    assert cluster.metrics.aborts == \
        cluster.metrics.abort_reasons.get("certification-conflict", 0) \
        + cluster.metrics.abort_reasons.get("retry-exhausted", 0)


def test_drain_stragglers_are_classified(monkeypatch):
    cluster = _cluster(seed=13, clients=10, think=0.02)
    # Force the drain deadline to fire at the very first poll, before the
    # in-flight transactions can complete.
    monkeypatch.setattr(cluster_module, "DRAIN_TIMEOUT_S", 1e-6)
    monkeypatch.setattr(cluster_module, "DRAIN_POLL_INTERVAL_S", 1e-6)
    cluster.start()
    cluster.sim.run_until(10.0)
    replica = max(cluster.replicas.values(),
                  key=lambda candidate: len(candidate._live))
    victim = replica.replica_id
    stragglers = len(replica._live)
    assert stragglers > 0, "scenario must have work in flight"
    cluster.remove_replica(victim)
    cluster.sim.run_until(10.1)
    assert cluster.metrics.abort_reasons.get("drain-straggler", 0) == stragglers
    assert victim in cluster.retired
    assert not replica._live
