"""Accounting exactness of the incremental routing layer.

The :class:`~repro.core.routing.RoutingTable` is the single source of truth
for per-replica outstanding counts; everything the balancer decides rests on
it.  These tests pin down:

* the unit semantics (counters, membership cache, effective-load cache,
  deterministic tie-breaking);
* counter exactness against the cluster's in-flight registry under retries
  and aborts, crash-in-flight failures, and graceful drains;
* that MALB's routing decisions are byte-identical to the pre-RoutingTable
  implementation (PR 3), via a recorded decision-stream fingerprint
  (``golden_routing_decisions.json``); and
* that dispatch is deterministic across identical seeded runs even when
  replicas join and leave mid-run (stable tie-breaking by replica id).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.malb import MemoryAwareLoadBalancer
from repro.core.routing import QUEUE_PRESSURE_NORM, RoutingTable
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.sim.monitor import LoadSample
from repro.storage.engine import EngineConfig
from repro.storage.pages import mb

from tests.conftest import RequestCounter, make_tiny_workload

GOLDEN_PATH = Path(__file__).with_name("golden_routing_decisions.json")


# ----------------------------------------------------------------------
# Unit semantics
# ----------------------------------------------------------------------
def test_counters_track_dispatch_and_complete():
    table = RoutingTable()
    table.add_replica(0)
    table.add_replica(1)
    table.on_dispatch(0)
    table.on_dispatch(0)
    table.on_dispatch(1)
    table.on_complete(0)
    assert table.outstanding[0] == 1
    assert table.outstanding[1] == 1


def test_removed_replica_keeps_its_counter():
    """Drain/crash accounting reads the counter after the replica left."""
    table = RoutingTable()
    table.add_replica(0)
    table.add_replica(1)
    table.on_dispatch(1)
    table.remove_replica(1)
    assert table.replica_ids() == (0,)
    assert table.outstanding[1] == 1
    table.on_complete(1)
    assert table.outstanding[1] == 0


def test_membership_changes_bump_version_and_rebuild_cache():
    table = RoutingTable()
    before = table.version
    table.add_replica(3)
    table.add_replica(1)
    assert table.version > before
    assert table.replica_ids() == (1, 3)
    assert table.replica_id_set() == {1, 3}
    table.remove_replica(3)
    assert table.replica_ids() == (1,)


def test_least_loaded_breaks_ties_by_lowest_id_any_order():
    table = RoutingTable()
    for rid in (0, 1, 2, 3):
        table.add_replica(rid)
    table.outstanding.update({0: 2, 1: 1, 2: 1, 3: 5})
    # The tie between 1 and 2 resolves to the lower id whatever the
    # candidate order -- this is what keeps dispatch stable when membership
    # churn re-orders candidate lists.
    assert table.least_loaded([3, 2, 1, 0]) == 1
    assert table.least_loaded([1, 2]) == 1
    assert table.least_loaded((2, 1)) == 1
    with pytest.raises(ValueError):
        table.least_loaded([])


def test_effective_load_folds_pressure_and_caches():
    assert QUEUE_PRESSURE_NORM == 8
    table = RoutingTable()
    table.add_replica(0)
    sample = LoadSample(cpu=0.3, disk=0.6)
    table.publish_load(0, sample)
    # Below the norm: pressure <= 1.0 never overrides the sample.
    for _ in range(8):
        table.on_dispatch(0)
    first = table.effective_load(0)
    assert first.cpu == 0.3 and first.disk == 0.6
    assert table.effective_load(0) is first          # cached: inputs unmoved
    # Above the norm: pressure (outstanding / norm, capped at 2) wins.
    for _ in range(4):
        table.on_dispatch(0)
    bumped = table.effective_load(0)
    assert bumped.cpu == pytest.approx(12 / 8)
    assert bumped.disk == 0.6
    # A fresh monitor sample invalidates the cache too.
    table.publish_load(0, LoadSample(cpu=1.8, disk=0.1))
    assert table.effective_load(0).cpu == pytest.approx(1.8)


# ----------------------------------------------------------------------
# Cluster-level exactness: retries, aborts, crash-in-flight, drain
# ----------------------------------------------------------------------
def _small_cluster(replicas=4, seed=3, mix="balanced", think=0.05,
                   clients=4, engine=None):
    engine = engine if engine is not None else EngineConfig()
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=MemoryAwareLoadBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(128),
                             clients_per_replica=clients, think_time_s=think,
                             seed=seed, engine=engine),
        mix=mix,
    )


def _assert_counters_exact(cluster, requests):
    """Outstanding counters must equal the replicas' live tables, exactly."""
    replicas = cluster.built_replicas.values()
    for replica in replicas:
        rid = replica.replica_id
        assert cluster.routing.outstanding.get(rid, 0) == len(replica._live), \
            "replica %d: counter %d != %d in flight" % (
                rid, cluster.routing.outstanding.get(rid, 0), len(replica._live))
    total = sum(len(replica._live) for replica in replicas)
    assert total == requests.outstanding


def test_counters_exact_under_retry_and_abort():
    """A single-key-per-page key space plus the balanced mix's 30% writes
    produce certification conflicts, client-visible aborts and in-replica
    retries; none of them may unbalance the admission counters."""
    cluster = _small_cluster(mix="balanced", seed=7, clients=10, think=0.02,
                             engine=EngineConfig(key_space_per_page=1))
    requests = RequestCounter(cluster)
    cluster.start()
    for checkpoint in (5.0, 12.0, 30.0, 45.0):
        cluster.sim.run_until(checkpoint)
        _assert_counters_exact(cluster, requests)
    assert cluster.metrics.completed > 100
    # The retry path was actually exercised.
    assert cluster.certifier.stats.aborts > 0
    assert cluster.metrics.abort_reasons.get("certification-conflict", 0) > 0


def test_counters_exact_across_crash_in_flight():
    cluster = _small_cluster(seed=11)
    requests = RequestCounter(cluster)
    cluster.start()
    cluster.sim.run_until(10.0)
    _assert_counters_exact(cluster, requests)
    victim = cluster.replica_ids()[1]
    assert cluster.routing.outstanding.get(victim, 0) >= 0
    cluster.crash_replica(victim)
    # Crash fails every in-flight transaction at the victim synchronously.
    assert cluster.routing.outstanding.get(victim, 0) == 0
    _assert_counters_exact(cluster, requests)
    cluster.sim.run_until(20.0)
    _assert_counters_exact(cluster, requests)
    cluster.restore_replica(victim)
    cluster.sim.run_until(30.0)
    _assert_counters_exact(cluster, requests)


def test_counters_exact_across_drain():
    cluster = _small_cluster(seed=13)
    requests = RequestCounter(cluster)
    cluster.start()
    cluster.sim.run_until(10.0)
    victim = cluster.replica_ids()[-1]
    cluster.remove_replica(victim)
    assert victim not in cluster.replica_ids()
    cluster.sim.run_until(25.0)
    # Drained: every in-flight transaction completed, then retirement purged
    # the replica's routing counter; its live table is empty.
    assert victim not in cluster.routing.outstanding
    assert victim in cluster.retired
    assert not cluster.built_replicas[victim]._live
    _assert_counters_exact(cluster, requests)


# ----------------------------------------------------------------------
# Golden: MALB routing decisions unchanged vs PR 3
# ----------------------------------------------------------------------
def _routing_fingerprint(config):
    from repro.experiments.runner import build_cluster

    cluster = build_cluster(config)
    digest = hashlib.sha256()
    count = [0]
    orig = cluster.balancer.dispatch

    def recording_dispatch(txn_type):
        rid = orig(txn_type)
        digest.update(("%s:%d;" % (txn_type.name, rid)).encode())
        count[0] += 1
        return rid

    cluster.balancer.dispatch = recording_dispatch
    cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    return {"dispatches": count[0], "sha256": digest.hexdigest()}


def test_malb_routing_decisions_match_pr3_golden():
    """The RoutingTable refactor changes the cost of dispatch, not its
    decisions: the full (type, replica) decision stream of the golden
    scenarios must hash to the values recorded on the PR 3 code."""
    from repro.experiments.configs import (golden_midsize_config,
                                           golden_update_filtering_config)

    goldens = json.loads(GOLDEN_PATH.read_text())
    for config in (golden_midsize_config(), golden_update_filtering_config()):
        measured = _routing_fingerprint(config)
        assert measured == goldens[config.name], \
            "%s routing decisions drifted: %r != golden %r" % (
                config.name, measured, goldens[config.name])


# ----------------------------------------------------------------------
# Determinism across membership churn (stable tie-breaking)
# ----------------------------------------------------------------------
def _churned_dispatch_trace(seed):
    cluster = _small_cluster(replicas=4, seed=seed)
    trace = []
    orig = cluster.balancer.dispatch

    def recording_dispatch(txn_type):
        rid = orig(txn_type)
        trace.append((txn_type.name, rid))
        return rid

    cluster.balancer.dispatch = recording_dispatch
    cluster.start()
    # Membership churn mid-run: a replica joins, another leaves.  With
    # deterministic id tie-breaking the whole decision stream is a pure
    # function of the seed.
    cluster.sim.schedule(8.0, cluster.add_replica)
    cluster.sim.schedule(16.0, lambda: cluster.remove_replica(
        cluster.replica_ids()[1]))
    cluster.sim.run_until(30.0)
    return trace


def test_dispatch_identical_across_runs_with_membership_churn():
    first = _churned_dispatch_trace(seed=17)
    second = _churned_dispatch_trace(seed=17)
    assert len(first) > 200
    assert first == second
    # And the churn actually happened: decisions reference the joiner.
    assert any(rid == 4 for _, rid in first)
