"""End-to-end integration tests asserting the paper's qualitative behaviours
on a scaled-down cluster (kept small so the suite stays fast)."""

from repro.core.baselines import LeastConnectionsBalancer
from repro.core.grouping import GroupingMethod
from repro.core.malb import MemoryAwareLoadBalancer
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.storage.pages import mb
from repro.workloads.spec import Mix, WorkloadSpec, lookup, transaction_type, write
from repro.storage.relation import Schema, index, table


def contention_workload():
    """Two large transaction types whose combined hot sets exceed one replica's
    memory but which fit individually -- the canonical MALB scenario."""
    schema = Schema.from_relations("contention", [
        table("red", mb(90)), index("red_pkey", "red", mb(6)),
        table("blue", mb(90)), index("blue_pkey", "blue", mb(6)),
        table("log", mb(20)),
    ])
    types = {
        "RedTxn": transaction_type("RedTxn", reads=[lookup("red", pages=12)], cpu_ms=4.0),
        "BlueTxn": transaction_type("BlueTxn", reads=[lookup("blue", pages=12)], cpu_ms=4.0),
        "WriteTxn": transaction_type(
            "WriteTxn", reads=[lookup("log", pages=2)],
            writes=[write("log", rows=1, pages_dirtied=1)], cpu_ms=3.0),
    }
    mixes = {"mixed": Mix("mixed", {"RedTxn": 45, "BlueTxn": 45, "WriteTxn": 10})}
    return WorkloadSpec(name="contention", schema=schema, types=types, mixes=mixes)


def run_policy(balancer, replicas=4, ram=mb(192), duration=42.0, seed=5):
    cluster = ReplicatedCluster(
        workload=contention_workload(), balancer=balancer,
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=ram,
                             clients_per_replica=6, think_time_s=0.05, seed=seed),
        mix="mixed")
    return cluster.run(duration_s=duration, warmup_s=duration / 3)


def test_malb_reduces_disk_reads_versus_least_connections():
    lc = run_policy(LeastConnectionsBalancer())
    malb = run_policy(MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC))
    # The memory-aware policy partitions the two large types so each replica's
    # working set fits; its read I/O per transaction must be clearly lower.
    assert malb.read_kb_per_txn < lc.read_kb_per_txn
    assert malb.throughput_tps > 0 and lc.throughput_tps > 0


def test_malb_separates_the_two_large_types():
    balancer = MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC)
    run_policy(balancer)
    red_group = balancer.group_by_type["RedTxn"]
    blue_group = balancer.group_by_type["BlueTxn"]
    assert red_group != blue_group


def test_update_filtering_reduces_write_io():
    plain = run_policy(MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC))
    filtering = MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC,
                                        update_filtering=True)
    filtering.FILTERING_STABILIZATION_S = 10.0
    filtering.REBALANCE_INTERVAL_S = 5.0
    filtered = run_policy(filtering)
    assert filtered.write_kb_per_txn <= plain.write_kb_per_txn + 0.5


def test_certified_updates_never_lost():
    balancer = LeastConnectionsBalancer()
    cluster = ReplicatedCluster(
        workload=contention_workload(), balancer=balancer,
        config=ClusterConfig(num_replicas=3, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05, seed=9),
        mix="mixed")
    result = cluster.run(duration_s=24.0, warmup_s=8.0)
    assert cluster.certifier.current_version >= result.metrics.updates_completed
