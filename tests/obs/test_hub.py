"""The hub's cluster gauges report what their names say."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.obs import ObservabilityHub
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.sim.monitor import LoadSample
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def test_admission_gauge_is_the_current_queue_depth():
    # Sixteen clients per replica with a short think time keep more than
    # MAX_CONCURRENCY transactions outstanding, so admission queues form.
    config = ClusterConfig(num_replicas=2, replica_ram_bytes=mb(128),
                           clients_per_replica=16, think_time_s=0.01, seed=2)
    cluster = ReplicatedCluster(workload=make_tiny_workload(),
                                balancer=LeastConnectionsBalancer(),
                                config=config, mix="balanced")
    hub = ObservabilityHub()
    cluster.attach(hub)
    samples = []

    def sample():
        depth = sum(len(replica.waiting)
                    for replica in cluster.replicas.values())
        samples.append((hub.registry.gauges_snapshot(), depth))

    for t in (2.0, 3.5, 5.0, 6.5, 8.0):
        cluster.sim.schedule_at(t, sample)
    cluster.run(duration_s=10.0)
    assert len(samples) == 5
    for gauges, depth in samples:
        assert gauges["admission.queued"] == depth
        assert "admission.queued_total" not in gauges
    # The run really queued, so the gauge was checked against a live queue.
    assert any(depth > 0 for _, depth in samples)


def test_load_gauges_read_the_routing_table_across_a_crash_and_restore():
    config = ClusterConfig(num_replicas=3, replica_ram_bytes=mb(128),
                           clients_per_replica=4, think_time_s=0.05, seed=5)
    cluster = ReplicatedCluster(workload=make_tiny_workload(),
                                balancer=LeastConnectionsBalancer(),
                                config=config, mix="balanced")
    hub = ObservabilityHub()
    cluster.attach(hub)
    routing = cluster.routing
    cluster.start()

    def check(live):
        gauges = hub.registry.gauges_snapshot()
        assert list(routing.replica_ids()) == live
        loads = [routing.load_of(rid) for rid in live]
        mean = gauges["monitor.mean_load"]
        assert mean["cpu"] == pytest.approx(sum(s.cpu for s in loads) / len(loads))
        assert mean["disk"] == pytest.approx(sum(s.disk for s in loads) / len(loads))
        detail = gauges["replicas.detail"]
        assert sorted(detail) == [str(rid) for rid in live]
        for rid, sample in zip(live, loads):
            assert (detail[str(rid)]["cpu"], detail[str(rid)]["disk"]) == \
                (sample.cpu, sample.disk)
        return loads

    cluster.sim.run_until(12.0)                  # two monitor ticks
    assert any(s.bottleneck > 0 for s in check([0, 1, 2]))
    cluster.crash_replica(1)
    check([0, 2])
    cluster.sim.run_until(17.0)
    cluster.restore_replica(1)
    # Restored but not sampled yet: it reads zero load in every gauge.
    assert check([0, 1, 2])[1] == LoadSample()
    cluster.sim.run_until(21.0)
    assert check([0, 1, 2])[1] is cluster.monitor._monitors[1].sample
