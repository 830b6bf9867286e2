"""The hub's cluster gauges report what their names say."""

from repro.core.baselines import LeastConnectionsBalancer
from repro.obs import ObservabilityHub
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
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
