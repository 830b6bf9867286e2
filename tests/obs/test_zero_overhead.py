"""The zero-overhead contract: observability off == observability absent.

Attaching an ObservabilityHub without a snapshot interval schedules no
simulator events and records through pre-bound ``None``-guarded attributes,
so the seeded goldens -- including ``events_processed`` -- must be
bit-identical between a bare cluster and one with a full hub attached.
"""

from repro.experiments.configs import golden_midsize_config
from repro.experiments.runner import build_cluster
from repro.obs import ObservabilityHub

from tests.conftest import count_completions, update_fraction
from tests.sim.test_determinism_golden import _fingerprint


def _fingerprint_with_hub(config):
    cluster = build_cluster(config)
    completions = count_completions(cluster)
    hub = ObservabilityHub()
    cluster.attach(hub)
    result = cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    metrics = result.metrics
    fingerprint = {
        "completed": metrics.completed,
        "updates_completed": metrics.updates_completed,
        "aborts": metrics.aborts,
        "events_processed": cluster.sim.events_processed,
        "certifier_requests": cluster.certifier.stats.requests,
        "certifier_commits": cluster.certifier.stats.commits,
        "certifier_aborts": cluster.certifier.stats.aborts,
        "certifier_notifications": cluster.certifier.stats.notifications_sent,
        "completions_by_type": dict(sorted(completions.by_type.items())),
        "completions_by_replica": {str(rid): count for rid, count
                                   in sorted(completions.by_replica.items())},
        "throughput_tps": metrics.throughput_tps(),
        "average_response_time": metrics.average_response_time(),
        "update_fraction": update_fraction(metrics),
        "read_kb_per_txn": metrics.read_kb_per_transaction(),
        "write_kb_per_txn": metrics.write_kb_per_transaction(),
        "throughput_series": [point.throughput_tps
                              for point in metrics.throughput_series()],
    }
    return fingerprint, hub


def test_attached_hub_changes_nothing():
    """Bit-identical fingerprints (ints compared exactly, floats by ==) with
    and without a hub, on the golden mid-size scenario shortened for CI."""
    from dataclasses import replace

    config = replace(golden_midsize_config(), duration_s=60.0, warmup_s=15.0)
    bare = _fingerprint(config)
    traced, hub = _fingerprint_with_hub(config)
    assert traced == bare
    # The traced run genuinely observed the workload while changing nothing.
    assert hub.tracer.event_count > 0
    assert hub.tracer.stages.total.count > 0


def test_snapshot_interval_is_opt_in():
    """Attaching without a snapshot interval must schedule no events; the
    registry only gains snapshots when explicitly asked to."""
    from dataclasses import replace

    config = replace(golden_midsize_config(), duration_s=30.0, warmup_s=5.0)
    cluster = build_cluster(config)
    hub = ObservabilityHub()
    cluster.attach(hub)
    cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    assert hub.registry.snapshots == []
    # final_snapshot still works on demand, after the run.
    snap = hub.final_snapshot()
    assert snap["time"] == cluster.sim.now
    assert snap["gauges"]["metrics.completed"] == cluster.metrics.completed
