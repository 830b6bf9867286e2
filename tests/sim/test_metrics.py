"""Tests for throughput / response-time / disk-I/O metrics."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.sim.metrics import MetricsCollector
from repro.storage.pages import mb

from tests.conftest import count_completions, make_tiny_workload, update_fraction


def _record(m, time, **kwargs):
    defaults = dict(response_time=0.1, is_update=False, read_bytes=0.0,
                    write_bytes=0.0)
    defaults.update(kwargs)
    m.record_completion(time=time, **defaults)


def test_throughput_excludes_warmup():
    m = MetricsCollector(warmup_seconds=10.0)
    for t in range(5, 30):
        _record(m, float(t))
    assert m.completed == 20                    # t=10..29 included, end_time=29
    assert m.throughput_tps() == pytest.approx(20 / 19.0)


def test_response_time_and_update_fraction():
    m = MetricsCollector()
    _record(m, 1.0, response_time=1.0, is_update=True)
    _record(m, 2.0, response_time=3.0)
    assert m.average_response_time() == pytest.approx(2.0)
    assert update_fraction(m) == pytest.approx(0.5)


def test_disk_io_per_transaction_includes_background():
    m = MetricsCollector()
    _record(m, 1.0, read_bytes=8192.0, write_bytes=8192.0)
    _record(m, 2.0, read_bytes=0.0, write_bytes=0.0)
    m.record_background_io(3.0, replica_id=1, read_bytes=8192.0, write_bytes=16384.0)
    assert m.read_kb_per_transaction() == pytest.approx(8.0)
    assert m.write_kb_per_transaction() == pytest.approx(12.0)


def test_background_io_respects_warmup():
    m = MetricsCollector(warmup_seconds=10.0)
    m.record_background_io(5.0, replica_id=0, read_bytes=1e6, write_bytes=1e6)
    _record(m, 11.0)
    assert m.read_kb_per_transaction() == 0.0


def test_breakdowns():
    """The test-side per-replica and per-type breakdown counts exactly the
    completions the collector counts, warm-up excluded."""
    workload = make_tiny_workload()
    cluster = ReplicatedCluster(
        workload=workload, balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=3, replica_ram_bytes=mb(192),
                             clients_per_replica=4, think_time_s=0.05),
        mix="balanced")
    completions = count_completions(cluster)
    metrics = cluster.run(duration_s=20.0, warmup_s=5.0).metrics
    assert metrics.completed > 0
    assert sum(completions.by_replica.values()) == metrics.completed
    assert sum(completions.by_type.values()) == metrics.completed
    assert set(completions.by_replica) == {0, 1, 2}
    assert set(completions.by_type) <= set(workload.types)


def test_throughput_series_and_moving_average():
    m = MetricsCollector(bucket_seconds=10.0)
    for t in range(0, 100):
        _record(m, float(t))
    series = m.throughput_series()
    assert len(series) == 10
    assert series[0].throughput_tps == pytest.approx(1.0)
    avg = m.moving_average_series(window_buckets=3)
    assert len(avg) == len(series)
    with pytest.raises(ValueError):
        m.moving_average_series(0)


def test_empty_collector_is_safe():
    m = MetricsCollector()
    assert m.throughput_tps() == 0.0
    assert m.average_response_time() == 0.0
    assert m.read_kb_per_transaction() == 0.0
    assert m.throughput_series() == []


def test_invalid_construction():
    with pytest.raises(ValueError):
        MetricsCollector(warmup_seconds=-1)
    with pytest.raises(ValueError):
        MetricsCollector(bucket_seconds=0)


def test_completions_between_counts_aligned_buckets():
    m = MetricsCollector(bucket_seconds=10.0)
    for t in range(0, 100):
        _record(m, float(t))
    assert m.completions_between(20.0, 50.0) == 30
    assert m.completions_between(0.0, 100.0) == 100
    assert m.completions_between(50.0, 50.0) == 0
    assert m.completions_between(90.0, 200.0) == 10


def test_updates_completed_streams():
    m = MetricsCollector()
    _record(m, 1.0, is_update=True)
    _record(m, 2.0)
    _record(m, 3.0, is_update=True)
    assert m.updates_completed == 2
