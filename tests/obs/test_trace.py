"""Tracer unit behaviour and trace determinism on seeded clusters.

The load-bearing guarantees:

* the exported trace is valid Chrome trace-event JSON (perfetto-loadable
  schema: "X" spans with ts/dur, "i" instants, "M" process metadata);
* two identically-seeded runs serialise to byte-identical trace streams;
* the per-stage latency histograms sum-reconcile with the end-to-end
  latency histogram (same counts, totals telescoping exactly).
"""

import json

import pytest

from repro.core.malb import MemoryAwareLoadBalancer
from repro.obs import ObservabilityHub, LatencyHistogram, STAGE_NAMES
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def _cluster(seed=3):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=MemoryAwareLoadBalancer(),
        config=ClusterConfig(num_replicas=3, replica_ram_bytes=mb(128),
                             clients_per_replica=4, think_time_s=0.05,
                             seed=seed),
        mix="balanced",
    )


def _traced_run(seed=3, duration=20.0):
    cluster = _cluster(seed=seed)
    hub = ObservabilityHub()
    cluster.attach(hub)
    cluster.run(duration_s=duration, warmup_s=5.0)
    return cluster, hub


# ----------------------------------------------------------------------
# Histogram unit behaviour
# ----------------------------------------------------------------------
def test_histogram_records_and_buckets():
    hist = LatencyHistogram()
    for seconds in (0.000001, 0.000002, 0.5, 1.0):
        hist.record(seconds)
    assert hist.count == 4
    assert hist.total_seconds == pytest.approx(1.500003)
    assert hist.min_seconds == 0.000001
    assert hist.max_seconds == 1.0
    assert hist.mean_seconds == pytest.approx(1.500003 / 4)
    # Buckets are powers of two in microseconds, sparse and sorted.
    bounds = [bound for bound, _ in hist.buckets()]
    assert bounds == sorted(bounds)
    assert sum(count for _, count in hist.buckets()) == 4


def test_histogram_quantiles_bracket_the_samples():
    hist = LatencyHistogram()
    for i in range(1, 101):
        hist.record(i / 1000.0)        # 1ms .. 100ms
    assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)
    assert hist.quantile(1.0) == hist.max_seconds
    # The p50 upper bucket bound must cover the true median (50 ms).
    assert hist.quantile(0.5) >= 0.05 * 0.5
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_empty_histogram_is_all_zero():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert hist.quantile(0.99) == 0.0
    payload = hist.to_dict()
    assert payload["count"] == 0
    assert payload["buckets_us"] == []


# ----------------------------------------------------------------------
# Chrome trace-event schema
# ----------------------------------------------------------------------
def test_export_is_valid_chrome_trace(tmp_path):
    _, hub = _traced_run()
    path = tmp_path / "trace.json"
    hub.export_trace(str(path))
    payload = json.loads(path.read_text())

    events = payload["traceEvents"]
    assert events, "traced run produced no events"
    phases = {event["ph"] for event in events}
    assert phases <= {"X", "i", "M"}
    for event in events:
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        elif event["ph"] == "i":
            assert event["s"] == "t"
        else:
            assert event["name"] == "process_name"
    # Every replica is labelled in the process metadata.
    named_pids = {e["pid"] for e in events if e["ph"] == "M"}
    span_pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert span_pids <= named_pids


def test_stage_spans_cover_the_lifecycle():
    _, hub = _traced_run()
    names = {event["name"] for event in hub.tracer.events(cat="stage")}
    assert names == set(STAGE_NAMES)
    assert any(hub.tracer.events(name="txn"))
    assert any(hub.tracer.events(name="cert-roundtrip"))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_two_seeded_runs_serialize_byte_identical():
    _, hub_a = _traced_run(seed=3)
    _, hub_b = _traced_run(seed=3)
    assert hub_a.tracer.serialize() == hub_b.tracer.serialize()
    # And a different seed genuinely produces a different stream.
    _, hub_c = _traced_run(seed=4)
    assert hub_a.tracer.serialize() != hub_c.tracer.serialize()


# ----------------------------------------------------------------------
# Sum reconciliation
# ----------------------------------------------------------------------
def test_stage_histograms_sum_reconcile_with_end_to_end():
    _, hub = _traced_run()
    stages = hub.tracer.stages
    total = stages.total
    assert total.count > 0
    # One record per finished transaction in every histogram.
    for name in STAGE_NAMES:
        assert stages.stages[name].count == total.count
    # The stage laps telescope: summed stage time equals end-to-end time up
    # to float addition order.
    assert stages.stage_total_seconds() == pytest.approx(
        total.total_seconds, rel=1e-12)
    assert stages.reconcile_error() < 1e-9


def test_txn_spans_match_histogram_population():
    cluster, hub = _traced_run()
    txn_spans = list(hub.tracer.events(name="txn"))
    assert len(txn_spans) == hub.tracer.stages.total.count
    committed = sum(1 for event in txn_spans if event["args"]["committed"])
    assert committed >= cluster.metrics.completed
