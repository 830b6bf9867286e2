"""Telemetry-registry unit behaviour: counters, gauges, snapshots, export."""

import json

from repro.obs import TELEMETRY_SCHEMA_VERSION, TelemetryRegistry

from tests.conftest import series


def counter_value(registry, name):
    """A counter's value; 0 for a counter never created."""
    return registry.counters_snapshot().get(name, 0)


def test_counter_get_or_create_and_inc():
    registry = TelemetryRegistry()
    counter = registry.counter("pulls.periodic")
    assert registry.counter("pulls.periodic") is counter
    counter.inc()
    counter.inc(5)
    assert counter_value(registry, "pulls.periodic") == 6
    assert counter_value(registry, "never-created") == 0


def test_gauges_are_sampled_lazily():
    registry = TelemetryRegistry()
    state = {"value": 1}
    registry.gauge("demo.value", lambda: state["value"])
    state["value"] = 42
    assert registry.gauges_snapshot()["demo.value"] == 42


def test_snapshot_series():
    registry = TelemetryRegistry()
    counter = registry.counter("txns")
    registry.gauge("queued", lambda: 7)
    counter.inc(3)
    registry.snapshot(10.0)
    counter.inc(2)
    registry.snapshot(20.0)
    assert [s["time"] for s in registry.snapshots] == [10.0, 20.0]
    assert series(registry, "txns") == [(10.0, 3), (20.0, 5)]
    assert series(registry, "queued") == [(10.0, 7), (20.0, 7)]
    assert series(registry, "missing") == []


def test_export_round_trip(tmp_path):
    registry = TelemetryRegistry()
    registry.counter("a").inc()
    registry.gauge("b", lambda: {"nested": 2.5})
    registry.snapshot(1.0)
    path = tmp_path / "telemetry.json"
    registry.export(str(path), extra={"stage_latency": {"total": {"count": 0}}})

    payload = json.loads(path.read_text())
    assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
    assert len(payload["snapshots"]) == 1
    snap = payload["snapshots"][0]
    assert snap["counters"]["a"] == 1
    assert snap["gauges"]["b"] == {"nested": 2.5}
    assert payload["stage_latency"]["total"]["count"] == 0


def test_gauge_registration_replaces():
    registry = TelemetryRegistry()
    registry.gauge("x", lambda: 1)
    registry.gauge("x", lambda: 2)
    assert registry.gauges_snapshot()["x"] == 2
