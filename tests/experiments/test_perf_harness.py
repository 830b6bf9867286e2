"""Unit tests for the perf-benchmark harness (benchmarks/perf)."""

import json

import pytest

from benchmarks.perf.harness import (
    BENCH_SCHEMA_VERSION,
    ScenarioTiming,
    format_table,
    load_bench_json,
    write_bench_json,
)
from benchmarks.perf.run import main
from benchmarks.perf.scenarios import SCENARIOS


def _timing(name="demo", wall=2.0, events=100_000):
    return ScenarioTiming(
        name=name,
        wall_seconds=wall,
        sim_seconds=120.0,
        events_processed=events,
        transactions_completed=5000,
        throughput_tps=41.7,
        extra={"certifier_aborts": 3.0},
    )


def test_events_per_second():
    assert _timing().events_per_second == pytest.approx(50_000.0)
    assert _timing(wall=0.0).events_per_second == 0.0


def test_bench_json_roundtrip(tmp_path):
    path = tmp_path / "BENCH_TEST.json"
    write_bench_json(str(path), {"demo": _timing()}, note="unit test")
    payload = load_bench_json(str(path))
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["note"] == "unit test"
    scenario = payload["scenarios"]["demo"]
    assert scenario["events_processed"] == 100_000
    assert scenario["events_per_second"] == pytest.approx(50_000.0)
    assert scenario["extra"]["certifier_aborts"] == pytest.approx(3.0)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 999}))
    with pytest.raises(ValueError):
        load_bench_json(str(path))


def test_format_table_lists_all_scenarios():
    table = format_table({"a": _timing("a"), "b": _timing("b")})
    assert "a" in table and "b" in table and "events/s" in table


def test_known_scenarios_registered():
    assert {"midsize-malb", "fig6-dynamic", "flash-crowd", "certifier-micro",
            "certifier-batch", "dispatch-micro", "commit-fanout",
            "storage-micro", "eventloop-micro"} \
        <= set(SCENARIOS)


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "no-such-scenario"])


def test_cli_floor_gate(tmp_path, monkeypatch):
    import benchmarks.perf.run as run_module
    monkeypatch.setattr(run_module, "SCENARIOS",
                        {"demo": lambda quick, observer=None: _timing(wall=100.0)})
    out = tmp_path / "bench.json"
    # 1000 events/s measured; floor of 10 passes, floor of 10000 fails.
    assert main(["--scenario", "demo", "--out", str(out),
                 "--min-events-per-sec", "10"]) == 0
    assert out.exists()
    assert main(["--scenario", "demo", "--min-events-per-sec", "10000"]) == 1


def test_obs_overhead_scenario_registered():
    assert "obs-overhead" in SCENARIOS


def test_cli_trace_flags_write_exports(tmp_path, monkeypatch):
    import benchmarks.perf.run as run_module

    captured = {}

    def fake_scenario(quick, observer=None):
        captured["observer"] = observer
        if observer is not None and observer.tracer is not None:
            observer.tracer.span("txn", "txn", 0.0, 1.0, 0, 1)
        if observer is not None and observer.registry is not None:
            observer.registry.counter("demo").inc()
            observer.registry.snapshot(1.0)
        return _timing()

    monkeypatch.setattr(run_module, "SCENARIOS", {"demo": fake_scenario})
    trace = tmp_path / "trace.json"
    telemetry = tmp_path / "telemetry.json"
    assert main(["--scenario", "demo", "--trace", str(trace),
                 "--telemetry-json", str(telemetry)]) == 0
    assert captured["observer"] is not None
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]
    assert json.loads(telemetry.read_text())["snapshots"]


@pytest.mark.parametrize("diverge,status", [(False, 0), (True, 1)])
def test_cli_dsan_exit_status(monkeypatch, diverge, status):
    import benchmarks.perf.run as run_module
    from repro.sim.simulator import Simulator

    calls = []

    def fake_scenario(quick, observer=None):
        calls.append(quick)
        sim = Simulator()
        observer.attach_simulator(sim)
        # The diverging fake schedules one more event on every call.
        for i in range(10 + (len(calls) if diverge else 0)):
            sim.schedule(0.5 * i, _timing)
        sim.run_until(100.0)
        return _timing()

    monkeypatch.setattr(run_module, "SCENARIOS", {"demo": fake_scenario})
    assert main(["--scenario", "demo", "--dsan"]) == status


def test_cli_dsan_rejects_exports(tmp_path):
    with pytest.raises(SystemExit):
        main(["--scenario", "midsize-malb", "--dsan",
              "--trace", str(tmp_path / "x.json")])
