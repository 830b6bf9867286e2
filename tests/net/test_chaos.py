"""Tests for the chaos-campaign harness."""

import pytest

from repro.experiments.chaos import (
    ChaosConfig,
    audit_payload,
    build_chaos_cluster,
    chaos_soak_config,
    run_chaos,
)
from repro.obs.hub import ObservabilityHub

from tests.conftest import series


def quick_config(severity=0.6, seed=1, **kwargs):
    return chaos_soak_config(severity=severity, seed=seed, duration_s=90.0,
                             **kwargs)


def test_chaos_config_validation():
    base = chaos_soak_config().base
    with pytest.raises(ValueError):
        ChaosConfig(base=base, severity=0.0)
    with pytest.raises(ValueError):
        ChaosConfig(base=base, severity=1.5)


def test_build_chaos_cluster_wires_the_fault_surface():
    config = quick_config()
    cluster, injector, checker = build_chaos_cluster(config)
    assert cluster.network is not None
    assert checker in cluster.observers
    assert len(cluster.certifier.backups) == 2
    assert cluster.config.log_truncation_interval_s == 0.0
    for replica in cluster.replicas.values():
        assert replica.channel is not None
        assert replica.apply_ledger is not None


def test_quick_campaign_upholds_every_invariant():
    result = run_chaos(quick_config())
    assert result.ok, result.summary()
    assert result.report.ok
    assert result.lost_certified_updates == 0
    # The campaign actually exercised the fault surface it claims to.
    assert result.net["dropped"] > 0
    assert result.net["duplicated"] > 0
    assert result.rpc["timeouts"] > 0
    assert result.rpc["retries"] > 0
    assert result.faults
    # Degradation was graceful: the partitioned replica shed updates as
    # certifier-unreachable while reads kept the cluster throughput alive.
    assert result.shed_unreachable > 0
    assert result.run.metrics.abort_reasons.get("certifier-unreachable", 0) > 0
    assert result.partition_window_tps > 0
    assert result.recovery_window_tps > 0


def test_campaign_is_deterministic_per_seed():
    a = run_chaos(quick_config(seed=3))
    b = run_chaos(quick_config(seed=3))
    assert a.events_processed == b.events_processed
    assert a.net == b.net
    assert a.rpc == b.rpc
    assert a.shed_unreachable == b.shed_unreachable
    assert [(r.time, r.kind, r.replica_id) for r in a.faults] == \
           [(r.time, r.kind, r.replica_id) for r in b.faults]
    c = run_chaos(quick_config(seed=4))
    assert (a.events_processed, a.net) != (c.events_processed, c.net)


def test_severity_scales_the_injected_faults():
    mild = run_chaos(quick_config(severity=0.2, seed=2))
    harsh = run_chaos(quick_config(severity=1.0, seed=2))
    assert mild.ok and harsh.ok
    assert harsh.net["dropped"] > mild.net["dropped"]
    assert harsh.rpc["timeouts"] > mild.rpc["timeouts"]


def test_audit_payload_is_json_complete():
    import json

    result = run_chaos(quick_config())
    payload = audit_payload(result)
    encoded = json.dumps(payload)        # must be serialisable as-is
    decoded = json.loads(encoded)
    assert decoded["ok"] is True
    assert decoded["invariants"]["ok"] is True
    assert decoded["invariants"]["violations"] == []
    assert decoded["lost_certified_updates"] == 0
    assert decoded["shed_unreachable"] == result.shed_unreachable
    assert len(decoded["faults"]) == len(result.faults)
    assert "partition_start_s" in decoded["timeline"]


def test_cli_smoke(tmp_path, capsys):
    from repro.experiments.chaos import main

    audit = tmp_path / "audit.json"
    code = main(["--quick", "--severity", "0.5", "--audit-json", str(audit)])
    assert code == 0
    out = capsys.readouterr().out
    assert "invariants: OK" in out
    assert audit.exists()


def test_cumulative_gauges_never_decrease_through_churn():
    # Running totals sum over every replica the cluster built: a crash, a
    # restore or a retirement must never make them go down.
    hub = ObservabilityHub(tracing=False, snapshot_interval_s=1.0)
    result = run_chaos(chaos_soak_config(severity=1.0, seed=1,
                                         duration_s=120.0), hub)
    assert any(r.kind == "crash" for r in result.faults)
    registry = hub.registry
    totals = {name: [value for _, value in series(registry, name)]
              for name in ("admission.admitted_total",
                           "propagation.writesets_applied",
                           "propagation.writesets_filtered",
                           "rpc.timeouts_total", "rpc.retries_total",
                           "rpc.stale_responses_total",
                           "rpc.shed_unreachable_total")}
    totals["buffer.totals.evicted_bytes"] = [
        value["evicted_bytes"] for _, value in series(registry, "buffer.totals")]
    for name, values in totals.items():
        assert len(values) > 100, name
        drops = [(i, a, b) for i, (a, b) in enumerate(zip(values, values[1:]))
                 if b < a]
        assert not drops, (name, drops[:3])
