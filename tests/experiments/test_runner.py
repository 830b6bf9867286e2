"""Tests for the experiment runner and configurations."""

from pathlib import Path

import pytest

from repro.experiments.configs import (
    PAPER_FIGURES, figure10_configs, figure3_configs, figure5_configs,
    figure6_configs, figure7_configs, figure8_configs)
from repro.experiments.runner import (
    ExperimentConfig, build_cluster, make_balancer, make_cluster_config, make_workload,
    run_experiment)


def test_policy_and_workload_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", policy="Nope")
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", workload="mysql")
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", db_label="HugeDB")


def test_make_balancer_covers_all_policies():
    for policy in ("RoundRobin", "LeastConnections", "LARD", "MALB-S", "MALB-SC",
                   "MALB-SCAP", "MALB-SC+UF", "Single"):
        balancer = make_balancer(policy)
        assert balancer is not None
    with pytest.raises(ValueError):
        make_balancer("Bogus")


def test_single_policy_uses_one_replica_with_1gb():
    config = make_cluster_config(ExperimentConfig(name="x", policy="Single"))
    assert config.num_replicas == 1
    assert config.replica_ram_bytes == 1024 * 2**20


def test_make_workload_builds_both_benchmarks():
    tpcw = make_workload(ExperimentConfig(name="x", workload="tpcw", db_label="SmallDB"))
    rubis = make_workload(ExperimentConfig(name="x", workload="rubis"))
    assert len(tpcw.types) == 14
    assert len(rubis.types) == 17


def test_figure_config_lists_have_expected_policies():
    assert [c.policy for c in figure3_configs()] == ["Single", "LeastConnections", "LARD", "MALB-SC"]
    assert [c.policy for c in figure7_configs()][-1] == "MALB-SC+UF"
    assert len(figure5_configs()) == 5
    assert len(figure8_configs()) == 9
    assert len(figure10_configs()) == 81
    assert len(figure6_configs()) == 3


#: Every paper artefact and the bench that reproduces it.
EXPERIMENT_INDEX = {
    "figure3": "test_fig3_tpcw_methods.py",
    "table1": "test_table1_tpcw_disk_io.py",
    "table2": "test_table2_tpcw_groupings.py",
    "figure4": "test_fig4_rubis_methods.py",
    "table3": "test_table3_rubis_disk_io.py",
    "table4": "test_table4_rubis_groupings.py",
    "figure5": "test_fig5_grouping_methods.py",
    "figure6": "test_fig6_dynamic_reconfiguration.py",
    "figure7": "test_fig7_update_filtering.py",
    "table5": "test_table5_update_filtering_io.py",
    "figure8": "test_fig8_rubis_memory_sweep.py",
    "figure9": "test_fig9_problem_space.py",
    "figure10": "test_fig10_configuration_space.py",
    "section5.3_working_sets": "test_sec53_working_set_measurement.py",
    "section5.3_merging": "test_sec53_merging_ablation.py",
}


def test_experiment_index_covers_all_paper_artifacts():
    benchmarks = Path(__file__).resolve().parents[2] / "benchmarks"
    for key in ("figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
                "figure9", "figure10", "table1", "table2", "table3", "table4", "table5"):
        assert (benchmarks / EXPERIMENT_INDEX[key]).is_file(), key
    assert "figure3" in PAPER_FIGURES and "table5" in PAPER_FIGURES


def test_run_small_experiment_end_to_end():
    config = ExperimentConfig(name="smoke", policy="LeastConnections", db_label="SmallDB",
                              mix="browsing", num_replicas=2, clients_per_replica=4,
                              duration_s=30.0, warmup_s=10.0)
    result = run_experiment(config)
    assert result.throughput_tps > 0
    assert result.read_kb_per_txn >= 0
    assert result.config is config


def test_build_cluster_uses_schedule_phases():
    config = ExperimentConfig(name="sched", policy="LeastConnections", num_replicas=2,
                              schedule_phases=("shopping", "browsing"),
                              schedule_phase_length_s=50.0,
                              duration_s=100.0, warmup_s=10.0)
    cluster = build_cluster(config)
    assert cluster.generator.mix_at(75.0).name == "browsing"


def test_named_experiment_configs_cover_the_figures():
    from repro.experiments.runner import named_experiment_configs

    named = named_experiment_configs()
    assert "figure6-dynamic/MALB-SC" in named
    assert "golden-mid/MALB-SC" in named
    for key, config in named.items():
        assert key == "%s/%s" % (config.name, config.policy)


def test_runner_cli_lists_and_runs(tmp_path, capsys):
    from repro.experiments.runner import main

    assert main(["--list"]) == 0
    assert "golden-mid/MALB-SC" in capsys.readouterr().out

    trace = tmp_path / "trace.json"
    telemetry = tmp_path / "telemetry.json"
    assert main(["--name", "golden-mid/MALB-SC",
                 "--duration", "20", "--warmup", "5",
                 "--trace", str(trace),
                 "--telemetry-json", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "aborts by reason" in out
    # The exported telemetry is read back and summarised.
    assert "telemetry (schema v" in out and "per-stage latency" in out
    import json
    assert json.loads(trace.read_text())["traceEvents"]
    assert json.loads(telemetry.read_text())["snapshots"]


def test_run_experiment_reports_abort_reasons():
    config = ExperimentConfig(name="tiny-run", db_label="SmallDB",
                              mix="browsing", num_replicas=2,
                              clients_per_replica=2, duration_s=10.0,
                              warmup_s=2.0)
    result = run_experiment(config)
    assert isinstance(result.abort_reasons, dict)
