"""Experiment harness: one configuration per paper table/figure, plus runners."""

from repro.experiments.elasticity import (
    ElasticityConfig,
    ElasticityResult,
    flash_crowd_scenario,
    run_elastic_experiment,
    window_throughput,
)
from repro.experiments.configs import (
    PAPER_FIGURES,
    figure10_configs,
    figure3_configs,
    figure4_configs,
    figure5_configs,
    figure7_configs,
    figure8_configs,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    make_balancer,
    make_workload,
    run_experiment,
)
from repro.experiments.report import format_bar_chart, format_result_table

__all__ = [
    "ElasticityConfig",
    "ElasticityResult",
    "ExperimentConfig",
    "ExperimentResult",
    "PAPER_FIGURES",
    "flash_crowd_scenario",
    "run_elastic_experiment",
    "window_throughput",
    "figure10_configs",
    "figure3_configs",
    "figure4_configs",
    "figure5_configs",
    "figure7_configs",
    "figure8_configs",
    "format_bar_chart",
    "format_result_table",
    "make_balancer",
    "make_workload",
    "run_experiment",
]
