"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by running the
corresponding simulated experiments once (``rounds=1`` -- these are
measurement harnesses, not micro-benchmarks) and printing the measured rows
next to the numbers the paper reports.  Results are cached per configuration
within a session so that, e.g., Table 1 reuses the Figure 3 runs instead of
re-simulating them.
"""

import dataclasses
import importlib.util
from typing import Dict, Tuple

import pytest

from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment

_CACHE: Dict[Tuple, ExperimentResult] = {}


def _key(config: ExperimentConfig) -> Tuple:
    data = dataclasses.asdict(config)
    data.pop("name", None)
    return tuple(sorted((k, str(v)) for k, v in data.items()))


def run_cached(config: ExperimentConfig) -> ExperimentResult:
    """Run an experiment once per session, keyed by its parameters."""
    key = _key(config)
    if key not in _CACHE:
        _CACHE[key] = run_experiment(config)
    return _CACHE[key]


def run_all_cached(configs):
    return [run_cached(config) for config in configs]


@pytest.fixture
def paper():
    from repro.experiments.configs import PAPER_FIGURES
    return PAPER_FIGURES


if importlib.util.find_spec("pytest_benchmark") is None:
    class _RunOnce:
        """Stand-in for pytest-benchmark's fixture: runs the harness once."""

        def pedantic(self, target, rounds=1, iterations=1):
            return target()

    @pytest.fixture
    def benchmark():
        """Lets the harnesses run where the pytest-benchmark plugin is absent."""
        return _RunOnce()
