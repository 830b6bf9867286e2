"""The benchmark's workloads, their fingerprints and the output check.

Each workload is one paper-scale experiment configuration: a closed loop of
16 replicas x 20 simulated clients with 0.25 s think time.  The benchmark's
``--seed`` selects one of ``SIM_SEEDS`` simulator seeds, so every run's
outputs can be checked exactly against ``reference.json``.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List

from repro.experiments.configs import figure6_configs
from repro.experiments.runner import ExperimentConfig, build_cluster

#: Simulator seeds with recorded reference fingerprints.  ``--seed n`` runs
#: simulator seed ``SIM_SEEDS[(n - 1) % len(SIM_SEEDS)]``, so seeds 1..10
#: map to themselves and seed 1 is the ROADMAP's fig6 specification.
SIM_SEEDS = tuple(range(1, 11))

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _fig6_dynamic(seed: int) -> ExperimentConfig:
    # Figure 6: shopping -> browsing -> shopping under MALB-SC, 1200 sim-s.
    return figure6_configs(seed=seed, phase_length_s=400.0)[0]


def _ordering_uf(seed: int) -> ExperimentConfig:
    # Figure 7's winning arm: the write path, with update filtering.
    return ExperimentConfig(name="ordering-uf", workload="tpcw",
                            db_label="MidDB", mix="ordering", ram_mb=512,
                            policy="MALB-SC+UF", duration_s=400.0,
                            warmup_s=100.0, seed=seed)


def _browsing_thrash(seed: int) -> ExperimentConfig:
    # The read path at its worst: working set far above the buffer pool.
    return ExperimentConfig(name="browsing-thrash", workload="tpcw",
                            db_label="LargeDB", mix="browsing", ram_mb=256,
                            policy="LeastConnections", duration_s=600.0,
                            warmup_s=100.0, seed=seed)


WORKLOADS: Dict[str, Callable[[int], ExperimentConfig]] = {
    "fig6-dynamic": _fig6_dynamic,
    "ordering-uf": _ordering_uf,
    "browsing-thrash": _browsing_thrash,
}


def sim_seed(seed: int) -> int:
    """The simulator seed that benchmark seed ``seed`` runs."""
    return SIM_SEEDS[(seed - 1) % len(SIM_SEEDS)]


def workload_config(name: str, seed: int) -> ExperimentConfig:
    return WORKLOADS[name](sim_seed(seed))


def build_and_start(config: ExperimentConfig):
    """``build_cluster`` plus ``cluster.start()``: the timed set-up.

    The warm-up window is set first, as ``ReplicatedCluster.run`` does.
    """
    cluster = build_cluster(config)
    cluster.metrics.warmup_seconds = config.warmup_s
    cluster.start()
    return cluster


def simulate(config: ExperimentConfig) -> Dict[str, float]:
    """Run ``config`` to its end, untimed, and return its fingerprint."""
    cluster = build_and_start(config)
    cluster.sim.run_until(config.duration_s)
    return fingerprint(cluster)


def fingerprint(cluster) -> Dict[str, float]:
    """The simulated outputs a run must reproduce exactly."""
    result = cluster.collect_result()
    return {
        "events": cluster.sim.events_processed,
        "txns": result.metrics.completed,
        "tps": result.throughput_tps,
        "aborts": result.certifier_aborts,
        "read_kb_per_txn": result.read_kb_per_txn,
        "write_kb_per_txn": result.write_kb_per_txn,
    }


def fingerprint_mismatches(actual: Dict[str, float],
                           expected: Dict[str, float]) -> Dict[str, tuple]:
    """``{field: (actual, expected)}`` for every field that differs.

    Counts must match exactly; rates to a relative 1e-9, which absorbs only
    the last bits of float formatting in the JSON round trip.
    """
    out = {}
    for key, want in expected.items():
        got = actual.get(key)
        if got is None:
            out[key] = (got, want)
        elif isinstance(want, int):
            if got != want:
                out[key] = (got, want)
        elif abs(got - want) > 1e-9 * max(1.0, abs(want)):
            out[key] = (got, want)
    return out


def load_reference() -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {str(sim_seed): fingerprint}}`` from reference.json."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["fingerprints"]


#: The ROADMAP's behavioural specification of fig6 at simulator seed 1.
FIG6_SPEC = {"events": 1238320, "txns": 387287, "tps": 358.599, "aborts": 6}


def output_problems(name: str, seed: int, actual: Dict[str, float],
                    reference: Dict[str, Dict[str, Dict[str, float]]]) -> List[str]:
    """Every way ``actual`` departs from the recorded outputs (empty if none)."""
    seed = sim_seed(seed)
    expected = reference.get(name, {}).get(str(seed))
    if expected is None:
        return ["no reference fingerprint for %s at simulator seed %d" % (name, seed)]
    problems = ["%s: got %r, expected %r" % (key, got, want)
                for key, (got, want) in
                sorted(fingerprint_mismatches(actual, expected).items())]
    if name == "fig6-dynamic" and seed == 1:
        spec = dict(actual, tps=round(actual["tps"], 3))
        problems += ["%s: got %r, ROADMAP specifies %r" % (key, spec[key], want)
                     for key, want in sorted(FIG6_SPEC.items())
                     if spec[key] != want]
    return problems
