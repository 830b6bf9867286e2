"""Experiment runner: build a cluster for a named configuration and run it.

Every table and figure in the paper's evaluation is regenerated by running
one or more :class:`ExperimentConfig` instances through
:func:`run_experiment`.  A configuration names the workload (TPC-W at some
EBS scale, or RUBiS), the mix, the per-replica RAM, the load-balancing
policy and the run length; the runner assembles the replicated cluster and
returns the measurements the paper reports (throughput, response time,
disk I/O per transaction, groupings and replica counts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.balancer import LoadBalancer
from repro.core.baselines import LardBalancer, LeastConnectionsBalancer, RoundRobinBalancer
from repro.core.grouping import GroupingMethod
from repro.core.malb import MemoryAwareLoadBalancer
from repro.replication.cluster import ClusterConfig, ReplicatedCluster, RunResult
from repro.storage.pages import mb
from repro.workloads.generator import WorkloadSchedule
from repro.workloads.rubis import make_rubis
from repro.workloads.spec import WorkloadSpec
from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw

#: MALB policy name -> (grouping method, update filtering).
_MALB_POLICIES: Dict[str, Tuple[GroupingMethod, bool]] = {
    "MALB-S": (GroupingMethod.MALB_S, False),
    "MALB-SC": (GroupingMethod.MALB_SC, False),
    "MALB-SCAP": (GroupingMethod.MALB_SCAP, False),
    "MALB-SC+UF": (GroupingMethod.MALB_SC, True),
}

#: Policies accepted by :func:`make_balancer`.
POLICIES = ("Single", "RoundRobin", "LeastConnections", "LARD") + tuple(_MALB_POLICIES)

#: Telemetry snapshot period (simulated seconds) of the harness CLIs.
SNAPSHOT_INTERVAL_S = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated run of the Tashkent+ cluster."""

    name: str
    workload: str = "tpcw"              # "tpcw" or "rubis"
    db_label: str = "MidDB"             # TPC-W: SmallDB/MidDB/LargeDB; ignored for RUBiS
    mix: str = "ordering"
    ram_mb: int = 512
    policy: str = "MALB-SC"
    num_replicas: int = 16
    clients_per_replica: int = 20
    think_time_s: float = 0.25
    duration_s: float = 260.0
    warmup_s: float = 100.0
    seed: int = 1
    #: Optional workload schedule (mix changes over time) for Figure 6.
    schedule_phases: Optional[Sequence[str]] = None
    schedule_phase_length_s: float = 0.0
    #: MALB options used by the ablation benches.
    malb_merging: bool = True
    malb_static_allocation: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError("unknown policy %r (expected one of %s)" % (self.policy, POLICIES))
        if self.workload not in ("tpcw", "rubis"):
            raise ValueError("unknown workload %r" % (self.workload,))
        if self.workload == "tpcw" and self.db_label not in DATABASE_SIZES:
            raise ValueError("unknown TPC-W database label %r" % (self.db_label,))


@dataclass
class ExperimentResult:
    """Results of one experiment, in the paper's units."""

    config: ExperimentConfig
    throughput_tps: float
    response_time_s: float
    read_kb_per_txn: float
    write_kb_per_txn: float
    groupings: Dict[str, List[str]] = field(default_factory=dict)
    replica_counts: Dict[str, int] = field(default_factory=dict)
    certifier_aborts: int = 0
    throughput_series: List = field(default_factory=list)
    #: Client-visible abort/failure taxonomy (reason -> count); see
    #: MetricsCollector.abort_reasons for the reason vocabulary.
    abort_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "%s/%s" % (self.config.name, self.config.policy)


def make_workload(config: ExperimentConfig) -> WorkloadSpec:
    """Build the workload spec named by a configuration."""
    if config.workload == "tpcw":
        return make_tpcw(DATABASE_SIZES[config.db_label])
    return make_rubis()


def make_balancer(policy: str, config: Optional[ExperimentConfig] = None) -> LoadBalancer:
    """Instantiate the load-balancing policy named ``policy``."""
    if policy in ("Single", "RoundRobin"):
        return RoundRobinBalancer()
    if policy == "LeastConnections":
        return LeastConnectionsBalancer()
    if policy == "LARD":
        return LardBalancer()
    if policy not in _MALB_POLICIES:
        raise ValueError("unknown policy %r" % (policy,))
    method, update_filtering = _MALB_POLICIES[policy]
    return MemoryAwareLoadBalancer(
        method=method,
        update_filtering=update_filtering,
        enable_merging=config.malb_merging if config else True,
        static_allocation=config.malb_static_allocation if config else False,
    )


def make_cluster_config(config: ExperimentConfig) -> ClusterConfig:
    """Translate an experiment configuration into a cluster configuration."""
    num_replicas = 1 if config.policy == "Single" else config.num_replicas
    ram_mb = 1024 if config.policy == "Single" else config.ram_mb
    return ClusterConfig(
        num_replicas=num_replicas,
        replica_ram_bytes=mb(ram_mb),
        clients_per_replica=config.clients_per_replica,
        think_time_s=config.think_time_s,
        seed=config.seed,
    )


def make_schedule(config: ExperimentConfig) -> WorkloadSchedule:
    if config.schedule_phases:
        return WorkloadSchedule.alternating(list(config.schedule_phases),
                                            config.schedule_phase_length_s)
    return WorkloadSchedule.constant(config.mix)


def build_cluster(config: ExperimentConfig) -> ReplicatedCluster:
    """Assemble the cluster for an experiment without running it."""
    workload = make_workload(config)
    balancer = make_balancer(config.policy, config)
    return ReplicatedCluster(
        workload=workload,
        balancer=balancer,
        config=make_cluster_config(config),
        schedule=make_schedule(config),
    )


def run_experiment(config: ExperimentConfig,
                   observer=None) -> ExperimentResult:
    """Run one experiment and return its measurements.

    ``observer`` (e.g. a :class:`repro.obs.ObservabilityHub`) is attached
    to the cluster before the run; pass ``None`` (the default) for the
    zero-overhead path the goldens pin.
    """
    cluster = build_cluster(config)
    if observer is not None:
        cluster.attach(observer)
    result: RunResult = cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    return ExperimentResult(
        config=config,
        throughput_tps=result.throughput_tps,
        response_time_s=result.response_time_s,
        read_kb_per_txn=result.read_kb_per_txn,
        write_kb_per_txn=result.write_kb_per_txn,
        groupings=result.groupings,
        replica_counts=result.replica_counts,
        certifier_aborts=result.certifier_aborts,
        throughput_series=result.metrics.throughput_series(),
        abort_reasons=dict(result.metrics.abort_reasons),
    )


def named_experiment_configs() -> Dict[str, ExperimentConfig]:
    """Every predefined experiment configuration, by name.

    Imported lazily: ``configs`` imports this module, so a module-level
    import would be circular.
    """
    from repro.experiments import configs as _configs

    named: Dict[str, ExperimentConfig] = {}
    groups = (
        _configs.figure3_configs() + _configs.figure4_configs()
        + _configs.figure5_configs() + _configs.figure6_configs()
        + _configs.figure7_configs() + _configs.figure8_configs()
        + [_configs.golden_midsize_config(),
           _configs.golden_update_filtering_config()]
    )
    for config in groups:
        key = "%s/%s" % (config.name, config.policy)
        named.setdefault(key, config)
    return named


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run named experiments, optionally traced or under dsan.

    Examples::

        python -m repro.experiments.runner --list
        python -m repro.experiments.runner --name figure6-dynamic/MALB-SC \\
            --duration 120 --warmup 30 --trace trace.json \\
            --telemetry-json telemetry.json
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Run predefined experiments from the paper's evaluation.")
    parser.add_argument("--list", action="store_true",
                        help="list the available experiment names and exit")
    parser.add_argument("--name", action="append", default=[],
                        help="experiment to run (name/policy; repeatable)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the configured run length (seconds)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="override the configured warm-up (seconds)")
    add_observer_arguments(parser)
    args = parser.parse_args(argv)

    named = named_experiment_configs()
    if args.list or not args.name:
        for key in sorted(named):
            print(key)
        return 0

    from repro.experiments.report import format_abort_breakdown, format_result_table

    results = []
    deterministic = True
    for name in args.name:
        if name not in named:
            parser.error("unknown experiment %r (use --list)" % (name,))
        config = named[name]
        if args.duration is not None:
            config = replace(config, duration_s=args.duration)
        if args.warmup is not None:
            config = replace(config, warmup_s=args.warmup)

        # With several experiments, suffix the export paths by run name.
        suffix = "" if len(args.name) == 1 else "." + name.replace("/", "-")
        result, same = run_observed(
            parser, args,
            lambda observer, config=config: run_experiment(config, observer),
            suffix)
        deterministic = deterministic and same
        if result is not None:
            results.append(result)

    if results:
        print(format_result_table(results, title="results"))
        print()
        print(format_abort_breakdown(results))
    return 0 if deterministic else 1


def add_observer_arguments(parser) -> None:
    """Add the observer flags shared by the runner, chaos and perf CLIs."""
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON (perfetto) here")
    parser.add_argument("--telemetry-json", default=None, metavar="PATH",
                        help="write the telemetry-registry snapshot JSON here")
    parser.add_argument("--dsan", action="store_true",
                        help="determinism sanitizer: run twice and fail on "
                             "the first diverging event (no exports)")


def run_observed(parser, args, run: Callable[[Any], Any],
                 suffix: str = "") -> Tuple[Any, bool]:
    """Run ``run(observer)`` under the flags of :func:`add_observer_arguments`.

    ``--dsan`` double-runs it and returns ``(None, deterministic)``;
    otherwise ``run`` gets a hub (or ``None`` when no export was asked
    for), the exports are written, an exported telemetry file is read back
    and summarised, and ``(result, True)`` is returned.
    """
    if args.dsan:
        if args.trace or args.telemetry_json:
            parser.error("--dsan excludes --trace/--telemetry-json")
        from repro.analysis.dsan import check_determinism

        report = check_determinism(run)
        print(report.format())
        return None, report.deterministic

    hub = None
    if args.trace or args.telemetry_json:
        from repro.obs import ObservabilityHub
        hub = ObservabilityHub(tracing=args.trace is not None,
                               telemetry=args.telemetry_json is not None,
                               snapshot_interval_s=SNAPSHOT_INTERVAL_S)
    result = run(hub)
    if args.trace:
        path = _suffixed(args.trace, suffix)
        hub.export_trace(path)
        print("trace written to %s" % path)
    if args.telemetry_json:
        path = _suffixed(args.telemetry_json, suffix)
        hub.export_telemetry(path)
        print("telemetry written to %s" % path)
        from repro.experiments.report import summarize_telemetry
        with open(path) as handle:
            print(summarize_telemetry(json.load(handle)))
    return result, True


def _suffixed(path: str, suffix: str) -> str:
    if not suffix:
        return path
    if path.endswith(".json"):
        return path[:-len(".json")] + suffix + ".json"
    return path + suffix


if __name__ == "__main__":
    raise SystemExit(main())
