"""Elasticity experiments: flash crowds, crashes and autoscaling.

The paper's evaluation (and the figure benchmarks reproducing it) holds the
replica set fixed for each run.  This module adds the churn dimension: a
scenario wraps a base :class:`~repro.experiments.runner.ExperimentConfig`
with a client surge (flash crowd), an optional autoscaler, and injected
faults, then reports what the static experiments cannot -- scaling
decisions, membership churn, recovery replays, and whether any certified
update was lost along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.elasticity.autoscaler import Autoscaler, ScalingDecision
from repro.elasticity.faults import FaultInjector, FaultRecord
from repro.experiments.runner import (
    ExperimentConfig,
    make_balancer,
    make_cluster_config,
    make_schedule,
    make_workload,
)
from repro.replication.cluster import MembershipEvent, ReplicatedCluster, RunResult


#: The flash crowd: the closed-loop population jumps to ``SURGE_CLIENTS``
#: inside [SURGE_START_S, SURGE_END_S), then falls back.
SURGE_START_S = 120.0
SURGE_END_S = 300.0
SURGE_CLIENTS = 96
#: With faults: one replica (random victim) crashes at ``CRASH_AT_S`` and is
#: restored after the downtime, and the certifier leader fails over to one
#: of its backups at ``CERTIFIER_FAILOVER_AT_S``.
CRASH_AT_S = 200.0
CRASH_DOWNTIME_S = 25.0
CERTIFIER_FAILOVER_AT_S = 240.0
CERTIFIER_BACKUPS = 2


@dataclass(frozen=True)
class ElasticityConfig:
    """One elasticity scenario: a base experiment plus churn on top."""

    base: ExperimentConfig
    #: Run the autoscaler; without it the cluster stays at its base size
    #: (the comparison baseline for the flash-crowd benchmark).
    autoscale: bool = True
    #: Inject the replica crash and the certifier fail-over.
    with_faults: bool = True


@dataclass
class ElasticityResult:
    """Measurements of one elasticity scenario run."""

    config: ElasticityConfig
    run: RunResult
    scaling: List[ScalingDecision] = field(default_factory=list)
    membership_events: List[MembershipEvent] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    start_replicas: int = 0
    peak_replicas: int = 0
    final_replicas: int = 0
    #: writesets still missing from in-service replicas after a final pull
    #: (0 == no certified update was lost).
    lost_certified_updates: int = 0
    log_is_total_order: bool = True
    #: throughput over the surge window only (tps).
    surge_throughput_tps: float = 0.0
    #: simulator events executed during the run (perf-harness input).
    events_processed: int = 0

    @property
    def throughput_tps(self) -> float:
        return self.run.throughput_tps

    @property
    def scale_ups(self) -> List[ScalingDecision]:
        return [d for d in self.scaling if d.action == "scale-up"]

    @property
    def scale_downs(self) -> List[ScalingDecision]:
        return [d for d in self.scaling if d.action == "scale-down"]


def build_elastic_cluster(config: ElasticityConfig
                          ) -> Tuple[ReplicatedCluster, Optional[Autoscaler], FaultInjector]:
    """Assemble the cluster, autoscaler and fault injector for a scenario.

    Nothing is scheduled yet beyond the autoscaler's periodic check;
    :func:`run_elastic_experiment` installs the surge and the faults.
    """
    base = config.base
    cluster_config = replace(make_cluster_config(base),
                             certifier_backups=CERTIFIER_BACKUPS)
    cluster = ReplicatedCluster(
        workload=make_workload(base),
        balancer=make_balancer(base.policy, base),
        config=cluster_config,
        schedule=make_schedule(base),
    )
    autoscaler = None
    if config.autoscale:
        autoscaler = Autoscaler(cluster)
        autoscaler.start()
    injector = FaultInjector(cluster)
    return cluster, autoscaler, injector


def window_throughput(run: RunResult, start_s: float, end_s: float) -> float:
    """Completions per second inside [start_s, end_s).

    Counted from the collector's streaming reporting buckets, so windows
    aligned to ``metrics.bucket_seconds`` (the scenarios here use 30 s
    multiples) are exact.  Unlike the retained-record implementation this
    replaced, the buckets include warm-up completions -- pass a window that
    starts after ``warmup_s`` (all scenarios in this module do) to measure
    steady state only.
    """
    if end_s <= start_s:
        return 0.0
    return run.metrics.completions_between(start_s, end_s) / (end_s - start_s)


def count_lost_updates(cluster: ReplicatedCluster) -> int:
    """Writesets missing from in-service replicas after a final full pull.

    Update filtering advances the cursor past filtered entries, so this
    counts genuinely lost certified updates, not intentionally skipped ones.
    """
    lost = 0
    version = cluster.certifier.current_version
    for replica in cluster.replicas.values():
        replica.pull_updates()
        lost += max(0, version - replica.applied_version)
    return lost


def run_elastic_experiment(config: ElasticityConfig,
                           observer=None) -> ElasticityResult:
    """Run one elasticity scenario end-to-end.

    ``observer`` (e.g. a :class:`repro.obs.ObservabilityHub`) is attached
    before the run, so membership churn, faults and autoscaler decisions
    land in the trace and registry; ``None`` keeps the zero-overhead path.
    """
    cluster, autoscaler, injector = build_elastic_cluster(config)
    if observer is not None:
        cluster.attach(observer)
    base = config.base
    start_replicas = len(cluster.replicas)

    baseline_clients = cluster.config.total_clients

    def surge_on() -> None:
        cluster.clients.set_active_clients(SURGE_CLIENTS)

    def surge_off() -> None:
        cluster.clients.set_active_clients(baseline_clients)

    cluster.sim.schedule_at(SURGE_START_S, surge_on)
    cluster.sim.schedule_at(SURGE_END_S, surge_off)

    if config.with_faults:
        injector.schedule_crash(CRASH_AT_S, downtime_s=CRASH_DOWNTIME_S)
        injector.schedule_certifier_failover(CERTIFIER_FAILOVER_AT_S)

    run = cluster.run(duration_s=base.duration_s, warmup_s=base.warmup_s)
    surge_tps = window_throughput(run, SURGE_START_S, SURGE_END_S)

    log_obj = cluster.certifier
    return ElasticityResult(
        config=config,
        run=run,
        scaling=list(autoscaler.decisions) if autoscaler else [],
        membership_events=list(cluster.membership_events),
        faults=list(injector.records),
        start_replicas=start_replicas,
        peak_replicas=autoscaler.peak_replicas if autoscaler else start_replicas,
        final_replicas=len(cluster.replicas),
        lost_certified_updates=count_lost_updates(cluster),
        log_is_total_order=log_obj.log_is_total_order(),
        surge_throughput_tps=surge_tps,
        events_processed=cluster.sim.events_processed,
    )


def flash_crowd_scenario(autoscale: bool = True,
                         with_faults: bool = True,
                         seed: int = 1) -> ElasticityConfig:
    """The canonical flash-crowd scenario (benchmark and example share it).

    A 4-replica TPC-W cluster under the ordering mix; the client population
    quadruples for three minutes in the middle of the run.  With autoscaling
    the cluster may grow to 8 replicas and shrinks back afterwards; with
    faults one replica crashes at the height of the crowd and recovers
    online, and the certifier leader fails over shortly after.
    """
    base = ExperimentConfig(
        name="flash-crowd" + ("" if autoscale else "-static"),
        workload="tpcw",
        db_label="MidDB",
        mix="ordering",
        ram_mb=512,
        policy="MALB-SC",
        num_replicas=4,
        clients_per_replica=6,
        think_time_s=0.25,
        duration_s=520.0,
        warmup_s=60.0,
        seed=seed,
    )
    return ElasticityConfig(base=base, autoscale=autoscale,
                            with_faults=with_faults)
