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

from repro.elasticity.autoscaler import Autoscaler, AutoscalerConfig, ScalingDecision
from repro.elasticity.faults import FaultInjector, FaultRecord
from repro.experiments.runner import (
    ExperimentConfig,
    make_balancer,
    make_cluster_config,
    make_schedule,
    make_workload,
)
from repro.replication.cluster import MembershipEvent, ReplicatedCluster, RunResult


@dataclass(frozen=True)
class ElasticityConfig:
    """One elasticity scenario: a base experiment plus churn on top."""

    base: ExperimentConfig
    #: autoscaling policy; ``None`` runs the base cluster statically (the
    #: comparison baseline for the flash-crowd benchmark).
    autoscaler: Optional[AutoscalerConfig] = None
    #: flash crowd: the closed-loop population jumps to ``surge_clients``
    #: inside [surge_start_s, surge_end_s), then falls back.
    surge_start_s: Optional[float] = None
    surge_end_s: Optional[float] = None
    surge_clients: int = 0
    #: one injected replica crash (random victim), restored after the downtime.
    crash_at_s: Optional[float] = None
    crash_downtime_s: float = 20.0
    #: certifier leader fail-over (needs ``certifier_backups`` > 0).
    certifier_failover_at_s: Optional[float] = None
    certifier_backups: int = 2
    fault_seed: int = 11

    def __post_init__(self) -> None:
        if (self.surge_start_s is None) != (self.surge_end_s is None):
            raise ValueError("surge needs both a start and an end")
        if self.surge_start_s is not None:
            if self.surge_end_s <= self.surge_start_s:
                raise ValueError("surge must end after it starts")
            if self.surge_clients <= 0:
                raise ValueError("surge_clients must be positive")


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
                             certifier_backups=config.certifier_backups)
    cluster = ReplicatedCluster(
        workload=make_workload(base),
        balancer=make_balancer(base.policy, base),
        config=cluster_config,
        schedule=make_schedule(base),
    )
    autoscaler = None
    if config.autoscaler is not None:
        autoscaler = Autoscaler(cluster, config.autoscaler)
        autoscaler.start()
    injector = FaultInjector(cluster, seed=config.fault_seed)
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
        lost += max(0, version - replica.proxy.applied_version)
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

    if config.surge_start_s is not None:
        baseline_clients = cluster.config.total_clients

        def surge_on() -> None:
            cluster.clients.set_active_clients(config.surge_clients)

        def surge_off() -> None:
            cluster.clients.set_active_clients(baseline_clients)

        cluster.sim.schedule_at(config.surge_start_s, surge_on)
        cluster.sim.schedule_at(config.surge_end_s, surge_off)

    if config.crash_at_s is not None:
        injector.schedule_crash(config.crash_at_s,
                                downtime_s=config.crash_downtime_s)
    if config.certifier_failover_at_s is not None:
        injector.schedule_certifier_failover(config.certifier_failover_at_s)

    run = cluster.run(duration_s=base.duration_s, warmup_s=base.warmup_s)

    surge_tps = 0.0
    if config.surge_start_s is not None:
        surge_tps = window_throughput(run, config.surge_start_s, config.surge_end_s)

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
    autoscaler = None
    if autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=4,
            max_replicas=8,
            # The 4-replica baseline runs at ~0.8 now that every committed
            # writeset is actually applied at every replica (the certification
            # responses piggyback missed writesets instead of skipping them),
            # so the scale-up threshold sits above that and below the >=0.93
            # the surge produces.
            high_watermark=0.90,
            # Update propagation keeps every replica's disk ~50% busy even
            # when clients are idle (the scaling limit Section 3 attacks),
            # so the scale-down threshold sits above that floor.
            low_watermark=0.65,
            check_interval_s=10.0,
            scale_up_after=2,
            scale_down_after=2,
            cooldown_s=30.0,
            scale_up_step=2,
        )
    return ElasticityConfig(
        base=base,
        autoscaler=autoscaler,
        surge_start_s=120.0,
        surge_end_s=300.0,
        surge_clients=96,
        crash_at_s=200.0 if with_faults else None,
        crash_downtime_s=25.0,
        certifier_failover_at_s=240.0 if with_faults else None,
    )
