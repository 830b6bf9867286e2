"""Chaos campaigns: seeded fault schedules with machine-checked invariants.

A chaos run composes the fault repertoire -- flaky-link windows, duplicate
bursts, a replica-certifier partition, a crash storm, certifier fail-over
-- into one seeded schedule over an unreliable network
(:mod:`repro.net.channel`), runs a normal workload through it, then
quiesces the cluster and audits it with the
:class:`~repro.net.invariants.ConsistencyChecker`.  The claim under test is
the paper's: generalized snapshot isolation survives an unreliable network
-- no certified update is lost or applied twice, the log stays a total
order, and degradation is graceful (a partitioned replica sheds update
transactions as ``certifier-unreachable`` while read-only transactions keep
committing locally).

The campaign is fully deterministic: channel fault draws come from
per-link seeded RNGs, fault targets from the injector's seeded RNG, and
RPC backoff jitter is hash-based.  The same :class:`ChaosConfig` always
produces the same run.

Usage::

    result = run_chaos(chaos_soak_config(severity=0.6))
    result.report.raise_if_violated()

or from the command line (the CI ``chaos-smoke`` step)::

    python -m repro.experiments.chaos --severity 0.6 --quick \\
        --audit-json chaos_audit.json --telemetry-json chaos_telemetry.json
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.elasticity.faults import FaultInjector, FaultRecord
from repro.experiments.elasticity import count_lost_updates, window_throughput
from repro.experiments.runner import (
    ExperimentConfig,
    add_observer_arguments,
    make_balancer,
    make_cluster_config,
    make_schedule,
    make_workload,
    run_observed,
)
from repro.net.invariants import ConsistencyChecker, InvariantReport
from repro.replication.cluster import ReplicatedCluster, RunResult


#: Synchronous certifier backups; phase 5 fails the leader over to one.
CERTIFIER_BACKUPS = 2
#: Peak fault intensities (each multiplied by the severity).
MAX_DROP_PROBABILITY = 0.30
MAX_DUPLICATE_PROBABILITY = 0.30
MAX_JITTER_S = 0.004
#: Campaign phases, as fractions of the run duration.
FLAKY_PHASE = (0.15, 0.35)
DUPLICATE_PHASE = (0.40, 0.50)
PARTITION_PHASE = (0.55, 0.68)
CRASH_STORM_AT = 0.72
CRASH_SPACING_S = 6.0
CRASH_DOWNTIME_S = 18.0
CERTIFIER_FAILOVER_AT = 0.75
#: Tail fraction of the run with clients quiesced and every link healthy,
#: so in-flight work resolves before the invariant audit.
QUIESCE_FRACTION = 0.12


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: a base experiment plus a severity-scaled schedule.

    ``severity`` in (0, 1] scales every fault dimension at once -- drop and
    duplication probabilities, jitter, how many links degrade, how many
    replicas the crash storm takes -- so a sweep over severities yields a
    degradation curve against one knob.  Phase times are fractions of the
    run, so shortening ``base.duration_s`` shortens the whole campaign
    (the CI smoke run uses this).
    """

    base: ExperimentConfig
    severity: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")


@dataclass
class ChaosResult:
    """Everything one chaos campaign run produced."""

    config: ChaosConfig
    run: RunResult
    #: The invariant audit taken after quiesce + final pulls.
    report: InvariantReport
    faults: List[FaultRecord] = field(default_factory=list)
    #: Aggregated channel delivery counters (Network.summary()).
    net: Dict[str, float] = field(default_factory=dict)
    #: RPC/dedup counters summed over all replicas + the certifier.
    rpc: Dict[str, int] = field(default_factory=dict)
    #: Update transactions shed as certifier-unreachable.
    shed_unreachable: int = 0
    #: Committed-transaction throughput inside the partition window (the
    #: degradation floor: read-only traffic that kept committing) and in
    #: the healthy tail before quiesce (the recovery level).
    partition_window_tps: float = 0.0
    recovery_window_tps: float = 0.0
    lost_certified_updates: int = 0
    events_processed: int = 0
    #: The resolved absolute schedule, for reports and the audit trail.
    timeline: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok and self.lost_certified_updates == 0

    def summary(self) -> str:
        lines = [
            "chaos campaign: severity=%.2f duration=%.0fs"
            % (self.config.severity, self.config.base.duration_s),
            "  invariants: %s" % ("OK" if self.report.ok else "VIOLATED"),
            "  lost certified updates: %d" % self.lost_certified_updates,
            "  net: sent=%d dropped=%d (partition=%d) duplicated=%d reordered=%d"
            % (self.net.get("sent", 0), self.net.get("dropped", 0),
               self.net.get("dropped_partition", 0),
               self.net.get("duplicated", 0), self.net.get("reordered", 0)),
            "  rpc: timeouts=%d retries=%d stale_responses=%d dedup_hits=%d "
            "stale_requests=%d" % (
                self.rpc.get("timeouts", 0), self.rpc.get("retries", 0),
                self.rpc.get("stale_responses", 0),
                self.rpc.get("dedup_hits", 0), self.rpc.get("stale_requests", 0)),
            "  shed certifier-unreachable: %d" % self.shed_unreachable,
            "  tps: partition-window=%.1f recovery-window=%.1f overall=%.1f"
            % (self.partition_window_tps, self.recovery_window_tps,
               self.run.throughput_tps),
            "  faults injected: %d (%d skipped)"
            % (len(self.faults),
               sum(1 for f in self.faults if f.kind == "skipped")),
        ]
        if not self.report.ok:
            lines.append(self.report.summary())
        return "\n".join(lines)


def chaos_soak_config(severity: float = 0.6, seed: int = 1,
                      duration_s: float = 240.0,
                      num_replicas: int = 4) -> ChaosConfig:
    """The canonical chaos-soak campaign (benchmark scenario and CI share it).

    A TPC-W ordering-mix cluster under MALB-SC: a flaky-link window, a
    duplicate burst, a replica-certifier partition, a two-crash storm with
    online recovery, and a certifier fail-over, all inside one run.
    """
    base = ExperimentConfig(
        name="chaos-soak",
        workload="tpcw",
        db_label="MidDB",
        mix="ordering",
        ram_mb=512,
        policy="MALB-SC",
        num_replicas=num_replicas,
        clients_per_replica=6,
        think_time_s=0.25,
        duration_s=duration_s,
        warmup_s=min(30.0, duration_s * 0.1),
        seed=seed,
    )
    return ChaosConfig(base=base, severity=severity)


def build_chaos_cluster(config: ChaosConfig
                        ) -> Tuple[ReplicatedCluster, FaultInjector,
                                   ConsistencyChecker]:
    """Assemble the cluster, injector and checker; nothing scheduled yet.

    The cluster runs the unreliable-network model, whose links start
    perfect (faults arrive only through scheduled windows, so the quiesced
    tail is loss-free), a replicated certifier, and certifier-log
    truncation disabled so the audit can cross-check every committed
    writeset against the full log.
    """
    base = config.base
    cluster_config = replace(make_cluster_config(base),
                             certifier_backups=CERTIFIER_BACKUPS,
                             log_truncation_interval_s=0.0,
                             network=True)
    cluster = ReplicatedCluster(
        workload=make_workload(base),
        balancer=make_balancer(base.policy, base),
        config=cluster_config,
        schedule=make_schedule(base),
    )
    # Campaign phases span seconds, not minutes: measure degradation and
    # recovery windows on 5 s reporting buckets instead of the default 30 s
    # (nothing has been recorded yet, so the change is safe).
    cluster.metrics.bucket_seconds = 5.0
    checker = ConsistencyChecker(cluster)
    injector = FaultInjector(cluster)
    return cluster, injector, checker


def schedule_campaign(config: ChaosConfig, cluster: ReplicatedCluster,
                      injector: FaultInjector) -> Dict[str, float]:
    """Install the severity-scaled fault schedule; returns the timeline."""
    severity = config.severity
    duration = config.base.duration_s
    replicas = config.base.num_replicas
    drop = MAX_DROP_PROBABILITY * severity
    dup = MAX_DUPLICATE_PROBABILITY * severity
    jitter = MAX_JITTER_S * severity

    timeline: Dict[str, float] = {}

    # Phase 1: flaky links -- drops + jitter (jitter also reorders) on a
    # severity-scaled number of randomly chosen links.
    flaky_start = duration * FLAKY_PHASE[0]
    flaky_len = duration * (FLAKY_PHASE[1] - FLAKY_PHASE[0])
    flaky_links = max(1, round(replicas * 0.5 * severity))
    for i in range(flaky_links):
        injector.schedule_flaky_link(
            flaky_start + i * 1.0, flaky_len,
            drop_probability=drop, jitter_s=jitter,
            reorder_probability=0.2 * severity, reorder_delay_s=4 * jitter)
    timeline["flaky_start_s"] = flaky_start
    timeline["flaky_end_s"] = flaky_start + flaky_len

    # Phase 2: duplicate burst -- every link duplicates heavily for a while,
    # hammering the certifier's idempotency (dedup cache) rather than
    # availability.
    dup_start = duration * DUPLICATE_PHASE[0]
    dup_len = duration * (DUPLICATE_PHASE[1] - DUPLICATE_PHASE[0])
    for replica_id in range(replicas):
        injector.schedule_flaky_link(
            dup_start, dup_len, replica_id=replica_id,
            duplicate_probability=max(dup, 0.15), jitter_s=jitter)
    timeline["duplicate_start_s"] = dup_start
    timeline["duplicate_end_s"] = dup_start + dup_len

    # Phase 3: partition -- one replica loses its certifier link entirely;
    # graceful degradation (shed updates, keep serving reads) is on trial.
    part_start = duration * PARTITION_PHASE[0]
    part_len = duration * (PARTITION_PHASE[1] - PARTITION_PHASE[0])
    injector.schedule_partition(part_start, duration_s=part_len)
    timeline["partition_start_s"] = part_start
    timeline["partition_end_s"] = part_start + part_len

    # Phase 4: crash storm -- severity-scaled number of crashes in quick
    # succession, each restored after a downtime (skip-safe if membership
    # churn got there first).
    storm_at = duration * CRASH_STORM_AT
    crashes = max(1, round((replicas - 1) * 0.6 * severity))
    for i in range(crashes):
        injector.schedule_crash(storm_at + i * CRASH_SPACING_S,
                                downtime_s=CRASH_DOWNTIME_S)
    timeline["crash_storm_s"] = storm_at
    timeline["crashes"] = crashes

    # Phase 5: certifier fail-over mid-recovery, with retried certification
    # RPCs answered idempotently by the new leader's inherited dedup cache.
    failover_at = duration * CERTIFIER_FAILOVER_AT
    injector.schedule_certifier_failover(failover_at)
    timeline["certifier_failover_s"] = failover_at

    # Quiesce: heal everything, then park the closed-loop clients so the
    # in-flight tail resolves before the audit.
    quiesce_at = duration * (1.0 - QUIESCE_FRACTION)
    injector.schedule_heal(quiesce_at)
    cluster.sim.schedule_at(quiesce_at,
                            lambda: cluster.clients.set_active_clients(0))
    timeline["quiesce_s"] = quiesce_at
    return timeline


def run_chaos(config: ChaosConfig, observer=None) -> ChaosResult:
    """Run one chaos campaign end-to-end and audit the invariants.

    ``observer`` is attached to the cluster before the run.  An
    :class:`~repro.obs.ObservabilityHub` captures the degradation/recovery
    curves: with a snapshot interval the telemetry registry records drops,
    timeouts, retries, dedup hits and per-replica lag over time; tracer
    instants mark every fault and RPC event.
    """
    cluster, injector, checker = build_chaos_cluster(config)
    if observer is not None:
        cluster.attach(observer)
    timeline = schedule_campaign(config, cluster, injector)

    base = config.base
    run = cluster.run(duration_s=base.duration_s, warmup_s=base.warmup_s)

    # The quiesce tail usually drains everything, but a replica restored
    # late in the run can still owe work at the horizon (e.g. a recovery
    # replay's disk backlog pushes its last completions past the end).
    # Extend the simulation in small steps until every in-flight
    # transaction has resolved, so the audit sees a truly quiet cluster.
    sim = cluster.sim
    drain_deadline = sim.now + 60.0
    while any(cluster.routing.outstanding.values()) and sim.now < drain_deadline:
        sim.run_until(sim.now + 2.0)
    timeline["drained_until_s"] = sim.now

    # Post-run: restore every link to the perfect config (belt and
    # braces -- the schedule already healed them) so the final catch-up
    # pulls are loss-free, then reconcile the replicas with the log.
    network = cluster.network
    network.heal_all()
    for replica_id in list(network.links):
        network.restore(replica_id)
    lost = count_lost_updates(cluster)

    report = checker.check(expect_quiesced=True)

    certifier_stats = cluster.certifier.stats
    replicas = cluster.built_replicas.values()
    rpc = {
        "timeouts": sum(r.rpc_timeouts for r in replicas),
        "retries": sum(r.rpc_retries for r in replicas),
        "stale_responses": sum(r.rpc_stale_responses for r in replicas),
        "dedup_hits": certifier_stats.dedup_hits,
        "stale_requests": certifier_stats.stale_requests,
    }
    return ChaosResult(
        config=config,
        run=run,
        report=report,
        faults=list(injector.records),
        net=network.summary(),
        rpc=rpc,
        shed_unreachable=sum(r.shed_unreachable for r in replicas),
        partition_window_tps=window_throughput(
            run, timeline["partition_start_s"], timeline["partition_end_s"]),
        recovery_window_tps=window_throughput(
            run, timeline["partition_end_s"], timeline["quiesce_s"]),
        lost_certified_updates=lost,
        events_processed=cluster.sim.events_processed,
        timeline=timeline,
    )


def severity_sweep(severities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
                   seed: int = 1, duration_s: float = 240.0) -> List[ChaosResult]:
    """Run the canonical campaign across severities (degradation curve)."""
    return [run_chaos(chaos_soak_config(severity=s, seed=seed,
                                        duration_s=duration_s))
            for s in severities]


def audit_payload(result: ChaosResult) -> dict:
    """The JSON-exportable audit trail of one campaign (CI artifact)."""
    return {
        "severity": result.config.severity,
        "duration_s": result.config.base.duration_s,
        "seed": result.config.base.seed,
        "ok": result.ok,
        "invariants": {
            "ok": result.report.ok,
            "checked": dict(result.report.checked),
            "violations": [
                {"invariant": v.invariant, "replica_id": v.replica_id,
                 "detail": v.detail}
                for v in result.report.violations
            ],
        },
        "lost_certified_updates": result.lost_certified_updates,
        "net": dict(result.net),
        "rpc": dict(result.rpc),
        "shed_unreachable": result.shed_unreachable,
        "partition_window_tps": result.partition_window_tps,
        "recovery_window_tps": result.recovery_window_tps,
        "throughput_tps": result.run.throughput_tps,
        "abort_reasons": dict(result.run.metrics.abort_reasons),
        "events_processed": result.events_processed,
        "timeline": dict(result.timeline),
        "faults": [asdict(record) for record in result.faults],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run a chaos campaign; fail (exit 1) on any invariant violation.

    Examples::

        python -m repro.experiments.chaos --severity 0.6
        python -m repro.experiments.chaos --quick --audit-json audit.json \\
            --telemetry-json telemetry.json --trace trace.json
        python -m repro.experiments.chaos --sweep 0.25 0.5 0.75 1.0
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Seeded chaos campaign with consistency-invariant audit.")
    parser.add_argument("--severity", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=240.0,
                        help="campaign length in simulated seconds")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--quick", action="store_true",
                        help="short smoke campaign (~120 simulated seconds)")
    parser.add_argument("--sweep", type=float, nargs="+", default=None,
                        metavar="SEVERITY",
                        help="run a severity sweep instead of a single campaign")
    parser.add_argument("--audit-json", default=None, metavar="PATH",
                        help="write the fault audit trail + invariant report here")
    add_observer_arguments(parser)
    args = parser.parse_args(argv)

    duration = 120.0 if args.quick else args.duration

    if args.sweep is not None:
        if args.dsan:
            parser.error("--dsan excludes --sweep")
        results = severity_sweep(args.sweep, seed=args.seed, duration_s=duration)
        for result in results:
            print(result.summary())
            print()
        if args.audit_json:
            with open(args.audit_json, "w") as fh:
                json.dump([audit_payload(r) for r in results], fh, indent=2)
            print("audit trail written to %s" % args.audit_json)
        return 0 if all(r.ok for r in results) else 1

    config = chaos_soak_config(severity=args.severity, seed=args.seed,
                               duration_s=duration,
                               num_replicas=args.replicas)
    result, deterministic = run_observed(
        parser, args, lambda observer: run_chaos(config, observer))
    if result is None:
        return 0 if deterministic else 1
    print(result.summary())

    if args.audit_json:
        with open(args.audit_json, "w") as fh:
            json.dump(audit_payload(result), fh, indent=2)
        print("audit trail written to %s" % args.audit_json)
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
