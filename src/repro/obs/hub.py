"""Attaching observability to a running cluster.

:class:`ObservabilityHub` bundles the two halves of the observability layer
-- a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.registry.TelemetryRegistry` -- and is a
:class:`~repro.replication.cluster.ClusterObserver`, so
``cluster.attach(hub)`` wires it into a
:class:`~repro.replication.cluster.ReplicatedCluster`:

* every replica (present and future: the cluster instruments joiners
  through its ``observers`` list) gets ``replica.obs`` set, which arms
  the transaction-lifecycle trace points and the pull hook;
* ``cluster.observability`` points at the hub, for the cold-path event
  sinks of membership, faults and the autoscaler;
* the registry gets gauges over every existing metrics island (certifier
  stats, buffer pools with their evicted bytes, admission queues, the
  routing table with the monitor samples it stores, the metrics
  collector's abort-reason taxonomy), so each fact keeps one counter;
* optionally, a periodic simulator event snapshots the registry into a
  time-bucketed series.

The zero-overhead contract: a cluster with no hub attached stores ``None``
in ``cluster.observability`` / ``replica.obs`` / ``ctx.trace``, and every
instrumentation site is a single attribute load plus an ``is not None``
test (the same pre-bound no-op pattern the ``replica.metrics`` guard
already uses).  Attaching a hub without a
snapshot interval schedules *no* simulator events, so even the event count
of a seeded run is bit-identical with the hub on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.registry import TelemetryRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.elasticity.autoscaler import ScalingDecision
    from repro.replication.cluster import ReplicatedCluster
    from repro.replication.replica import Replica


class ObservabilityHub:
    """One attachable bundle of tracer + telemetry registry.

    ``snapshot_interval_s`` schedules periodic registry snapshots: these are
    simulator events, so leave it off when comparing against the goldens.
    """

    def __init__(self, tracing: bool = True, telemetry: bool = True,
                 snapshot_interval_s: Optional[float] = None) -> None:
        self.tracer = Tracer() if tracing else None
        self.registry = TelemetryRegistry() if telemetry else None
        self.snapshot_interval_s = snapshot_interval_s
        self.cluster: Optional["ReplicatedCluster"] = None

    # ------------------------------------------------------------------
    # Attachment (the ClusterObserver protocol)
    # ------------------------------------------------------------------
    def instrument_cluster(self, cluster: "ReplicatedCluster") -> None:
        """Register the gauges and the periodic snapshot (once per hub)."""
        if self.cluster is not None and self.cluster is not cluster:
            raise RuntimeError("hub is already attached to another cluster")
        self.cluster = cluster
        cluster.observability = self
        self._register_cluster_gauges(cluster)
        if self.registry is not None and self.snapshot_interval_s is not None:
            registry: TelemetryRegistry = self.registry
            cluster.sim.schedule_periodic(
                self.snapshot_interval_s,
                lambda: registry.snapshot(cluster.sim.now))

    def instrument_replica(self, replica: "Replica") -> None:
        """Arm one replica's trace points (called for joiners too)."""
        replica.obs = self
        if self.tracer is not None:
            self.tracer.set_process_name(replica.replica_id,
                                         "replica %d" % replica.replica_id)

    # ------------------------------------------------------------------
    # Cold-path event sinks (called through ``cluster.observability``)
    # ------------------------------------------------------------------
    def record_pull(self, replica_id: int, trigger: str, fetched: int,
                    now: float) -> None:
        """A propagation pull completed (periodic tick or lag notification)."""
        registry = self.registry
        if registry is not None:
            registry.counter("pulls.%s" % trigger).inc()
            if fetched:
                registry.counter("pulls.writesets_fetched").inc(fetched)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("pull", "propagation", now, replica_id,
                           args={"trigger": trigger, "fetched": fetched})

    def membership_event(self, now: float, kind: str, replica_id: int,
                         detail: str) -> None:
        if self.registry is not None:
            self.registry.counter("membership.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "membership", now, replica_id,
                                args={"detail": detail})

    def fault_event(self, now: float, kind: str, replica_id: int,
                    detail: str) -> None:
        if self.registry is not None:
            self.registry.counter("faults.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "fault", now, replica_id,
                                args={"detail": detail})

    def rpc_event(self, replica_id: int, kind: str, now: float,
                  args: Optional[Dict[str, object]] = None) -> None:
        """An at-least-once certification RPC event (timeout, retry,
        stale-response, shed) at one replica.  Only fired in channel mode."""
        if self.registry is not None:
            self.registry.counter("rpc.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "rpc", now, replica_id, args=args)

    def autoscaler_event(self, decision: "ScalingDecision") -> None:
        if self.registry is not None:
            self.registry.counter("autoscaler.%s" % decision.action).inc()
        if self.tracer is not None:
            self.tracer.instant(decision.action, "autoscaler", decision.time, -1,
                                args={"replicas_before": decision.replicas_before,
                                      "replicas_after": decision.replicas_after,
                                      "utilisation": decision.utilisation,
                                      "detail": decision.detail})

    # ------------------------------------------------------------------
    # Gauges over the existing metrics islands
    # ------------------------------------------------------------------
    def _register_cluster_gauges(self, cluster: "ReplicatedCluster") -> None:
        registry = self.registry
        if registry is None:
            return
        certifier = cluster.certifier
        metrics = cluster.metrics
        routing = cluster.routing

        registry.gauge("cluster.replicas_in_service",
                       lambda: len(cluster.replicas))
        registry.gauge("cluster.routing_version", lambda: routing.version)
        registry.gauge("cluster.outstanding_total",
                       lambda: sum(routing.outstanding.get(rid, 0)
                                   for rid in routing.replica_ids()))
        # A depth, not a running total: transactions waiting for an
        # admission slot right now, over the replicas in service.
        registry.gauge("admission.queued",
                       lambda: sum(len(r.waiting)
                                   for r in cluster.replicas.values()))
        # Running totals sum over every replica the cluster built, so a
        # crash or a retirement never makes them go down.
        built = cluster.built_replicas
        registry.gauge("admission.admitted_total",
                       lambda: sum(r.admitted_total
                                   for r in built.values()))

        registry.gauge("certifier.requests", lambda: certifier.stats.requests)
        registry.gauge("certifier.commits", lambda: certifier.stats.commits)
        registry.gauge("certifier.aborts", lambda: certifier.stats.aborts)
        registry.gauge("certifier.notifications_sent",
                       lambda: certifier.stats.notifications_sent)
        registry.gauge("certifier.batches", lambda: certifier.stats.batches)
        registry.gauge("certifier.current_version",
                       lambda: certifier.current_version)
        # Read at sample time: a fail-over replaces the certifier's log.
        registry.gauge("certifier.log_entries", lambda: len(certifier.log))

        def buffer_totals() -> Dict[str, float]:
            requested = missed = resident = evicted = 0.0
            in_service = cluster.replicas
            for replica_id, replica in built.items():
                stats = replica.engine.buffer_pool.stats
                evicted += stats.evicted_bytes
                if replica_id in in_service:
                    requested += stats.bytes_requested
                    missed += stats.bytes_missed
                    resident += replica.engine.buffer_pool.resident_bytes
            hit_ratio = 1.0 if requested <= 0 else 1.0 - missed / requested
            return {"resident_bytes": resident, "evicted_bytes": evicted,
                    "hit_ratio": hit_ratio}

        registry.gauge("buffer.totals", buffer_totals)
        registry.gauge("propagation.writesets_applied",
                       lambda: sum(r.writesets_applied
                                   for r in built.values()))
        registry.gauge("propagation.writesets_filtered",
                       lambda: sum(r.writesets_filtered
                                   for r in built.values()))

        registry.gauge("metrics.completed", lambda: metrics.completed)
        registry.gauge("metrics.updates_completed",
                       lambda: metrics.updates_completed)
        registry.gauge("metrics.aborts", lambda: metrics.aborts)
        registry.gauge("metrics.abort_reasons",
                       lambda: dict(sorted(metrics.abort_reasons.items())))

        def monitor_means() -> Dict[str, float]:
            loads = [routing.load_of(rid) for rid in routing.replica_ids()]
            if not loads:
                return {"cpu": 0.0, "disk": 0.0}
            n = float(len(loads))
            return {"cpu": sum(s.cpu for s in loads) / n,
                    "disk": sum(s.disk for s in loads) / n}

        registry.gauge("monitor.mean_load", monitor_means)

        def replica_detail() -> Dict[str, Dict[str, object]]:
            detail: Dict[str, Dict[str, object]] = {}
            for rid in routing.replica_ids():
                replica = cluster.replicas[rid]
                pool = replica.engine.buffer_pool
                sample = routing.load_of(rid)
                detail[str(rid)] = {
                    "outstanding": routing.outstanding.get(rid, 0),
                    "queued": len(replica.waiting),
                    "lag": replica.lag,
                    "applied_version": replica.applied_version,
                    "buffer_resident_bytes": pool.resident_bytes,
                    "buffer_hit_ratio": pool.stats.hit_ratio,
                    "cpu": sample.cpu,
                    "disk": sample.disk,
                }
            return detail

        registry.gauge("replicas.detail", replica_detail)

        if cluster.network is not None:
            network = cluster.network
            registry.gauge("net.summary", network.summary)
            registry.gauge("rpc.timeouts_total",
                           lambda: sum(r.rpc_timeouts
                                       for r in built.values()))
            registry.gauge("rpc.retries_total",
                           lambda: sum(r.rpc_retries
                                       for r in built.values()))
            registry.gauge("rpc.stale_responses_total",
                           lambda: sum(r.rpc_stale_responses
                                       for r in built.values()))
            registry.gauge("rpc.shed_unreachable_total",
                           lambda: sum(r.shed_unreachable
                                       for r in built.values()))
            registry.gauge("certifier.dedup_hits",
                           lambda: certifier.stats.dedup_hits)
            registry.gauge("certifier.stale_requests",
                           lambda: certifier.stats.stale_requests)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def final_snapshot(self) -> Optional[Dict[str, object]]:
        """Take one last registry snapshot at the attached cluster's now."""
        if self.registry is None:
            return None
        now = self.cluster.sim.now if self.cluster is not None else 0.0
        return self.registry.snapshot(now)

    def export_trace(self, path: str) -> None:
        if self.tracer is None:
            raise RuntimeError("no tracer attached to this hub")
        self.tracer.export(path)

    def export_telemetry(self, path: str) -> None:
        if self.registry is None:
            raise RuntimeError("no registry attached to this hub")
        self.final_snapshot()
        extra: Dict[str, object] = {}
        if self.tracer is not None:
            extra["stage_latency"] = self.tracer.stages.to_dict()
        self.registry.export(path, extra=extra)
