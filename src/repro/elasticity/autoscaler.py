"""Utilisation-driven autoscaling of the replica set.

The load balancer already receives smoothed CPU and disk utilisation from
the monitoring daemons (Section 2.4); the autoscaler consumes the same
signal one level up.  When the cluster-wide bottleneck utilisation stays
above a high watermark it grows the replica set (each newcomer pays the
cold-cache catch-up cost), and when it stays below a low watermark it
drains the least-loaded replica away, within ``[min_replicas,
max_replicas]``.  Hysteresis comes from three guards: consecutive-breach
counts, a cooldown after every action, and the monitor's own smoothing.

Every decision forces MALB through its membership-change path: re-group the
replica assignment, re-size to demand, and re-plan update filtering so the
``min_copies`` availability floor survives the churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.replication.cluster import ReplicatedCluster


@dataclass
class AutoscalerConfig:
    """Scaling policy parameters."""

    min_replicas: int = 1
    max_replicas: int = 32
    high_watermark: float = 0.75
    low_watermark: float = 0.30
    check_interval_s: float = 10.0
    #: consecutive breaching checks required before acting (noise guard).
    scale_up_after: int = 2
    scale_down_after: int = 3
    #: quiet time after any scaling action before the next one.
    cooldown_s: float = 30.0
    #: replicas added per scale-up decision (scale-down always steps by one,
    #: because each removal triggers a drain).
    scale_up_step: int = 2
    #: queueing pressure normaliser: outstanding transactions at a replica
    #: divided by this count as an additional load signal.  Utilisation
    #: saturates below 1.0 while admission queues grow without bound, so a
    #: pure-utilisation autoscaler reacts late to a flash crowd; this is the
    #: same refinement MALB applies to its re-allocation signal.
    queue_pressure_norm: int = 12

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError("need 0 <= low_watermark < high_watermark <= 1")
        if self.check_interval_s <= 0:
            raise ValueError("check interval must be positive")
        if self.scale_up_after < 1 or self.scale_down_after < 1:
            raise ValueError("breach counts must be at least 1")
        if self.scale_up_step < 1:
            raise ValueError("scale_up_step must be at least 1")
        if self.queue_pressure_norm < 1:
            raise ValueError("queue_pressure_norm must be at least 1")


@dataclass
class ScalingDecision:
    """One scaling action, for the audit trail."""

    time: float
    action: str            # "scale-up" or "scale-down"
    replicas_before: int
    replicas_after: int
    utilisation: float
    detail: str = ""


class Autoscaler:
    """Grows and shrinks a cluster's replica set from its utilisation."""

    def __init__(self, cluster: "ReplicatedCluster",
                 config: Optional[AutoscalerConfig] = None) -> None:
        self.cluster = cluster
        self.config = config or AutoscalerConfig()
        self.decisions: List[ScalingDecision] = []
        #: (time, load signal, replicas in service) per check, for reports.
        self.history: List[tuple] = []
        self.checks = 0
        self.peak_replicas = len(cluster.replicas)
        self._above = 0
        self._below = 0
        self._last_action_time: Optional[float] = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic checks on the cluster's simulator (idempotent)."""
        if self._started:
            return
        self._started = True
        self.cluster.sim.schedule_periodic(self.config.check_interval_s, self.check)

    def load_signal(self) -> float:
        """Utilisation augmented with queueing pressure (what the policy acts on).

        Per replica: MAX(bottleneck utilisation, outstanding / norm), capped
        at 2.0 so one pathological queue cannot dominate the mean.
        """
        loads = self.cluster.monitor.loads()
        norm = float(self.config.queue_pressure_norm)
        samples = []
        for rid in self.cluster.replica_ids():
            if rid not in loads:
                continue
            pressure = min(2.0, self.cluster.outstanding(rid) / norm)
            samples.append(max(loads[rid].bottleneck, pressure))
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    # ------------------------------------------------------------------
    def check(self) -> Optional[ScalingDecision]:
        """One policy evaluation; returns the decision if one was taken."""
        self.checks += 1
        config = self.config
        now = self.cluster.sim.now
        util = self.load_signal()
        replicas = len(self.cluster.replicas)
        self.peak_replicas = max(self.peak_replicas, replicas)
        self.history.append((now, util, replicas))

        if util >= config.high_watermark:
            self._above += 1
            self._below = 0
        elif util <= config.low_watermark:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0

        if (self._last_action_time is not None
                and now - self._last_action_time < config.cooldown_s):
            return None

        if replicas > config.max_replicas:
            # Membership can exceed the cap without the autoscaler's consent
            # (e.g. a crashed replica restored after a scale-up already
            # replaced it); drain back down one per check.
            victim = self._pick_victim()
            if victim is not None:
                self.cluster.remove_replica(victim)
                return self._act("scale-down", replicas, replicas - 1, util, now,
                                 "above max_replicas, draining replica %d" % victim)

        if self._above >= config.scale_up_after and replicas < config.max_replicas:
            step = min(config.scale_up_step, config.max_replicas - replicas)
            added = [self.cluster.add_replica() for _ in range(step)]
            return self._act("scale-up", replicas, replicas + step, util, now,
                             "added replicas %s" % added)

        if self._below >= config.scale_down_after and replicas > config.min_replicas:
            victim = self._pick_victim()
            if victim is None:
                return None
            self.cluster.remove_replica(victim)
            return self._act("scale-down", replicas, replicas - 1, util, now,
                             "draining replica %d" % victim)
        return None

    def _pick_victim(self) -> Optional[int]:
        """The least-loaded in-service replica (ties broken by highest id,
        so the youngest of equals leaves first)."""
        loads = self.cluster.monitor.loads()
        candidates = [rid for rid in self.cluster.replica_ids() if rid in loads]
        if not candidates:
            return None
        return min(candidates, key=lambda rid: (loads[rid].bottleneck, -rid))

    def _act(self, action: str, before: int, after: int, util: float,
             now: float, detail: str) -> ScalingDecision:
        decision = ScalingDecision(time=now, action=action, replicas_before=before,
                                   replicas_after=after, utilisation=util, detail=detail)
        self.decisions.append(decision)
        obs = self.cluster.observability
        if obs is not None:
            obs.autoscaler_event(decision)
        self.peak_replicas = max(self.peak_replicas, after)
        self._last_action_time = now
        self._above = 0
        self._below = 0
        return decision

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = ["autoscaler: %d checks, %d decisions, peak %d replicas"
                 % (self.checks, len(self.decisions), self.peak_replicas)]
        for decision in self.decisions:
            lines.append("  t=%8.2f  %-10s %d -> %d  util=%.2f  %s"
                         % (decision.time, decision.action, decision.replicas_before,
                            decision.replicas_after, decision.utilisation, decision.detail))
        return "\n".join(lines)
