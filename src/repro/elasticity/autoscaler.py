"""Utilisation-driven autoscaling of the replica set.

The load balancer already receives smoothed CPU and disk utilisation from
the monitoring daemons (Section 2.4); the autoscaler consumes the same
signal one level up.  When the cluster-wide bottleneck utilisation stays
above a high watermark it grows the replica set (each newcomer pays the
cold-cache catch-up cost), and when it stays below a low watermark it
drains the least-loaded replica away, between the replica count it started
with and twice that.  Hysteresis comes from three guards: consecutive-breach
counts, a cooldown after every action, and the monitor's own smoothing.

Every decision forces MALB through its membership-change path: re-group the
replica assignment, re-size to demand, and re-plan update filtering so the
``MIN_COPIES`` availability floor survives the churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.replication.cluster import ReplicatedCluster


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
    """Grows and shrinks a cluster's replica set from its utilisation.

    The floor is the cluster's size when the autoscaler is built and the
    ceiling twice that.
    """

    #: Load signal at or above which a check counts as a high breach.  The
    #: 4-replica flash-crowd baseline runs at ~0.8 (every committed writeset
    #: is applied at every replica), so this sits above that and below the
    #: >= 0.93 the surge produces.
    HIGH_WATERMARK = 0.90
    #: Load signal at or below which a check counts as a low breach.  Update
    #: propagation keeps every replica's disk ~50% busy even when clients are
    #: idle (the scaling limit Section 3 attacks), so this sits above that
    #: floor.
    LOW_WATERMARK = 0.65
    CHECK_INTERVAL_S = 10.0
    #: Consecutive breaching checks required before acting (noise guard).
    SCALE_UP_AFTER = 2
    SCALE_DOWN_AFTER = 2
    #: Quiet time after any scaling action before the next one.
    COOLDOWN_S = 30.0
    #: Replicas added per scale-up decision (scale-down always steps by one,
    #: because each removal triggers a drain).
    SCALE_UP_STEP = 2
    #: Queueing pressure normaliser: outstanding transactions at a replica
    #: divided by this count as an additional load signal.  Utilisation
    #: saturates below 1.0 while admission queues grow without bound, so a
    #: pure-utilisation autoscaler reacts late to a flash crowd.  The signal
    #: is ``max(bottleneck, min(2, n / 12))`` for any ``n`` outstanding.
    #: Routing's ``RoutingTable.effective_load`` folds pressure in
    #: differently: it divides by 8, counts pressure only above 1.0, and
    #: raises only the CPU utilisation, so at 6 outstanding and 0.3
    #: utilisation this signal reads 0.5 and routing's CPU reads 0.3.
    QUEUE_PRESSURE_NORM = 12

    def __init__(self, cluster: "ReplicatedCluster") -> None:
        self.cluster = cluster
        self.min_replicas = len(cluster.replicas)
        self.max_replicas = 2 * self.min_replicas
        self.decisions: List[ScalingDecision] = []
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
        self.cluster.sim.schedule_periodic(self.CHECK_INTERVAL_S, self.check)

    def load_signal(self) -> float:
        """Utilisation augmented with queueing pressure (what the policy acts on).

        Per replica: MAX(bottleneck utilisation, outstanding / norm), capped
        at 2.0 so one pathological queue cannot dominate the mean.
        """
        routing = self.cluster.routing
        outstanding = routing.outstanding
        norm = float(self.QUEUE_PRESSURE_NORM)
        samples = []
        for rid in routing.replica_ids():
            pressure = min(2.0, outstanding[rid] / norm)
            samples.append(max(routing.load_of(rid).bottleneck, pressure))
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    # ------------------------------------------------------------------
    def check(self) -> Optional[ScalingDecision]:
        """One policy evaluation; returns the decision if one was taken."""
        now = self.cluster.sim.now
        util = self.load_signal()
        replicas = len(self.cluster.replicas)
        self.peak_replicas = max(self.peak_replicas, replicas)

        if util >= self.HIGH_WATERMARK:
            self._above += 1
            self._below = 0
        elif util <= self.LOW_WATERMARK:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0

        if (self._last_action_time is not None
                and now - self._last_action_time < self.COOLDOWN_S):
            return None

        if replicas > self.max_replicas:
            # Membership can exceed the cap without the autoscaler's consent
            # (e.g. a crashed replica restored after a scale-up already
            # replaced it); drain back down one per check.
            victim = self._pick_victim()
            if victim is not None:
                self.cluster.remove_replica(victim)
                return self._act("scale-down", replicas, replicas - 1, util, now,
                                 "above max_replicas, draining replica %d" % victim)

        if self._above >= self.SCALE_UP_AFTER and replicas < self.max_replicas:
            step = min(self.SCALE_UP_STEP, self.max_replicas - replicas)
            added = [self.cluster.add_replica() for _ in range(step)]
            return self._act("scale-up", replicas, replicas + step, util, now,
                             "added replicas %s" % added)

        if self._below >= self.SCALE_DOWN_AFTER and replicas > self.min_replicas:
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
        routing = self.cluster.routing
        candidates = routing.replica_ids()
        if not candidates:
            return None
        return min(candidates, key=lambda rid: (routing.load_of(rid).bottleneck, -rid))

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
