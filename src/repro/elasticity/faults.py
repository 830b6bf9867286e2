"""Fault injection for the replicated cluster.

Drives the failure modes the paper's architecture claims to survive, inside
a running simulation: replica crashes with later restarts (online recovery
through :meth:`~repro.replication.replica.Replica.recover`), fail-over
of the replicated certifier
(:meth:`~repro.replication.certifier.Certifier.fail_over`),
and -- when the cluster runs the unreliable-network model
(``ClusterConfig.network``) -- replica-certifier link partitions, heals
and flaky-link windows (elevated drop/duplication/jitter for a while).
Faults are scheduled at absolute simulated times before or during a run;
targets may be named or left to an RNG seeded with ``FAULT_SEED`` at fire
time, so a campaign is reproducible but does not need to know the
membership in advance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.channel import ChannelConfig

if TYPE_CHECKING:
    from repro.replication.cluster import ReplicatedCluster

#: Target id recorded for faults that do not concern a replica.
NO_REPLICA = -1
#: Seed of the injector's target-choice RNG.
FAULT_SEED = 11


@dataclass
class FaultRecord:
    """One injected (or skipped) fault, for the audit trail."""

    time: float
    #: "crash", "restart", "certifier-failover", "partition", "heal",
    #: "flaky-link", "link-restored" or "skipped".
    kind: str
    replica_id: int
    detail: str = ""


class FaultInjector:
    """Schedules crashes, restarts and certifier fail-over on a cluster."""

    def __init__(self, cluster: "ReplicatedCluster") -> None:
        self.cluster = cluster
        self.records: List[FaultRecord] = []
        self._rng = random.Random(FAULT_SEED)
        # Replica id -> configs of the flaky-link windows open on its link,
        # in start order; the last one holds the link.
        self._open_windows: Dict[int, List[ChannelConfig]] = {}

    # ------------------------------------------------------------------
    # Replica crashes
    # ------------------------------------------------------------------
    def schedule_crash(self, at_s: float, replica_id: Optional[int] = None,
                       downtime_s: Optional[float] = None) -> None:
        """Crash a replica at ``at_s`` (simulated seconds).

        ``replica_id=None`` picks a random replica alive at fire time.  With
        ``downtime_s`` the replica is restored after that much downtime,
        replaying from the certifier log the writesets it missed.  If the
        cluster is down to one replica at fire time the fault is skipped
        (and recorded as skipped) rather than taking the system out.
        """

        def fire() -> None:
            target = replica_id
            alive = self.cluster.replica_ids()
            if target is not None and target not in alive:
                self._record("skipped", target if target is not None else NO_REPLICA,
                             "crash target not in service")
                return
            if len(alive) <= 1:
                self._record("skipped", NO_REPLICA, "only one replica in service")
                return
            if target is None:
                target = self._rng.choice(alive)
            self.cluster.crash_replica(target)
            self._record("crash", target, "")
            if downtime_s is not None:
                self.cluster.sim.schedule(downtime_s, lambda: self._restart(target))

        self.cluster.sim.schedule_at(at_s, fire)

    def _restart(self, replica_id: int) -> None:
        # Skip-safe: between the crash and this scheduled restart the target
        # may have been restored by someone else, retired, or removed by the
        # autoscaler -- restore_replica would raise on a non-crashed
        # replica.  Record the skip instead so campaigns compose freely.
        if not self.cluster.is_crashed(replica_id):
            self._record("skipped", replica_id,
                         "restart target is no longer crashed")
            return
        replayed = self.cluster.restore_replica(replica_id)
        self._record("restart", replica_id, "replayed %d writesets" % replayed)

    # ------------------------------------------------------------------
    # Certifier fail-over
    # ------------------------------------------------------------------
    def schedule_certifier_failover(self, at_s: float) -> None:
        """Crash the certifier leader and fail over to a backup at ``at_s``.

        Requires the cluster to run a replicated certifier
        (``ClusterConfig.certifier_backups > 0``).  The backup is promoted
        in place, so replicas keep talking to the same certifier, the
        promotion is transparent to them and no certified writeset is lost.
        """
        certifier = self.cluster.certifier
        if not certifier.backups:
            raise RuntimeError(
                "cluster has a single certifier; set ClusterConfig.certifier_backups > 0"
            )

        def fire() -> None:
            version = certifier.current_version
            certifier.fail_over()
            self._record("certifier-failover", NO_REPLICA,
                         "leader crash at version %d, %d backups remain"
                         % (version, len(certifier.backups)))

        self.cluster.sim.schedule_at(at_s, fire)

    # ------------------------------------------------------------------
    # Network faults (require ClusterConfig.network)
    # ------------------------------------------------------------------
    def _require_network(self, action: str):
        network = self.cluster.network
        if network is None:
            raise RuntimeError(
                "cannot schedule a %s: the cluster has no network model; "
                "set ClusterConfig.network" % action)
        return network

    def _pick_target(self, replica_id: Optional[int], action: str) -> Optional[int]:
        """Resolve a fault target at fire time (seeded choice when unnamed)."""
        alive = self.cluster.replica_ids()
        if replica_id is not None:
            if replica_id not in alive:
                self._record("skipped", replica_id,
                             "%s target not in service" % action)
                return None
            return replica_id
        if not alive:
            self._record("skipped", NO_REPLICA, "no replica in service")
            return None
        return self._rng.choice(alive)

    def schedule_partition(self, at_s: float, replica_id: Optional[int] = None,
                           duration_s: Optional[float] = None) -> None:
        """Partition one replica's link to the certifier at ``at_s``.

        While partitioned the replica can neither certify updates (its RPC
        retries time out, and after ``RPC_MAX_ATTEMPTS`` it sheds them as
        ``certifier-unreachable``) nor pull or receive notifications --
        read-only transactions keep committing locally.  ``replica_id=None``
        picks a seeded random replica in service at fire time.  With
        ``duration_s`` the link heals itself after that long.
        """
        network = self._require_network("partition")

        def fire() -> None:
            target = self._pick_target(replica_id, "partition")
            if target is None:
                return
            network.partition(target)
            self._record("partition", target, "")
            if duration_s is not None:
                self.cluster.sim.schedule(duration_s,
                                          lambda: self._heal(target))

        self.cluster.sim.schedule_at(at_s, fire)

    def schedule_heal(self, at_s: float,
                      replica_id: Optional[int] = None) -> None:
        """Heal a partitioned link at ``at_s`` (``None`` heals every link)."""
        network = self._require_network("heal")

        def fire() -> None:
            if replica_id is None:
                healed = network.partitioned_ids()
                network.heal_all()
                self._record("heal", NO_REPLICA,
                             "healed links of replicas %s" % (list(healed),))
            else:
                self._heal(replica_id)

        self.cluster.sim.schedule_at(at_s, fire)

    def _heal(self, replica_id: int) -> None:
        network = self.cluster.network
        channel = network.links.get(replica_id)
        if channel is None or not channel.partitioned:
            self._record("skipped", replica_id, "link is not partitioned")
            return
        channel.heal()
        self._record("heal", replica_id, "")

    def schedule_flaky_link(self, at_s: float, duration_s: float,
                            replica_id: Optional[int] = None,
                            drop_probability: float = 0.0,
                            duplicate_probability: float = 0.0,
                            jitter_s: float = 0.0,
                            reorder_probability: float = 0.0,
                            reorder_delay_s: float = 0.0) -> None:
        """Degrade one replica's link for a while, then restore it.

        The link runs with the named fault knobs (the others zero) for
        ``duration_s`` seconds (e.g. a duplicate burst, a lossy window).
        Windows on one link nest: when the window holding the link ends,
        the link returns to the latest still-open window's config, or to
        perfect if none is open.  A window that ends while a later one
        holds the link changes nothing (and is recorded as skipped).  The
        channel's own seeded RNG drives the per-message draws, so the
        window's effects are exactly reproducible.
        """
        if duration_s <= 0:
            raise ValueError("flaky-link duration must be positive")
        network = self._require_network("flaky link")

        def fire() -> None:
            target = self._pick_target(replica_id, "flaky-link")
            if target is None:
                return
            config = ChannelConfig(drop_probability, duplicate_probability,
                                   jitter_s, reorder_probability,
                                   reorder_delay_s)
            open_windows = self._open_windows.setdefault(target, [])
            open_windows.append(config)
            network.degrade(target, config)
            self._record("flaky-link", target,
                         "drop=%.3f dup=%.3f jitter=%.4fs for %.2fs"
                         % (config.drop_probability,
                            config.duplicate_probability,
                            config.jitter_s, duration_s))

            def restore() -> None:
                # Windows are matched by identity: two windows may carry
                # equal configs.
                holds_link = network.link(target).config is config
                open_windows[:] = [w for w in open_windows if w is not config]
                if not holds_link:
                    self._record("skipped", target,
                                 "link holds a later window's config")
                elif open_windows:
                    outer = open_windows[-1]
                    network.degrade(target, outer)
                    self._record("link-restored", target,
                                 "to an open earlier window: drop=%.3f dup=%.3f"
                                 " jitter=%.4fs"
                                 % (outer.drop_probability,
                                    outer.duplicate_probability,
                                    outer.jitter_s))
                else:
                    network.restore(target)
                    self._record("link-restored", target, "")

            self.cluster.sim.schedule(duration_s, restore)

        self.cluster.sim.schedule_at(at_s, fire)

    # ------------------------------------------------------------------
    def _record(self, kind: str, replica_id: int, detail: str) -> None:
        self.records.append(FaultRecord(
            time=self.cluster.sim.now, kind=kind, replica_id=replica_id, detail=detail))
        obs = self.cluster.observability
        if obs is not None:
            obs.fault_event(self.cluster.sim.now, kind, replica_id, detail)
