"""Live cluster membership: join, leave, crash and restore.

Section 3 of the paper: "If a replica crashes and later restarts, standard
recovery is used ... the database can be restored from other copies in the
cluster or by the persistent log at the certifier."  This module turns that
offline story into online operations on a running
:class:`~repro.replication.cluster.ReplicatedCluster`:

* **join** -- a new replica enters with a cold buffer pool and replays the
  entire certifier log through the normal application path
  (:meth:`~repro.replication.replica.Replica.recover`), so its warm-up
  cost (CPU and disk background work) is charged to the simulation;
* **crash** -- the replica vanishes from the balancer's view, its in-flight
  transactions fail back to their clients (who re-issue elsewhere), and
  continuations already in the event queue are fenced off by the replica's
  epoch;
* **restore** -- a crashed replica runs the same
  :meth:`~repro.replication.replica.Replica.recover`: it replays exactly the
  writesets it missed and rejoins with filters cleared (the balancer
  re-plans them);
* **leave** -- graceful drain: no new work is dispatched, in-flight work
  completes, then the replica retires.  A drain deadline bounds how long a
  slow replica can hold up a scale-down.

Every operation notifies the load balancer so policies that own a replica
assignment (MALB) reconcile immediately, and appends a
:class:`MembershipEvent` to an audit trail the experiments report on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.replication.replica import Replica

if TYPE_CHECKING:
    from repro.replication.cluster import ReplicatedCluster


@dataclass
class MembershipEvent:
    """One membership change, for the audit trail."""

    time: float
    kind: str          # "join", "crash", "restore", "leave", "retired"
    replica_id: int
    detail: str = ""


class MembershipManager:
    """Owns the join/leave/crash/restore lifecycle of a cluster's replicas."""

    def __init__(self, cluster: "ReplicatedCluster",
                 drain_poll_interval_s: float = 0.25,
                 drain_timeout_s: float = 60.0) -> None:
        if drain_poll_interval_s <= 0:
            raise ValueError("drain poll interval must be positive")
        if drain_timeout_s <= 0:
            raise ValueError("drain timeout must be positive")
        self.cluster = cluster
        self.drain_poll_interval_s = drain_poll_interval_s
        self.drain_timeout_s = drain_timeout_s
        self.events: List[MembershipEvent] = []
        self.crashed: Dict[int, Replica] = {}
        self.retired: Dict[int, Replica] = {}
        self._draining: Dict[int, Replica] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def alive_count(self) -> int:
        return len(self.cluster.replicas)

    def events_of_kind(self, kind: str) -> List[MembershipEvent]:
        return [event for event in self.events if event.kind == kind]

    def returnable_replicas(self) -> List[Replica]:
        """Replicas out of service that may still need the certifier log.

        Crashed replicas can be restored (replaying from their applied
        version) and draining replicas still have transactions in flight;
        both must hold the certifier-log truncation floor down.  Retired
        replicas never come back and are excluded.
        """
        return list(self.crashed.values()) + list(self._draining.values())

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def add_replica(self) -> int:
        """Bring a brand-new replica into the cluster.

        The newcomer starts with an empty buffer pool and catches up by
        replaying every writeset in the certifier's log; the replay is
        charged as background CPU and disk work, so a join is never free.
        Returns the new replica's id.
        """
        cluster = self.cluster
        replica = cluster._make_replica(cluster._claim_replica_id())
        cluster._activate_replica(replica)
        replayed = replica.recover()
        cluster.notify_membership_changed()
        self._log("join", replica.replica_id,
                  "cold join, replayed %d writesets" % replayed)
        return replica.replica_id

    # ------------------------------------------------------------------
    # Crash / restore
    # ------------------------------------------------------------------
    def crash_replica(self, replica_id: int) -> Replica:
        """Fail a replica abruptly.

        Its in-flight transactions fail back to their clients, which
        re-issue on the surviving replicas; the balancer is reconciled
        before those retries arrive so none of them can land on the corpse.
        """
        cluster = self.cluster
        if replica_id not in cluster.replicas:
            raise KeyError("replica %r is not in service" % (replica_id,))
        if len(cluster.replicas) <= 1:
            raise RuntimeError("refusing to crash the last replica in service")
        replica = cluster._deactivate_replica(replica_id)
        replica.crash()
        self.crashed[replica_id] = replica
        cluster.notify_membership_changed()
        failed = replica.fail_in_flight("crash-in-flight")
        cluster._purge_replica_state(replica_id)
        self._log("crash", replica_id, "failed %d in-flight transactions" % failed)
        return replica

    def restore_replica(self, replica_id: int) -> int:
        """Restart a crashed replica and bring it back into service.

        Standard recovery (Section 3): cold cache, dropped tables restored,
        filters cleared, and exactly the writesets committed since the
        replica's applied version replayed from the certifier's log.
        Returns the number of writesets replayed.
        """
        if replica_id not in self.crashed:
            raise KeyError("replica %r is not crashed" % (replica_id,))
        cluster = self.cluster
        replica = self.crashed.pop(replica_id)
        replayed = replica.recover()
        replica.alive = True
        cluster._activate_replica(replica)
        cluster.notify_membership_changed()
        self._log("restore", replica_id, "replayed %d writesets" % replayed)
        return replayed

    # ------------------------------------------------------------------
    # Graceful leave
    # ------------------------------------------------------------------
    def remove_replica(self, replica_id: int, drain: bool = True) -> None:
        """Take a replica out of the cluster.

        New dispatches stop immediately.  With ``drain`` (the default) the
        replica's in-flight transactions are allowed to finish before it
        retires; past the drain deadline any stragglers are failed the way
        a crash would fail them.  Without ``drain`` the replica retires on
        the spot, failing whatever was in flight.
        """
        cluster = self.cluster
        if replica_id not in cluster.replicas:
            raise KeyError("replica %r is not in service" % (replica_id,))
        if len(cluster.replicas) <= 1:
            raise RuntimeError("refusing to remove the last replica in service")
        replica = cluster._deactivate_replica(replica_id)
        cluster.notify_membership_changed()
        # The routing table keeps the departed replica's outstanding counter
        # alive until its last in-flight transaction resolves, so draining
        # stays exactly accountable after the replica left the live set.
        outstanding = cluster.routing.outstanding
        if not drain or outstanding.get(replica_id, 0) == 0:
            if outstanding.get(replica_id, 0) > 0:
                replica.crash()
                replica.fail_in_flight("drain-straggler")
            self._retire(replica, "immediate")
            return
        self._draining[replica_id] = replica
        self._log("leave", replica_id,
                  "draining %d in-flight transactions" % outstanding[replica_id])
        deadline = cluster.sim.now + self.drain_timeout_s

        def poll() -> None:
            if replica_id not in self._draining:
                return
            if outstanding.get(replica_id, 0) == 0:
                self._draining.pop(replica_id)
                self._retire(replica, "drained")
            elif cluster.sim.now >= deadline:
                self._draining.pop(replica_id)
                replica.crash()
                failed = replica.fail_in_flight("drain-straggler")
                self._retire(replica, "drain deadline, failed %d stragglers" % failed)
            else:
                cluster.sim.schedule(self.drain_poll_interval_s, poll)

        cluster.sim.schedule(self.drain_poll_interval_s, poll)

    def _retire(self, replica: Replica, detail: str) -> None:
        replica.alive = False
        self.retired[replica.replica_id] = replica
        # A retired replica never returns; erase its routing counter, any
        # lingering load sample (its live table is already resolved).
        self.cluster._purge_replica_state(replica.replica_id)
        self._log("retired", replica.replica_id, detail)

    # ------------------------------------------------------------------
    def _log(self, kind: str, replica_id: int, detail: str) -> None:
        self.events.append(MembershipEvent(
            time=self.cluster.sim.now, kind=kind, replica_id=replica_id, detail=detail))
        obs = self.cluster.observability
        if obs is not None:
            obs.membership_event(self.cluster.sim.now, kind, replica_id, detail)

    def describe(self) -> str:
        lines = ["membership: %d in service, %d crashed, %d draining, %d retired" % (
            self.alive_count, len(self.crashed), len(self._draining), len(self.retired))]
        for event in self.events:
            lines.append("  t=%8.2f  %-8s replica %d  %s"
                         % (event.time, event.kind, event.replica_id, event.detail))
        return "\n".join(lines)
