"""Load balancer interface.

In Tashkent+ the load balancer is a JDBC-driver shim in front of the
replicated cluster (Section 4.2.1): the application asks it for a connection
and names the transaction type it is about to run; the balancer picks a
replica, forwards all requests, and observes completions.  Memory-aware
balancers additionally consume catalog metadata, execution plans and the
per-replica CPU/disk utilisation reported by the monitoring daemons, and
they may install update filters at the replicas.

This module defines the interface every policy implements
(:class:`LoadBalancer`) and the narrow view of the cluster a policy is given
(:class:`ClusterView`).  Keeping the view narrow enforces the paper's
information model: a policy can only use information the real middleware
could obtain (transaction type, outstanding connections, utilisation,
catalog metadata and plans) -- never the simulator's ground truth.

Everything a policy knows about replicas -- who is live, how many
transactions each has outstanding, and the smoothed utilisation the
monitoring daemons report -- lives in one place, the view's
:class:`~repro.core.routing.RoutingTable`.  Its outstanding counters are
event-driven (the cluster bumps them at dispatch and each replica
decrements them when a transaction finishes or is failed) and the daemons
publish their samples straight into it, so a policy's ``dispatch``
reads cached state instead of re-deriving it per dispatch.  A policy is not
notified per transaction.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Protocol, Set

from repro.core.routing import RoutingTable
from repro.storage.catalog import Catalog
from repro.storage.planner import QueryPlanner
from repro.workloads.spec import TransactionType, WorkloadSpec


class ClusterView(Protocol):
    """What a load-balancing policy is allowed to see of the cluster."""

    #: Event-maintained routing state: the live replica ids, per-replica
    #: outstanding counters, the monitor daemons' smoothed CPU/disk samples
    #: and the effective-load scores built from them.
    routing: RoutingTable

    def replica_memory_bytes(self) -> int:
        """Buffer memory available at each replica, after the fixed overhead
        (the paper subtracts 70 MB for OS, PostgreSQL and proxy processes)."""
        ...

    def catalog(self) -> Catalog:
        """Catalog metadata (schema + relpages), as the balancer would query it."""
        ...

    def planner(self) -> QueryPlanner:
        """The EXPLAIN interface of the database."""
        ...

    def workload(self) -> WorkloadSpec:
        """The set of transaction types the application has registered."""
        ...


class LoadBalancer(abc.ABC):
    """Base class for all dispatching policies."""

    #: human-readable policy name used in reports and benchmark output.
    name: str = "abstract"

    def __init__(self) -> None:
        self.view: Optional[ClusterView] = None
        self.routing: Optional[RoutingTable] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, view: ClusterView) -> None:
        """Give the policy its view of the cluster.  Called once at start-up."""
        self.view = view
        self.routing = view.routing
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses: runs after the view becomes available."""

    def _require_view(self) -> ClusterView:
        if self.view is None:
            raise RuntimeError("load balancer %r used before attach()" % (self.name,))
        return self.view

    def _require_routing(self) -> RoutingTable:
        if self.routing is None:
            raise RuntimeError("load balancer %r used before attach()" % (self.name,))
        return self.routing

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def dispatch(self, txn_type: TransactionType) -> int:
        """Pick the replica that should execute the next instance of ``txn_type``."""

    def on_membership_change(self) -> None:
        """Notification that the cluster's replica set changed.

        Called after a replica joins, leaves, crashes or is restored
        (elasticity).  The new membership is whatever
        ``routing.replica_ids()`` now reports.  Stateless policies need
        nothing here; policies that own a replica assignment (MALB) must
        reconcile it.
        """

    # ------------------------------------------------------------------
    # Periodic work and update filtering
    # ------------------------------------------------------------------
    def periodic(self, now: float) -> None:
        """Called on a fixed interval; dynamic policies rebalance here."""

    def filter_tables(self, replica_id: int) -> Optional[Set[str]]:
        """Tables whose remote writesets ``replica_id`` must apply.

        ``None`` means "apply everything" (no update filtering).  Only the
        memory-aware balancer with update filtering enabled returns a set.
        """
        return None

    def observe_mix(self, type_counts: Dict[str, int]) -> None:
        """Feed the policy an observation of the transaction mix.

        The cluster calls this with a sample of recently requested
        transaction types (name -> count) before the run starts.  Policies
        that allocate replicas to transaction groups use it to size their
        allocation to the demand; baselines ignore it.
        """

    def ingest_mix_counts(self, type_counts: Dict[str, int]) -> None:
        """Fold a batch of streamed demand counters into the policy's estimate.

        The admission layer counts issued transaction types incrementally
        (integer counters in the workload generator) and drains them to the
        policy in batch -- before every periodic tick and before every
        membership change -- instead of the policy paying a dict update per
        dispatched transaction.  Unlike :meth:`observe_mix`, ingesting never
        triggers re-sizing; the policy acts on the updated estimate at its
        own rebalance points.  Baselines ignore it.
        """

    def preferred_relations(self, replica_id: int) -> Optional[Dict[str, int]]:
        """Relations (name -> bytes) this policy expects ``replica_id`` to serve.

        Used only to pre-warm replica caches to the steady state the policy
        would converge to, so short simulated runs measure steady-state
        behaviour rather than the cold-start transient.  ``None`` means the
        policy has no affinity (baselines): the replica is warmed with a
        proportional slice of the whole database.
        """
        return None

    def groupings(self) -> Dict[str, List[str]]:
        """Group id -> member transaction types; empty for policies
        without transaction groups."""
        return {}

    def replica_counts(self) -> Dict[str, int]:
        """Group id -> replicas currently allocated; empty for policies
        without transaction groups."""
        return {}
