"""Baseline load-balancing policies: round robin, least connections, LARD.

Section 4.3 of the paper defines the two baselines Tashkent+ is compared
against:

* **LeastConnections** -- "uses no information about the transaction type.
  The number of outstanding requests at a replica is used as a measure for
  balancing load.  LeastConnections is a form of weighted round robin."
* **LARD** -- locality-aware request distribution [PAB+98, ZBCS99]: "the
  algorithm knows only the transaction type and dispatches a transaction to
  a replica where instances of the same transaction type have recently run
  ... It has no information about the working set, neither its size nor its
  contents."

Plain round robin is included as well because the introduction mentions it
as the other conventional strategy; it is useful as a sanity baseline in
tests.

All three read the view's :class:`~repro.core.routing.RoutingTable`: the
live replica ids and the outstanding counters are maintained by the
cluster's dispatch/complete/membership events, so ``dispatch`` never
re-derives them per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.balancer import LoadBalancer
from repro.workloads.spec import TransactionType


class RoundRobinBalancer(LoadBalancer):
    """Dispatch transactions to replicas in strict rotation."""

    name = "RoundRobin"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def dispatch(self, txn_type: TransactionType) -> int:
        replicas = self._require_routing().replica_ids()
        if not replicas:
            raise RuntimeError("cluster has no replicas")
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class LeastConnectionsBalancer(LoadBalancer):
    """Dispatch to the replica with the fewest outstanding transactions.

    Ties are broken by replica id so runs are deterministic.
    """

    name = "LeastConnections"

    def dispatch(self, txn_type: TransactionType) -> int:
        routing = self.routing
        if routing is None:
            raise RuntimeError("load balancer %r used before attach()" % (self.name,))
        return routing.least_loaded(routing.replica_ids())


@dataclass
class _LardTypeState:
    """LARD bookkeeping for one transaction type: its current server set."""

    servers: List[int] = field(default_factory=list)


class LardBalancer(LoadBalancer):
    """Locality-Aware Request Distribution, adapted to transaction types.

    The classic LARD/R algorithm [PAB+98] maintains, per target (here: per
    transaction type), a set of servers that have recently served it.
    Requests are sent to the least-loaded member of that set; if that member
    is too busy (load at ``HIGH_WATERMARK``) -- or the set is empty -- the
    globally least-loaded replica is added to the set.  Members that have not
    been used for a while are dropped so a type's footprint can shrink again.

    Load is measured as outstanding connections, exactly the signal the paper
    says LARD has available ("it has no information about the working set").
    """

    name = "LARD"
    #: Outstanding transactions at which a server counts as too busy.
    HIGH_WATERMARK = 8
    #: Outstanding transactions at or below which a server counts as idle.
    LOW_WATERMARK = 2

    def __init__(self) -> None:
        super().__init__()
        self._types: Dict[str, _LardTypeState] = {}

    # ------------------------------------------------------------------
    def _state(self, type_name: str) -> _LardTypeState:
        if type_name not in self._types:
            self._types[type_name] = _LardTypeState()
        return self._types[type_name]

    def dispatch(self, txn_type: TransactionType) -> int:
        routing = self._require_routing()
        replicas = routing.replica_ids()
        if not replicas:
            raise RuntimeError("cluster has no replicas")
        state = self._state(txn_type.name)
        live = routing.replica_id_set()
        state.servers = [rid for rid in state.servers if rid in live]

        if not state.servers:
            chosen = routing.least_loaded(replicas)
            state.servers.append(chosen)
            return chosen

        chosen = routing.least_loaded(state.servers)
        outstanding = routing.outstanding
        if outstanding[chosen] < self.HIGH_WATERMARK:
            return chosen

        # The type's current servers are overloaded: spill to the globally
        # least-loaded replica (LARD/R set expansion).  This is precisely the
        # behaviour the paper identifies as harmful for large transactions:
        # the new replica's memory gets wiped as well.
        global_choice = routing.least_loaded(replicas)
        if outstanding[global_choice] >= self.HIGH_WATERMARK:
            # Every replica is busy: LARD stops expanding ("turns off").
            return chosen
        if global_choice not in state.servers:
            state.servers.append(global_choice)
        return global_choice

    def periodic(self, now: float) -> None:
        """Shrink server sets whose members have become idle."""
        outstanding = self._require_routing().outstanding
        for state in self._types.values():
            if len(state.servers) <= 1:
                continue
            # Drop the most idle member when the set's total load is low.
            idle = [rid for rid in state.servers
                    if outstanding[rid] <= self.LOW_WATERMARK]
            if len(idle) == len(state.servers):
                state.servers.remove(idle[-1])
