"""The replication proxy attached to each replica.

Tashkent is "pure replication middleware": a transparent proxy sits in front
of every database replica (Figure 1).  The proxy

* performs admission control with the Gatekeeper algorithm so bursts do not
  overload the database [ENTZ04],
* forwards certification requests to the certifier -- batched, with at most
  one round trip in flight per proxy -- and applies the remote writesets
  piggybacked on the response before committing or retrying,
* pulls new updates periodically (every 500 ms in the prototype) when the
  replica has been idle, and reacts to the certifier's lag notifications,
* and, for Tashkent+, stores the update-filtering table list and forwards
  only the writesets for those tables to the database (Section 4.2.3).

The proxy is deliberately free of simulator details; the
:class:`~repro.replication.replica.Replica` wires its decisions into the
event loop.  Its parameters are fixed, as in the prototype, and each is a
constant in the module that reads it: the Gatekeeper limit here, the
certification round trip and its RPC policy in :mod:`.replica`, the pull
interval and lag-notification latency in :mod:`.cluster`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Set

if TYPE_CHECKING:
    from repro.replication.certifier import LagSubscriptionIndex


#: Gatekeeper limit on transactions concurrently inside the database;
#: further arrivals queue in the proxy.
MAX_CONCURRENCY = 8


class AdmissionController:
    """Gatekeeper-style admission control: bounded in-database concurrency.

    The handoff is allocation-free: callers queue slotted *tasks* (anything
    with a no-argument ``start()`` method -- in practice the replica's
    ``TransactionContext``) rather than bound callables, so neither
    admission nor the release->admit handoff allocates.  ``queued`` is a
    maintained plain attribute, readable per dispatch (e.g. as a queueing
    pressure signal next to the routing table's outstanding counters)
    without touching the deque.
    """

    __slots__ = ("max_concurrency", "active", "queued", "_waiting",
                 "admitted_total", "queued_total")

    def __init__(self, max_concurrency: int) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.max_concurrency = max_concurrency
        self.active = 0
        self.queued = 0
        self._waiting: Deque = deque()
        self.admitted_total = 0
        self.queued_total = 0

    def admit(self, task) -> None:
        """Start ``task`` now if a slot is free, otherwise queue it (FIFO)."""
        if self.active < self.max_concurrency:
            self.active += 1
            self.admitted_total += 1
            task.start()
        else:
            self.queued_total += 1
            self.queued += 1
            self._waiting.append(task)

    def release(self) -> None:
        """A transaction finished: free its slot and admit the next waiter.

        The release->admit handoff is inlined: when somebody is waiting the
        slot is passed straight to the head of the queue (``active`` never
        dips and re-climbs), which is both cheaper and preserves the
        invariant that the queue is non-empty only while every slot is
        taken.
        """
        if self.active <= 0:
            raise RuntimeError("release() without a matching admit()")
        if self.queued:
            self.queued -= 1
            self.admitted_total += 1
            self._waiting.popleft().start()
        else:
            self.active -= 1

    def reset(self) -> None:
        """The replica crashed: every slot and waiter is gone.  The totals
        are running counts and survive."""
        self.active = 0
        self.queued = 0
        self._waiting.clear()


class ReplicaProxy:
    """Per-replica middleware state: admission, filtering, propagation cursor."""

    __slots__ = ("replica_id", "admission", "filter_tables",
                 "applied_version", "writesets_applied", "writesets_filtered",
                 "lag_index")

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.admission = AdmissionController(MAX_CONCURRENCY)
        #: The certifier's lag-subscription index (installed by the replica):
        #: every cursor advance re-arms this proxy's notify-at version there,
        #: so commit batches find lagging replicas without scanning.  None
        #: for a standalone proxy outside a cluster.
        self.lag_index: Optional["LagSubscriptionIndex"] = None
        # Update filtering: the single source of truth for which tables'
        # writesets reach the database.  None means apply everything; a set
        # means apply only those tables.  The predicate is evaluated per
        # item by ``engine.apply_writesets_fast`` (which also drops tables
        # in ``dropped_tables``); nothing else re-implements it.
        self.filter_tables: Optional[Set[str]] = None
        # Versions applied so far (update-propagation cursor).
        self.applied_version = 0
        self.writesets_applied = 0
        self.writesets_filtered = 0

    # ------------------------------------------------------------------
    # Update filtering
    # ------------------------------------------------------------------
    def set_filter(self, tables: Optional[Set[str]]) -> None:
        """Install (or clear) the update-filtering table list."""
        self.filter_tables = set(tables) if tables is not None else None

    # ------------------------------------------------------------------
    # Propagation bookkeeping
    # ------------------------------------------------------------------
    def advance(self, version: int) -> None:
        if version > self.applied_version:
            self.applied_version = version
            index = self.lag_index
            if index is not None:
                index.advanced(self.replica_id, version)

    @property
    def filtering_enabled(self) -> bool:
        return self.filter_tables is not None
