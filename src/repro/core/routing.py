"""The incremental routing layer shared by the cluster and every balancer.

Dispatching is the one operation the middleware performs for *every*
transaction, so its cost must not grow with anything but the number of
candidate replicas.  Before this layer existed, each dispatch re-derived the
state it needed from scratch: the cluster sorted its replica-id list, MALB
copied its group's replica list out of the allocator, and the least-loaded
argmin re-discovered the outstanding counters through ``getattr`` probes on
the view.  :class:`RoutingTable` replaces all of that with state that is
maintained *incrementally* by the events that actually change it:

* ``on_dispatch`` (called by the cluster) and ``on_complete`` (called by
  the replica) keep the per-replica outstanding counters exact -- they are
  the admission layer's single source of truth, also used by drain/crash
  accounting in the elasticity subsystem;
* membership changes (:meth:`add_replica` / :meth:`remove_replica`) bump a
  ``version`` and rebuild the cached replica-id tuple, so policies can key
  their own caches (MALB's type -> candidate-replica table) off it instead
  of re-deriving routing state per call;
* the monitor publishes smoothed load samples (:meth:`publish_load`) and
  keeps no copy: this table is the one store of them, read by the
  balancers, the autoscaler and the telemetry gauges through
  :meth:`load_of`; :meth:`effective_load` folds queueing pressure into them
  behind a cache that the dispatch/complete/publish events invalidate by
  construction (the cache key embeds the outstanding count and the sample
  object), so reading the score never re-samples and costs O(1).

The table deliberately stores *only* information the paper's middleware
could observe (outstanding connections and the monitoring daemons' smoothed
utilisation) -- it is the load half of the
:class:`~repro.core.balancer.ClusterView`, not a side channel into the
simulator's ground truth.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.sim.monitor import LoadSample

_ZERO_SAMPLE = LoadSample()

#: Outstanding transactions that count as one saturated CPU in effective_load.
QUEUE_PRESSURE_NORM = 8


class RoutingTable:
    """Event-maintained per-replica load accounting and membership cache.

    One instance is owned by the cluster (or by a test's fake view); the
    balancers read it through ``view.routing``.  All mutation happens through
    the event hooks, so the counters stay exact under retries, aborts,
    crash-in-flight failures and drains: every admission calls
    :meth:`on_dispatch` exactly once, and every completion path -- commit,
    client-visible abort, or crash-time failure -- calls :meth:`on_complete`
    exactly once (the replica's epoch fence guarantees at-most-once).
    """

    __slots__ = ("version", "outstanding", "_live", "_live_set", "_samples",
                 "_eff_cache")

    def __init__(self) -> None:
        #: bumped on every membership change; policies key candidate caches
        #: off (allocator identity, allocator version, this version).
        self.version = 0
        #: per-replica outstanding counts.  A plain attribute on purpose:
        #: the argmin over it runs once per dispatched transaction, so
        #: balancers bind the dict locally and pay one lookup per candidate.
        #: Mutate it only through on_dispatch/on_complete.  Entries survive
        #: removal from the live set: draining and crash accounting still
        #: read them until the last in-flight transaction of a departed
        #: replica resolves, after which purge_replica erases them.
        self.outstanding: Dict[int, int] = {}
        self._live: Tuple[int, ...] = ()
        self._live_set: FrozenSet[int] = frozenset()
        self._samples: Dict[int, LoadSample] = {}
        # rid -> (outstanding-at-build, sample-at-build, effective LoadSample).
        self._eff_cache: Dict[int, Tuple[int, LoadSample, LoadSample]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_replica(self, replica_id: int) -> None:
        """Admit a replica to the live set (idempotent for re-activation)."""
        self.outstanding.setdefault(replica_id, 0)
        if replica_id not in self._live_set:
            self._live_set = self._live_set | {replica_id}
            self._live = tuple(sorted(self._live_set))
        self.version += 1

    def remove_replica(self, replica_id: int) -> None:
        """Drop a replica from the live set, keeping its outstanding counter
        (draining and crash-failing stay accountable until it hits zero)."""
        if replica_id in self._live_set:
            self._live_set = self._live_set - {replica_id}
            self._live = tuple(sorted(self._live_set))
        self._samples.pop(replica_id, None)
        self._eff_cache.pop(replica_id, None)
        self.version += 1

    def purge_replica(self, replica_id: int) -> None:
        """Erase every trace of a fully-departed replica.

        ``remove_replica`` keeps the outstanding counter so draining and
        crash accounting can watch it reach zero; once the departure is
        resolved (drained, retired, or its in-flight set failed), the
        cluster calls this to drop the counter and any effective-load
        score read after removal.  (No sample can arrive after removal: the
        cluster unregisters the replica's monitor in the same step.)  Not a
        routing change -- the replica already left the live set -- so the
        version is not bumped.  Purging a live replica is a bug.
        """
        if replica_id in self._live_set:
            raise ValueError("cannot purge live replica %d" % replica_id)
        self.outstanding.pop(replica_id, None)
        self._eff_cache.pop(replica_id, None)

    def replica_ids(self) -> Tuple[int, ...]:
        """Live replica ids, ascending.  Cached: rebuilt only on membership
        change, never per dispatch."""
        return self._live

    def replica_id_set(self) -> FrozenSet[int]:
        """The live ids as a frozenset, for O(1) membership tests (LARD)."""
        return self._live_set

    # ------------------------------------------------------------------
    # Event-driven load accounting
    # ------------------------------------------------------------------
    def on_dispatch(self, replica_id: int) -> None:
        """A transaction was admitted to ``replica_id``."""
        self.outstanding[replica_id] += 1

    def on_complete(self, replica_id: int) -> None:
        """A transaction dispatched to ``replica_id`` resolved (commit,
        abort back to the client, or crash-time failure)."""
        self.outstanding[replica_id] -= 1

    def publish_load(self, replica_id: int, sample: LoadSample) -> None:
        """The monitor's smoothed sample for ``replica_id`` (event-driven:
        called once per monitoring interval, not read back per dispatch)."""
        self._samples[replica_id] = sample

    def load_of(self, replica_id: int) -> LoadSample:
        """The latest published sample; zero load before the first one."""
        return self._samples.get(replica_id, _ZERO_SAMPLE)

    def effective_load(self, replica_id: int) -> LoadSample:
        """Smoothed utilisation with queueing pressure folded in.

        Raw utilisation saturates at 100%, so once several groups queue it
        no longer distinguishes an overloaded group from a merely busy one;
        the outstanding-connection count (which the balancer sees anyway,
        Section 4.3) is folded in as additional pressure.  The outstanding
        counter subsumes the admission queue: everything dispatched but not
        yet completed -- queued at admission, inside the database, or
        certifying -- counts, so no consumer needs to re-sample the depth
        of each replica's ``waiting`` queue to see queueing build up.  The result is
        cached per replica; the cache key embeds the outstanding count and
        the published sample, so dispatch/complete/publish events invalidate
        it implicitly and a read never recomputes unless the inputs moved.
        """
        n = self.outstanding.get(replica_id, 0)
        sample = self._samples.get(replica_id, _ZERO_SAMPLE)
        cached = self._eff_cache.get(replica_id)
        if cached is not None and cached[0] == n and cached[1] is sample:
            return cached[2]
        pressure = min(2.0, n / float(QUEUE_PRESSURE_NORM))
        effective = LoadSample(
            cpu=max(sample.cpu, pressure if pressure > 1.0 else sample.cpu),
            disk=sample.disk,
        )
        self._eff_cache[replica_id] = (n, sample, effective)
        return effective

    # ------------------------------------------------------------------
    # Dispatch primitives
    # ------------------------------------------------------------------
    def least_loaded(self, candidates: Iterable[int]) -> int:
        """The candidate with the fewest outstanding transactions.

        Ties break deterministically by lowest replica id, independent of
        candidate order, so dispatch decisions are stable across membership
        churn (a joining replica re-orders nobody's candidate list into a
        different choice).  This is the simulator's hottest loop: it starts
        from the first candidate, then makes one dict lookup and one
        comparison per candidate that is not a tie or a new minimum.
        """
        counts = self.outstanding
        remaining = iter(candidates)
        for best in remaining:
            break
        else:
            raise ValueError("least_loaded needs at least one candidate")
        best_outstanding = counts[best]
        for rid in remaining:
            outstanding = counts[rid]
            if outstanding <= best_outstanding:
                if outstanding < best_outstanding or rid < best:
                    best = rid
                    best_outstanding = outstanding
        return best
