"""Buffer pool: an LRU approximation of the database page cache.

The phenomenon the paper is built around is memory contention in the
database buffer cache: when the combined working sets of the transaction
types executing at a replica exceed its main memory, pages are continuously
evicted and re-read and the replica becomes disk-bound (Section 1 and 5.2).

Tracking individual 8 KB pages of a multi-gigabyte database would be far too
expensive for a simulator that runs hundreds of configurations, so this
buffer pool tracks *fractional residency per relation hot set*: for every
(relation, hot-set) pair it records how many bytes of that hot set are
currently cached, and it maintains LRU ordering across relations.  On an
access the expected number of page misses is the access size times the
non-resident fraction of the hot set (skewed, see ``skew``); a sequential
scan is an access that requests its whole hot set.  Evictions shave bytes
off the least-recently-used relations.

This approximation reproduces the behaviours the paper relies on:

* when the sum of hot sets on a replica fits in memory, the steady-state
  miss rate approaches zero (in-memory execution);
* when it does not, the steady-state miss rate approaches
  ``1 - capacity / combined_hot_set`` for random accesses, i.e. the replica
  does disk I/O on most transactions;
* a large sequential scan displaces other relations' pages abruptly, which
  is exactly the "large request wipes out memory" effect that breaks LARD.

Implementation notes: ``access_many`` is the single hottest function of the
whole simulator (the engine charges each transaction's compiled access plan
through one call, about five accesses per transaction), so per-relation state
lives in one ``__slots__`` record reached through a single lookup in a plain
``dict`` whose insertion order is the LRU order (a relation moves to the MRU
end by deletion and re-insertion, which is cheaper than
``OrderedDict.move_to_end``), and the pool keeps a running residency total so
neither the accessors nor the eviction trigger ever re-sum the relation map.
Two more fast-path facts are maintained incrementally: the most recently used
relation (so the common access-the-same-relation-again case skips the move
entirely), and the combined hot-set watermark (``_hot_total``): while the
combined hot sets fit in capacity the pool can never overflow --
per-relation residency is capped at the hot watermark -- so the eviction
trigger is short-circuited to one attribute test instead of being evaluated
per access.

Within one ``access_many`` call the running state -- the MRU name, the
residency total, the eviction flag, the byte counters and the LRU head once
looked up -- lives in locals and is written back when the call returns.  A
thrashing pool evicts on almost every step, so the call evicts inline: it
shaves the excess off the LRU head, or, when the head holds less than the
excess, empties and drops heads in LRU order until one absorbs the rest.
The general eviction pass (``_evict_to_capacity``) runs only when that walk
reaches the accessed relation itself, which alone then overflows the pool
and is capped; it continues with the running excess, and the locals are
written back before it and re-read after it, so it sees, and may change, the
live state.  Both paths make the same float operations in the same order,
so which one runs never changes a result.  The pool counts each fact once,
in ``BufferPoolStats``: evicted bytes are published from
``stats.evicted_bytes`` (the telemetry ``buffer.totals`` gauge), so eviction
calls nothing.  A step whose hot set is fully resident only adds its request
to the byte counter and moves on: its miss is exactly 0.0, and adding 0.0 to
the non-negative miss totals would not change them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: One access: ``(relation, bytes_needed, hot_set_bytes, sequential)``.
#: ``sequential`` only selects which miss total the step counts towards.
AccessStep = Tuple[str, float, float, bool]


class BufferPoolStats:
    """Cumulative counters for diagnosis and the disk-I/O tables.

    ``__slots__``-based: the counters are bumped on every buffer access.
    """

    __slots__ = ("bytes_requested", "bytes_missed", "accesses", "evicted_bytes")

    def __init__(self) -> None:
        self.bytes_requested = 0.0
        self.bytes_missed = 0.0
        self.accesses = 0
        self.evicted_bytes = 0.0

    @property
    def hit_ratio(self) -> float:
        if self.bytes_requested <= 0:
            return 1.0
        return 1.0 - (self.bytes_missed / self.bytes_requested)


class _RelationState:
    """Cached-bytes and hot-set watermark of one relation.

    Two floats and nothing else: the hit fraction is recomputed on every
    partial hit (``x ** skew`` is deterministic, so no memo of it is kept).
    ``resident <= hot_max`` always holds, so a full hit never needs the
    watermark.  The state (including the ``hot_max`` watermark) is dropped
    when a relation is fully evicted, whether by ``access_many``'s inline
    run of heads or by the general pass.  That is safe for the access path: the
    watermark cap can only bind at or above the *current* access's hot set
    (``new_resident <= hot_set_bytes <= hot_max`` always holds), so a
    re-learned, smaller watermark never shrinks anything actually cached --
    it only means introspection (``hot_set_bytes_of``/``tracked_relations``)
    forgets relations whose bytes are all gone.
    """

    __slots__ = ("resident", "hot_max")

    def __init__(self, resident: float, hot_max: float) -> None:
        self.resident = resident
        self.hot_max = hot_max


class BufferPool:
    """Fractional-residency LRU buffer pool.

    Args:
        capacity_bytes: usable buffer memory of the replica (the paper
            subtracts 70 MB of OS / PostgreSQL / proxy overhead from the
            machine's physical memory before handing the figure to the bin
            packer; callers are expected to do the same here).
    """

    __slots__ = ("capacity_bytes", "_capacity_f", "skew", "_relations",
                 "_resident_total", "_hot_total", "_maybe_evict", "_mru",
                 "stats")

    def __init__(self, capacity_bytes: int, skew: float = 0.35) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer pool capacity must be positive")
        if not 0.0 < skew <= 1.0:
            raise ValueError("skew exponent must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self._capacity_f = float(capacity_bytes)
        #: Access-popularity skew: with a fraction ``f`` of a hot set resident,
        #: the probability that an access hits the cache is ``f ** skew``.
        #: ``skew=1`` models uniformly random accesses; real OLTP accesses are
        #: Zipf-like, so caching half of a hot set captures more than half
        #: of the accesses.  0.35 corresponds to a strongly skewed OLTP workload.
        self.skew = skew
        # relation name -> _RelationState; insertion order is LRU order
        # (oldest first, most recently used last).  States are mutated in
        # place so the dict entry itself is written only on (re)insertion.
        self._relations: Dict[str, _RelationState] = {}
        # Running total of resident bytes across relations.  Maintained
        # incrementally so resident_bytes and the eviction trigger are
        # O(1) instead of re-summing the map on every access.
        self._resident_total = 0.0
        # Combined hot-set watermark (sum of every tracked relation's
        # hot_max).  Residency per relation is capped at its watermark, so
        # while this fits in capacity the pool cannot overflow and
        # _maybe_evict short-circuits the per-access eviction trigger.
        self._hot_total = 0.0
        self._maybe_evict = False
        # Name of the relation currently at the MRU end of the LRU order
        # (None when unknown).  Lets the hottest pattern -- consecutive
        # accesses to the same relation -- skip the move to the MRU end.
        self._mru: Optional[str] = None
        self.stats = BufferPoolStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> float:
        """Total bytes currently cached."""
        return self._resident_total

    def hot_set_bytes_of(self, relation: str) -> float:
        """Largest hot set ever observed for ``relation`` (0 if untracked)."""
        state = self._relations.get(relation)
        return state.hot_max if state is not None else 0.0

    def tracked_relations(self) -> List[str]:
        """Relations with pool state (LRU order).

        A relation whose bytes were all evicted has its state dropped and
        is no longer listed; it reappears on its next access.
        """
        return list(self._relations.keys())

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def access_many(self, steps: Sequence[AccessStep]) -> Tuple[float, float]:
        """Run a sequence of accesses.

        Each step is ``(relation, bytes_needed, hot_set_bytes, sequential)``
        and must already be valid: ``hot_set_bytes > 0`` and
        ``0 <= bytes_needed <= hot_set_bytes``.  A random access of
        ``bytes_needed`` bytes within a hot set misses the expected number
        of uncached bytes; the cached fraction of the hot set grows by the
        miss volume, displacing least-recently-used data if necessary.  A
        sequential scan is an access whose request is its whole hot set.  Returns the summed miss
        volume of the random steps and of the ``sequential`` ones, each
        added up in step order.  The byte counters are added per step in
        step order and written back when the call returns.
        """
        relations = self._relations
        capacity = self._capacity_f
        skew = self.skew
        stats = self.stats
        # Running state kept in locals; written back on return and around
        # the one call that can observe the pool (see the module notes).
        mru = self._mru
        resident_total = self._resident_total
        maybe_evict = self._maybe_evict
        requested = stats.bytes_requested
        missed = stats.bytes_missed
        evicted = stats.evicted_bytes
        # The LRU head's state, once looked up (None: not known).
        head = None
        random_miss = 0.0
        sequential_miss = 0.0
        for relation, bytes_needed, hot_set_bytes, sequential in steps:
            state = relations.get(relation)
            if state is None:
                relations[relation] = state = _RelationState(0.0, hot_set_bytes)
                hot_total = self._hot_total + hot_set_bytes
                self._hot_total = hot_total
                maybe_evict = hot_total > capacity
                mru = relation              # inserted at the MRU end
                resident = 0.0
                hot_max = hot_set_bytes
            else:
                resident = state.resident
                if relation != mru:
                    # Move to the MRU end.
                    del relations[relation]
                    relations[relation] = state
                    mru = relation
                    if state is head:
                        head = None
                if resident >= hot_set_bytes:
                    # Full hit: the miss is exactly 0.0, and adding 0.0 to
                    # the non-negative miss totals cannot change them.  The
                    # watermark cannot grow: resident <= hot_max always.
                    requested += bytes_needed
                    continue
                hot_max = state.hot_max
                if hot_set_bytes > hot_max:
                    hot_total = self._hot_total + (hot_set_bytes - hot_max)
                    self._hot_total = hot_total
                    maybe_evict = hot_total > capacity
                    state.hot_max = hot_max = hot_set_bytes
            # hit fraction = (resident/hot) ** skew; the full-hit endpoint was
            # short-circuited above and the empty one is below (x**skew is by
            # far the costliest op here).
            if resident > 0.0:
                miss_bytes = bytes_needed * (1.0 - (resident / hot_set_bytes) ** skew)
            else:
                miss_bytes = bytes_needed

            # Bring the missed bytes into the cache.  Residency is capped at
            # the largest hot set ever observed for the relation (not this
            # access's hot set -- a narrow access must never shrink what is
            # cached) and at the pool capacity.
            new_resident = resident + miss_bytes
            if new_resident > hot_max:
                new_resident = hot_max
            if new_resident > capacity:
                new_resident = capacity
            state.resident = new_resident
            resident_total += new_resident - resident
            if maybe_evict and resident_total > capacity:
                # _evict_to_capacity inlined for every relation but the
                # accessed one: shave the excess off the LRU head, emptying
                # and dropping heads until one absorbs the rest.  The same
                # float operations in the same order, so the result is
                # bit-identical to the general pass.
                excess = resident_total - capacity
                if head is None:
                    for head in relations.values():
                        break
                head_resident = head.resident
                if head_resident > excess and head is not state:
                    head.resident = head_resident - excess
                    resident_total -= excess
                    evicted += excess
                else:
                    hot_total = self._hot_total
                    while head is not state:
                        if head_resident > excess:
                            head.resident = head_resident - excess
                            resident_total -= excess
                            evicted += excess
                            break
                        resident_total -= head_resident
                        excess -= head_resident
                        evicted += head_resident
                        for head_name in relations:
                            break
                        del relations[head_name]
                        hot_total -= head.hot_max
                        for head in relations.values():
                            break
                        if excess <= 0:
                            break
                        head_resident = head.resident
                    else:
                        # Every other relation is gone and the accessed one
                        # alone overflows the pool: the general pass caps it.
                        self._mru = mru
                        self._resident_total = resident_total
                        self._hot_total = hot_total
                        stats.evicted_bytes = evicted
                        self._evict_to_capacity(relation, excess)
                        mru = self._mru
                        resident_total = self._resident_total
                        hot_total = self._hot_total
                        evicted = stats.evicted_bytes
                        head = None
                    self._hot_total = hot_total
                    maybe_evict = hot_total > capacity

            requested += bytes_needed
            missed += miss_bytes
            if sequential:
                sequential_miss += miss_bytes
            else:
                random_miss += miss_bytes
        self._mru = mru
        self._resident_total = resident_total
        self._maybe_evict = maybe_evict
        stats.accesses += len(steps)
        stats.bytes_requested = requested
        stats.bytes_missed = missed
        stats.evicted_bytes = evicted
        return random_miss, sequential_miss

    def warm(self, relation: str, resident_bytes: float, hot_set_bytes: Optional[float] = None) -> None:
        """Pre-populate the cache (used by tests and warm-start experiments)."""
        hot = hot_set_bytes if hot_set_bytes is not None else resident_bytes
        if hot <= 0:
            return
        relations = self._relations
        state = relations.get(relation)
        if state is None:
            relations[relation] = state = _RelationState(0.0, hot)
            hot_total = self._hot_total + hot
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
            self._mru = relation
            previous = 0.0
        else:
            previous = state.resident
            if hot > state.hot_max:
                hot_total = self._hot_total + (hot - state.hot_max)
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
                state.hot_max = hot
            if relation != self._mru:
                del relations[relation]
                relations[relation] = state
                self._mru = relation
        new_resident = min(float(resident_bytes), hot, self._capacity_f)
        state.resident = new_resident
        self._resident_total += new_resident - previous
        if self._maybe_evict and self._resident_total > self.capacity_bytes:
            self._evict_to_capacity(protect=relation)

    def clear(self) -> None:
        """Empty the pool (cold restart of a replica)."""
        self._relations.clear()
        self._resident_total = 0.0
        self._hot_total = 0.0
        self._maybe_evict = False
        self._mru = None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_to_capacity(self, protect: Optional[str] = None,
                           excess: Optional[float] = None) -> None:
        """Evict bytes from least-recently-used relations until under capacity.

        The most recently accessed relation (``protect``) is evicted last,
        and only if it alone exceeds the pool capacity.  ``excess`` is the
        number of bytes still to shed when ``access_many`` has already
        evicted part of the overflow itself; by default it is the pool's
        whole overflow.
        """
        if excess is None:
            excess = self._resident_total - self.capacity_bytes
        if excess <= 0:
            return
        relations = self._relations
        stats = self.stats
        emptied = None
        # Iterate in place (LRU first); state mutation during iteration is
        # fine, deletions are deferred until after the loop.  Relative order
        # of the surviving relations is unchanged either way.
        for name, state in relations.items():
            if excess <= 0:
                break
            if name == protect:
                continue
            resident = state.resident
            evicted = resident if resident < excess else excess
            remaining = resident - evicted
            state.resident = remaining
            self._resident_total -= evicted
            excess -= evicted
            stats.evicted_bytes += evicted
            if remaining <= 0:
                if emptied is None:
                    emptied = [name]
                else:
                    emptied.append(name)
        if excess > 0 and protect is not None:
            state = relations.get(protect)
            if state is not None:
                # The protected relation alone overflows the pool: cap it.
                resident = state.resident
                evicted = resident if resident < excess else excess
                remaining = resident - evicted
                state.resident = remaining
                self._resident_total -= evicted
                stats.evicted_bytes += evicted
                if remaining <= 0:
                    # Fully evicted: drop the state like every other
                    # relation (the _RelationState drop-on-empty contract),
                    # instead of leaving a resident == 0 entry behind in
                    # the LRU map and tracked_relations().
                    if emptied is None:
                        emptied = [protect]
                    else:
                        emptied.append(protect)
                    if self._mru == protect:
                        self._mru = None
        if emptied is not None:
            hot_total = self._hot_total
            for name in emptied:
                hot_total -= relations.pop(name).hot_max
            if not relations:
                # Re-anchor the running totals on a fully emptied pool so
                # incremental float rounding cannot accumulate.
                self._resident_total = 0.0
                hot_total = 0.0
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
