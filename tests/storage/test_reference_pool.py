"""Differential tests: compiled access plans against the per-access path.

``ReferencePool`` keeps the buffer pool's former per-call ``access`` and
``_evict_to_capacity`` verbatim (less a one-point memo of the hit fraction,
since deleted from the pool, which never changed a result), and ``PerAccessEngine`` the engine's former
per-access ``execute`` and per-item ``apply_writesets_fast``.  The production
``BufferPool.access_many``, ``DatabaseEngine.execute`` and the per-shape
``DatabaseEngine.apply_writesets_fast`` must reproduce them exactly: the same
misses, the same counters, the same pool state, the same resource demand, writesets, RNG state and buffer-pool steps -- compared
with ``==``, not approximately.  ``PerAccessEngine`` draws its writeset keys
with ``rng.randrange``, so the per-step writeset and RNG-state comparison is
also the equivalence check for the engine's ``getrandbits`` key draw.
"""

import random
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.storage import disk
from repro.storage.buffer_pool import BufferPool, _RelationState
from repro.storage.catalog import INDEX_PAGES_PER_LOOKUP, Catalog
from repro.storage.engine import DatabaseEngine, WriteItem, WriteSet
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.storage.relation import Schema, table
from repro.workloads.rubis import make_rubis
from repro.workloads.spec import AccessPattern, transaction_type, write
from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw


class ReferencePool(BufferPool):
    """The per-call buffer pool: one ``access`` per step, general eviction,
    LRU order kept in an ``OrderedDict``."""

    def __init__(self, capacity_bytes):
        super().__init__(capacity_bytes)
        self._relations = OrderedDict()

    def access_many(self, steps):
        random_miss = 0.0
        sequential_miss = 0.0
        for relation, bytes_needed, hot_set_bytes, sequential in steps:
            miss = self.access(relation, bytes_needed, hot_set_bytes)
            if sequential:
                sequential_miss += miss
            else:
                random_miss += miss
        return random_miss, sequential_miss

    def access(self, relation, bytes_needed, hot_set_bytes):
        if bytes_needed < 0:
            raise ValueError("bytes_needed must be non-negative")
        if hot_set_bytes <= 0:
            return 0.0
        if bytes_needed > hot_set_bytes:
            bytes_needed = hot_set_bytes

        relations = self._relations
        state = relations.get(relation)
        if state is None:
            relations[relation] = state = _RelationState(0.0, hot_set_bytes)
            hot_total = self._hot_total + hot_set_bytes
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
            self._mru = relation
            resident = 0.0
        else:
            resident = state.resident
            if hot_set_bytes > state.hot_max:
                hot_total = self._hot_total + (hot_set_bytes - state.hot_max)
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
                state.hot_max = hot_set_bytes
            if relation != self._mru:
                relations.move_to_end(relation)
                self._mru = relation
        if resident >= hot_set_bytes:
            miss_bytes = 0.0
        else:
            if resident > 0.0:
                hit_fraction = (resident / hot_set_bytes) ** self.skew
                miss_bytes = bytes_needed * (1.0 - hit_fraction)
            else:
                miss_bytes = bytes_needed
            new_resident = resident + miss_bytes
            if new_resident > state.hot_max:
                new_resident = state.hot_max
            if new_resident > self._capacity_f:
                new_resident = self._capacity_f
            state.resident = new_resident
            self._resident_total += new_resident - resident
            if self._maybe_evict and self._resident_total > self.capacity_bytes:
                self._evict_to_capacity(protect=relation)

        stats = self.stats
        stats.accesses += 1
        stats.bytes_requested += bytes_needed
        stats.bytes_missed += miss_bytes
        return miss_bytes

    def _evict_to_capacity(self, protect=None):
        excess = self._resident_total - self.capacity_bytes
        if excess <= 0:
            return
        relations = self._relations
        stats = self.stats
        emptied = []
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
                emptied.append(name)
        if excess > 0 and protect is not None:
            state = relations.get(protect)
            if state is not None:
                resident = state.resident
                evicted = resident if resident < excess else excess
                remaining = resident - evicted
                state.resident = remaining
                self._resident_total -= evicted
                stats.evicted_bytes += evicted
                if remaining <= 0:
                    emptied.append(protect)
                    if self._mru == protect:
                        self._mru = None
        if emptied:
            hot_total = self._hot_total
            for name in emptied:
                hot_total -= relations.pop(name).hot_max
            if not relations:
                self._resident_total = 0.0
                hot_total = 0.0
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f


class PerAccessEngine(DatabaseEngine):
    """The engine's former execute: one pool call per access, no plan cache.

    Returns ``((cpu_seconds, random_miss, sequential_miss, write_seconds,
    effective_write_bytes), writeset)``; see :func:`demand` for the compiled
    engine's side.
    """

    def execute(self, txn_type):
        catalog = self.catalog
        config = self.config
        pool = self.buffer_pool
        cpu_seconds = txn_type.cpu_ms / 1000.0
        random_read_bytes = 0.0
        sequential_read_bytes = 0.0
        write_bytes = 0.0
        for access in txn_type.reads:
            relation = catalog.get(access.relation)
            if relation is None:
                raise KeyError(access.relation)
            hot_set = float(catalog.size_bytes(access.relation)) * access.selectivity
            if hot_set < PAGE_SIZE_BYTES:
                hot_set = float(PAGE_SIZE_BYTES)
            if access.pattern is AccessPattern.SCAN:
                sequential_read_bytes += pool.access(access.relation, hot_set, hot_set)
                cpu_seconds += (hot_set / (1024.0 * 1024.0)) * \
                    config.cpu_ms_per_scanned_mb / 1000.0
                continue
            if relation.is_table:
                chosen = catalog.smallest_index_of(access.relation)
                if chosen is not None:
                    index_hot = float(catalog.size_bytes(chosen.name)) * access.selectivity
                    if index_hot < PAGE_SIZE_BYTES:
                        index_hot = float(PAGE_SIZE_BYTES)
                    random_read_bytes += pool.access(
                        chosen.name, INDEX_PAGES_PER_LOOKUP * PAGE_SIZE_BYTES,
                        index_hot)
            miss = pool.access(access.relation,
                               access.pages_per_execution * PAGE_SIZE_BYTES, hot_set)
            if access.pages_per_execution >= config.bulk_read_pages_threshold:
                sequential_read_bytes += miss
            else:
                random_read_bytes += miss

        writeset = None
        if txn_type.is_update:
            items = []
            for spec in txn_type.writes:
                touched = spec.pages_dirtied * PAGE_SIZE_BYTES
                random_read_bytes += pool.access(
                    spec.relation, touched, self._write_hot_set(spec.relation))
                write_bytes += touched
                key_space = max(1, catalog.relpages(spec.relation)) * \
                    config.key_space_per_page
                keys = tuple(self.rng.randrange(key_space) for _ in range(spec.rows))
                items.append(WriteItem(spec.relation, keys, spec.pages_dirtied))
            writeset = WriteSet(transaction_type=txn_type.name, items=tuple(items))
        return (cpu_seconds, random_read_bytes, sequential_read_bytes,
                disk.write_seconds(write_bytes),
                disk.effective_write_bytes(write_bytes)), writeset

    def apply_writesets_fast(self, writesets, allowed_tables=None):
        """The former per-item apply: filter and aggregate item by item."""
        cpu_per_item = self.config.cpu_ms_per_writeset_item / 1000.0
        touched_by_relation = {}
        applied_items = 0
        applied_count = 0
        filtered_count = 0
        for writeset in writesets:
            applied_any = False
            for item in writeset.items:
                relation = item.relation
                if allowed_tables is not None and relation not in allowed_tables:
                    continue
                applied_any = True
                applied_items += 1
                touched = item.pages_dirtied * PAGE_SIZE_BYTES
                if relation in touched_by_relation:
                    touched_by_relation[relation] += touched
                else:
                    touched_by_relation[relation] = touched
            if applied_any:
                applied_count += 1
            else:
                filtered_count += 1
        random_read_bytes = 0.0
        write_bytes = 0.0
        if touched_by_relation:
            steps = []
            for relation, touched in touched_by_relation.items():
                hot_set = self._write_hot_set(relation)
                steps.append((relation, min(touched, hot_set), hot_set, False))
                write_bytes += touched
            random_read_bytes, _ = self.buffer_pool.access_many(steps)
        return (cpu_per_item * applied_items, random_read_bytes, write_bytes,
                applied_count, filtered_count)


def demand(result):
    """The resource demand of one ``DatabaseEngine.execute`` result, in the
    form ``PerAccessEngine.execute`` returns it."""
    plan, random_miss, sequential_miss, _ = result
    return (plan.cpu_seconds, random_miss, sequential_miss, plan.write_seconds,
            plan.effective_write_bytes)


def pool_state(pool):
    """Everything observable about a pool, in a form ``==`` compares exactly."""
    stats = pool.stats
    return {
        "relations": [(name, state.resident, state.hot_max)
                      for name, state in pool._relations.items()],
        "mru": pool._mru,
        "resident_total": pool._resident_total,
        "hot_total": pool._hot_total,
        "maybe_evict": pool._maybe_evict,
        "stats": (stats.accesses, stats.bytes_requested, stats.bytes_missed,
                  stats.evicted_bytes),
    }


# --------------------------------------------------------------------------
# Pool level
# --------------------------------------------------------------------------
CAPACITY = 100.0

# One step: a relation, a hot set (up to 1.6x the pool, so a protected
# relation can outgrow it), the requested fraction of that hot set, and the
# sequential flag.  Few relation names make repeats and growing hot sets
# common; relations dropped once fully evicted make cold relations common.
steps_strategy = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.floats(min_value=0.25, max_value=1.6 * CAPACITY, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
).map(lambda t: (t[0], t[1] * t[2], t[1], t[3]))

batches_strategy = st.lists(
    st.tuples(st.lists(steps_strategy, min_size=0, max_size=8),
              st.sampled_from(["many", "one-by-one"])),
    min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(batches_strategy)
def test_access_many_matches_per_call_access(batches):
    pool, reference = BufferPool(CAPACITY), ReferencePool(CAPACITY)
    for steps, mode in batches:
        expected = reference.access_many(steps)
        if mode == "one-by-one":
            # One single-step access_many per step.
            random_miss = sequential_miss = 0.0
            for step in steps:
                step_random, step_sequential = pool.access_many((step,))
                random_miss += step_random
                sequential_miss += step_sequential
            got = (random_miss, sequential_miss)
        else:
            got = pool.access_many(steps)
        assert got == expected
        assert pool_state(pool) == pool_state(reference)


class CountingPool(BufferPool):
    """Counts the general eviction passes ``access_many`` falls back to."""

    general_passes = 0

    def _evict_to_capacity(self, protect=None, excess=None):
        self.general_passes += 1
        super()._evict_to_capacity(protect, excess)


def eviction_kind(pool, steps):
    """Run ``steps`` on a ``CountingPool`` and name the eviction it needed:
    ``"general"`` if a general pass capped the accessed relation, ``"run"``
    if an inline run emptied and dropped a relation, ``"one-head"`` if
    only LRU heads were shaved, or ``None`` if nothing was evicted."""
    passes_before = pool.general_passes
    evicted_before = pool.stats.evicted_bytes
    tracked_before = set(pool.tracked_relations())
    result = pool.access_many(steps)
    if pool.general_passes > passes_before:
        kind = "general"
    elif tracked_before - set(pool.tracked_relations()):
        kind = "run"
    elif pool.stats.evicted_bytes > evicted_before:
        kind = "one-head"
    else:
        kind = None
    return kind, result


def test_both_eviction_paths_are_exercised_and_agree():
    """A long seeded stream on a small pool, then a cap of the accessed
    relation: one-head evictions, inline runs of several heads and general
    passes all run, and none of them drifts from the per-call pool."""
    rng = random.Random(20261016)
    pool, reference = CountingPool(mb(48)), ReferencePool(mb(48))
    names = ["r%d" % i for i in range(9)]
    kinds = {"one-head": 0, "run": 0, "general": 0, None: 0}
    for _ in range(3000):
        steps = []
        for _ in range(rng.randint(1, 6)):
            hot = mb(rng.uniform(0.5, 30.0))
            steps.append((rng.choice(names), hot * rng.random() ** 3, hot,
                          rng.random() < 0.2))
        kind, result = eviction_kind(pool, steps)
        kinds[kind] += 1
        assert result == reference.access_many(steps)
        assert pool_state(pool) == pool_state(reference)
    assert kinds["one-head"] > 100
    assert kinds["run"] > 100
    # The stream never needs the general pass: only rounding can leave an
    # excess once every other relation is gone.  0.001 + 100.0 rounds up,
    # so after "a" is dropped a few 1e-15 bytes of "b" must go too.
    pool, reference = CountingPool(100), ReferencePool(100)
    for steps in ([("a", 0.001, 0.001, False)], [("b", 100.0, 100.0, True)]):
        kind, result = eviction_kind(pool, steps)
        kinds[kind] += 1
        assert result == reference.access_many(steps)
        assert pool_state(pool) == pool_state(reference)
    assert kinds["general"] == 1
    assert pool.tracked_relations() == ["b"]
    # A run that ends exactly on a head: "a" holds the whole excess, so the
    # run stops there and the empty relation "z" behind it stays tracked.
    pool, reference = CountingPool(100), ReferencePool(100)
    for steps in ([("a", 10.0, 10.0, False), ("z", 0.0, 5.0, False)],
                  [("b", 100.0, 100.0, True)]):
        assert pool.access_many(steps) == reference.access_many(steps)
        assert pool_state(pool) == pool_state(reference)
    assert pool.tracked_relations() == ["z", "b"]


# --------------------------------------------------------------------------
# Engine level
# --------------------------------------------------------------------------
def run_stream(spec, pool_bytes, executions):
    """Execute a seeded stream over every type of ``spec`` on both engines,
    applying the produced writesets back in batches, and compare every
    result and the full state after each step."""
    catalog = Catalog(schema=spec.schema)
    compiled = DatabaseEngine(catalog, BufferPool(pool_bytes), rng=random.Random(5))
    per_access = PerAccessEngine(catalog, ReferencePool(pool_bytes), rng=random.Random(5))
    names = sorted(spec.types)
    order = random.Random(9)
    pending = []
    for i in range(executions):
        # Every type runs at least once, then a random order mixes them.
        name = names[i] if i < len(names) else order.choice(names)
        txn_type = spec.type(name)
        result = compiled.execute(txn_type)
        writeset = result[3]
        expected_demand, expected_writeset = per_access.execute(txn_type)
        assert demand(result) == expected_demand, name
        assert writeset == expected_writeset, name
        if writeset is not None:
            pending.append(writeset)
            if len(pending) == 6:
                tables = sorted(r.name for r in spec.schema if r.is_table)
                allowed = set(order.sample(tables, len(tables) // 2)) \
                    if order.random() < 0.3 else None
                assert compiled.apply_writesets_fast(pending, allowed) == \
                    per_access.apply_writesets_fast(pending, allowed)
                pending = []
        assert pool_state(compiled.buffer_pool) == pool_state(per_access.buffer_pool)
        assert compiled.rng.getstate() == per_access.rng.getstate()
    return compiled.buffer_pool.stats


def test_every_tpcw_type_matches_per_access_execution():
    run_stream(make_tpcw(DATABASE_SIZES["MidDB"]), mb(512) - mb(70), 1500)


def test_tpcw_on_a_thrashing_pool_matches_per_access_execution():
    stats = run_stream(make_tpcw(DATABASE_SIZES["LargeDB"]), mb(64), 1500)
    assert stats.evicted_bytes > 0


def test_every_rubis_type_matches_per_access_execution():
    stats = run_stream(make_rubis(), mb(24), 1500)
    assert stats.evicted_bytes > 0


# --------------------------------------------------------------------------
# Remote writeset application
# --------------------------------------------------------------------------
class RecordingPool(BufferPool):
    """Records every step sequence handed to ``access_many``."""

    def __init__(self, capacity_bytes):
        super().__init__(capacity_bytes)
        self.calls = []

    def access_many(self, steps):
        # repr keeps int and float byte counts apart.
        self.calls.append(repr(list(steps)))
        return super().access_many(steps)


APPLY_RELATIONS = ["users", "orders", "items", "logs"]
APPLY_SCHEMA = Schema.from_relations(
    "apply", [table("users", mb(40)), table("orders", mb(60)),
              table("items", mb(10)), table("logs", mb(80))])

# One item: a relation and the pages it dirties.  Four relations and up to
# four items make repeated relations within and across writesets common.
item_shapes = st.lists(st.tuples(st.sampled_from(APPLY_RELATIONS),
                                 st.integers(min_value=1, max_value=4)),
                       min_size=1, max_size=4)
# A writeset is ("engine", type index) -- built by the engine from a compiled
# plan -- or ("hand", items) -- built directly, always named "T".
writeset_choice = st.one_of(
    st.tuples(st.just("engine"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("hand"), item_shapes))
apply_batches = st.lists(
    st.tuples(st.lists(writeset_choice, min_size=1, max_size=14),
              st.one_of(st.none(), st.sets(st.sampled_from(APPLY_RELATIONS)))),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(item_shapes, min_size=4, max_size=4), apply_batches)
def test_apply_per_shape_matches_per_item(type_shapes, batches):
    catalog = Catalog(schema=APPLY_SCHEMA)
    types = [transaction_type("U%d" % i, writes=[
        write(relation, rows=2, pages_dirtied=pages) for relation, pages in shape])
        for i, shape in enumerate(type_shapes)]
    builder = DatabaseEngine(catalog, BufferPool(mb(8)), rng=random.Random(1))
    engine = DatabaseEngine(catalog, RecordingPool(mb(2)))
    reference = PerAccessEngine(catalog, RecordingPool(mb(2)))
    shapes = {}
    for writeset_choices, allowed in batches:
        writesets = []
        for kind, value in writeset_choices:
            if kind == "engine":
                writeset = builder.execute(types[value])[3]
                # One plan, one shape object.
                assert shapes.setdefault(value, writeset.shape) is writeset.shape
            else:
                writeset = WriteSet("T", tuple(
                    WriteItem(relation, (1, 2), pages) for relation, pages in value))
            # A derived shape has the same steps as the engine's.
            assert WriteSet("T", writeset.items).shape.steps == writeset.shape.steps
            writesets.append(writeset)
        assert engine.apply_writesets_fast(writesets, allowed) == \
            reference.apply_writesets_fast(writesets, allowed)
        assert engine.buffer_pool.calls == reference.buffer_pool.calls
        assert pool_state(engine.buffer_pool) == pool_state(reference.buffer_pool)
