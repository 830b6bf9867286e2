"""Unit and property tests for the fractional-LRU buffer pool."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.pages import mb


def resident_bytes_of(pool, relation):
    """Bytes of ``relation`` the pool holds (0 if untracked)."""
    state = pool._relations.get(relation)
    return state.resident if state is not None else 0.0


def access(pool, relation, bytes_needed, hot_set_bytes):
    """One random access: the misses of a single-step ``access_many``."""
    return pool.access_many(((relation, bytes_needed, hot_set_bytes, False),))[0]


def scan(pool, relation, relation_bytes):
    """A sequential scan, as the engine charges one: an access that
    requests the relation's whole hot set."""
    return access(pool, relation, relation_bytes, relation_bytes)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BufferPool(0)
    with pytest.raises(ValueError):
        BufferPool(mb(1), skew=0.0)


def test_cold_access_misses_everything():
    pool = BufferPool(mb(100), skew=1.0)
    miss = access(pool, "users", mb(1), mb(50))
    assert miss == pytest.approx(mb(1))
    assert resident_bytes_of(pool, "users") == pytest.approx(mb(1))


def test_warm_relation_hits():
    pool = BufferPool(mb(100))
    pool.warm("users", mb(50), mb(50))
    assert access(pool, "users", mb(1), mb(50)) == pytest.approx(0.0)
    assert pool.stats.hit_ratio == pytest.approx(1.0)


def test_repeated_access_converges_to_hits():
    pool = BufferPool(mb(100), skew=1.0)
    misses = [access(pool, "users", mb(2), mb(20)) for _ in range(200)]
    assert misses[-1] < misses[0]
    assert misses[-1] < mb(2) * 0.05


def test_scan_loads_whole_relation():
    pool = BufferPool(mb(100))
    miss = scan(pool, "items", mb(30))
    assert miss == pytest.approx(mb(30))
    assert resident_bytes_of(pool, "items") == pytest.approx(mb(30))
    assert scan(pool, "items", mb(30)) == pytest.approx(0.0)


def test_large_scan_evicts_lru_relation():
    pool = BufferPool(mb(100))
    scan(pool, "users", mb(60))
    scan(pool, "orders", mb(80))          # displaces users
    assert pool.resident_bytes <= mb(100)
    assert resident_bytes_of(pool, "users") < mb(60)
    assert resident_bytes_of(pool, "orders") == pytest.approx(mb(80))


def test_most_recent_relation_is_protected():
    pool = BufferPool(mb(100))
    scan(pool, "users", mb(90))
    scan(pool, "orders", mb(50))
    # orders was accessed last: it should be fully resident.
    assert resident_bytes_of(pool, "orders") == pytest.approx(mb(50))


def test_relation_larger_than_pool_is_capped():
    pool = BufferPool(mb(64))
    scan(pool, "logs", mb(200))
    assert pool.resident_bytes <= mb(64) + 1


def test_clear_resets_pool():
    pool = BufferPool(mb(100))
    scan(pool, "users", mb(40))
    pool.clear()
    assert pool.resident_bytes == 0.0
    assert pool.tracked_relations() == []


def test_skew_increases_hit_rate():
    uniform = BufferPool(mb(100), skew=1.0)
    skewed = BufferPool(mb(100), skew=0.3)
    for pool in (uniform, skewed):
        pool.warm("users", mb(25), mb(50))   # half the hot set resident
    assert access(skewed, "users", mb(1), mb(50)) < access(uniform, "users", mb(1), mb(50))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                          st.integers(min_value=1, max_value=64),
                          st.integers(min_value=1, max_value=256)),
                min_size=1, max_size=60))
def test_capacity_invariant_under_arbitrary_access(accesses):
    pool = BufferPool(mb(32))
    for relation, need_mb, hot_mb in accesses:
        need = mb(min(need_mb, hot_mb))
        access(pool, relation, need, mb(hot_mb))
        assert pool.resident_bytes <= pool.capacity_bytes + 1
        assert all(state.resident >= 0 for state in pool._relations.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
def test_miss_never_exceeds_request(need_mb, hot_mb):
    pool = BufferPool(mb(16))
    need = mb(min(need_mb, hot_mb))
    miss = access(pool, "r", need, mb(hot_mb))
    assert 0.0 <= miss <= need + 1


def test_fully_evicted_protected_relation_is_dropped():
    """Regression: when the protected relation alone overflows the pool and
    the eviction has to take *all* of its bytes, its state must be dropped
    like every other fully-evicted relation (the _RelationState
    drop-on-empty contract behind tracked_relations()), not left behind
    with resident == 0."""
    pool = BufferPool(100)
    pool.warm("a", 100)
    # Emulate the accumulated incremental-rounding drift that is the only
    # way the running total can exceed capacity by more than the protected
    # relation holds; the final eviction branch must then empty "a".
    pool._resident_total = 220.0
    pool._evict_to_capacity(protect="a")
    assert "a" not in pool.tracked_relations()
    assert resident_bytes_of(pool, "a") == 0.0
    # The pool emptied, so the running totals re-anchor exactly.
    assert pool._resident_total == 0.0
    assert pool._hot_total == 0.0
    # The relation is re-trackable afterwards like any cold relation.
    access(pool, "a", 10, 50)
    assert "a" in pool.tracked_relations()


def test_partially_evicted_protected_relation_is_kept():
    pool = BufferPool(100)
    pool.warm("a", 100)
    pool._resident_total = 150.0
    pool._evict_to_capacity(protect="a")
    assert "a" in pool.tracked_relations()
    assert resident_bytes_of(pool, "a") == pytest.approx(50.0)


def test_resident_total_matches_sum_after_randomized_sequences():
    """Property-style: the incrementally maintained running totals equal
    the per-relation sums after arbitrary access / scan / warm / clear /
    eviction sequences (the totals only re-anchor when the pool
    empties)."""
    rng = random.Random(20260730)
    names = ["a", "b", "c", "d", "e", "f"]
    pool = BufferPool(mb(48))
    for step in range(4000):
        op = rng.random()
        relation = rng.choice(names)
        if op < 0.50:
            hot = mb(rng.randint(1, 40))
            access(pool, relation, rng.uniform(0.0, hot), hot)
        elif op < 0.70:
            scan(pool, relation, mb(rng.randint(1, 60)))
        elif op < 0.97:
            pool.warm(relation, mb(rng.randint(0, 30)), mb(rng.randint(1, 40)))
        else:
            pool.clear()

        states = pool._relations
        assert pool._resident_total == pytest.approx(
            sum(s.resident for s in states.values()), rel=1e-9, abs=1e-3)
        assert pool._hot_total == pytest.approx(
            sum(s.hot_max for s in states.values()), rel=1e-9, abs=1e-3)
        assert pool.resident_bytes <= pool.capacity_bytes + 1.0
        # The MRU hint, when set, must name the true MRU end of the order.
        if pool._mru is not None and states:
            assert next(reversed(states)) == pool._mru
        # The eviction short-circuit flag tracks the hot watermark exactly.
        assert pool._maybe_evict == (pool._hot_total > float(pool.capacity_bytes))
