"""Unit tests for the database engine's resource-demand model."""

import random

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.workloads.spec import lookup, scan, transaction_type, write


def test_read_only_type_produces_no_writeset(tiny_engine, tiny_workload):
    work, writeset = tiny_engine.execute(tiny_workload.type("Read"))
    assert writeset is None
    assert work.cpu_seconds > 0
    assert work.write_bytes == 0


def test_update_type_produces_writeset(tiny_engine, tiny_workload):
    work, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    assert writeset is not None
    assert writeset.tables == ("orders",)
    assert writeset.payload_bytes == 100
    assert work.write_bytes == PAGE_SIZE_BYTES


def test_cold_cache_misses_then_warms(tiny_engine, tiny_workload):
    first, _ = tiny_engine.execute(tiny_workload.type("Scan"))
    assert first.read_bytes > 0
    for _ in range(50):
        last, _ = tiny_engine.execute(tiny_workload.type("Scan"))
    assert last.read_bytes < first.read_bytes


def test_scan_cpu_cost_scales_with_relation_size(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small, _ = engine.execute(transaction_type("S", reads=[scan("items")], cpu_ms=1.0))
    large, _ = engine.execute(transaction_type("L", reads=[scan("logs")], cpu_ms=1.0))
    assert large.cpu_seconds > small.cpu_seconds


def test_bulk_random_access_charged_as_sequential(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(8)),
                            config=EngineConfig(bulk_read_pages_threshold=64))
    big, _ = engine.execute(transaction_type("Big", reads=[lookup("logs", pages=200)]))
    small, _ = engine.execute(transaction_type("Small", reads=[lookup("users", pages=2)]))
    assert big.sequential_read_bytes > 0
    assert small.sequential_read_bytes == 0


def test_apply_writeset_respects_filter(tiny_engine, tiny_workload):
    _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    _, _, applied, _, _ = tiny_engine.apply_writesets_fast(
        (writeset,), allowed_tables={"orders"})
    _, _, filtered, applied_count, filtered_count = \
        tiny_engine.apply_writesets_fast((writeset,), allowed_tables={"users"})
    assert applied > 0
    assert filtered == 0
    assert (applied_count, filtered_count) == (0, 1)


def test_unknown_relation_raises(tiny_engine):
    with pytest.raises(KeyError):
        tiny_engine.execute(transaction_type("Bad", reads=[lookup("missing", pages=1)]))


def test_plans_follow_catalog_resizes(tiny_workload):
    """After a resize the next execution uses the new hot sets and key
    space: it charges exactly what an engine built on the resized catalog
    charges."""
    catalog = Catalog(schema=tiny_workload.schema)
    engine = DatabaseEngine(catalog, BufferPool(mb(512)))
    scan_type, write_type = tiny_workload.type("Scan"), tiny_workload.type("Write")
    engine.execute(scan_type)
    engine.execute(write_type)

    for name, size in (("items", mb(20)), ("orders", mb(2))):
        catalog.set_size(name, size)
    fresh_catalog = Catalog(schema=tiny_workload.schema)
    for name, size in (("items", mb(20)), ("orders", mb(2))):
        fresh_catalog.set_size(name, size)
    fresh = DatabaseEngine(fresh_catalog, BufferPool(mb(512)))

    for txn_type in (scan_type, write_type):
        engine.rng, fresh.rng = random.Random(3), random.Random(3)
        work, writeset = engine.execute(txn_type)
        fresh_work, fresh_writeset = fresh.execute(txn_type)
        plan, fresh_plan = engine._plans[txn_type.name], fresh._plans[txn_type.name]
        # Shapes compare by identity; each plan has its own, so compare steps.
        assert plan[:5] == fresh_plan[:5]
        assert plan[5].steps == fresh_plan[5].steps
        assert work.cpu_seconds == fresh_work.cpu_seconds
        assert writeset == fresh_writeset
    # The scan now covers the grown relation; the pool saw the new hot set.
    assert engine.buffer_pool.hot_set_bytes_of("items") == float(mb(20))
    # Writes draw keys from the shrunken table's key space: relpages times
    # key_space_per_page.
    (_, _, _, _, key_space), = engine._plans["Write"][4]
    assert key_space == mb(2) // PAGE_SIZE_BYTES * EngineConfig().key_space_per_page
    assert max(writeset.items[0].keys) < key_space


def test_same_name_different_type_is_recompiled(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small = transaction_type("T", reads=[scan("items")], cpu_ms=1.0)
    large = transaction_type("T", reads=[scan("logs")], cpu_ms=1.0)
    small_work, _ = engine.execute(small)
    large_work, _ = engine.execute(large)
    assert engine._plans["T"][0] is large
    reference = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    assert large_work == reference.execute(large)[0]
    assert large_work.cpu_seconds > small_work.cpu_seconds
