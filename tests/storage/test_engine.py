"""Unit tests for the database engine's resource-demand model."""

import pytest

from repro.storage.buffer_pool import BufferPool
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
    _, _, filtered, _, _ = tiny_engine.apply_writesets_fast(
        (writeset,), allowed_tables={"users"})
    assert applied > 0
    assert filtered == 0
    assert tiny_engine.writesets_filtered == 1


def test_dropped_table_filters_writesets(tiny_engine, tiny_workload):
    _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    tiny_engine.drop_table("orders")
    _, _, write_bytes, _, _ = tiny_engine.apply_writesets_fast((writeset,))
    assert write_bytes == 0
    tiny_engine.restore_table("orders")
    _, _, write_bytes, _, _ = tiny_engine.apply_writesets_fast((writeset,))
    assert write_bytes > 0


def test_writeset_conflict_detection(tiny_engine, tiny_workload):
    _, ws1 = tiny_engine.execute(tiny_workload.type("Write"))
    _, ws2 = tiny_engine.execute(tiny_workload.type("Write"))
    # Same keys conflict with themselves, disjoint keys do not.
    assert ws1.conflicts_with(ws1)
    restricted = ws1.restricted_to(["users"])
    assert restricted.items == ()


def test_unknown_relation_raises(tiny_engine):
    with pytest.raises(KeyError):
        tiny_engine.execute(transaction_type("Bad", reads=[lookup("missing", pages=1)]))
