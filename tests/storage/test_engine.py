"""Unit tests for the database engine's resource-demand model."""

import random

import pytest

from repro.storage import disk
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import AccessPlan, DatabaseEngine, EngineConfig
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.workloads.rubis import make_rubis
from repro.workloads.spec import lookup, scan, transaction_type
from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw


def read_bytes(result):
    """Bytes one ``execute`` result missed in the buffer pool."""
    _, random_miss, sequential_miss, _ = result
    return random_miss + sequential_miss


def demand(result):
    """The resource demand of one ``execute`` result, comparable with ``==``."""
    plan, random_miss, sequential_miss, _ = result
    return (plan.cpu_seconds, random_miss, sequential_miss, plan.write_seconds,
            plan.effective_write_bytes)


def written_bytes(txn_type):
    """Bytes a type's writes dirty: its pages, whole."""
    return float(sum(spec.pages_dirtied * PAGE_SIZE_BYTES for spec in txn_type.writes))


def tables_of(writeset):
    return tuple(item.relation for item in writeset.items)


def test_read_only_type_produces_no_writeset(tiny_engine, tiny_workload):
    plan, _, _, writeset = tiny_engine.execute(tiny_workload.type("Read"))
    assert writeset is None
    assert plan.cpu_seconds > 0
    assert plan.write_seconds == plan.effective_write_bytes == 0


def test_update_type_produces_writeset(tiny_engine, tiny_workload):
    plan, _, _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    assert writeset is not None
    assert tables_of(writeset) == ("orders",)
    assert plan.effective_write_bytes == disk.effective_write_bytes(PAGE_SIZE_BYTES)


def test_cold_cache_misses_then_warms(tiny_engine, tiny_workload):
    first = read_bytes(tiny_engine.execute(tiny_workload.type("Scan")))
    assert first > 0
    for _ in range(50):
        last = read_bytes(tiny_engine.execute(tiny_workload.type("Scan")))
    assert last < first


def test_scan_cpu_cost_scales_with_relation_size(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small = engine.execute(transaction_type("S", reads=[scan("items")], cpu_ms=1.0))[0]
    large = engine.execute(transaction_type("L", reads=[scan("logs")], cpu_ms=1.0))[0]
    assert large.cpu_seconds > small.cpu_seconds


def test_bulk_random_access_charged_as_sequential(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(8)),
                            config=EngineConfig(bulk_read_pages_threshold=64))
    _, _, big, _ = engine.execute(transaction_type("Big", reads=[lookup("logs", pages=200)]))
    _, _, small, _ = engine.execute(transaction_type("Small", reads=[lookup("users", pages=2)]))
    assert big > 0
    assert small == 0


def test_apply_writeset_respects_filter(tiny_engine, tiny_workload):
    _, _, _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
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


def test_plans_compile_once_per_engine(tiny_workload):
    """Each type compiles once per engine: later executions reuse the plan
    object, and it charges exactly what a fresh engine's plan charges."""
    catalog = Catalog(schema=tiny_workload.schema)
    engine = DatabaseEngine(catalog, BufferPool(mb(512)))
    scan_type, write_type = tiny_workload.type("Scan"), tiny_workload.type("Write")
    first = {t.name: engine.execute(t)[0] for t in (scan_type, write_type)}
    fresh = DatabaseEngine(Catalog(schema=tiny_workload.schema), BufferPool(mb(512)))

    for txn_type in (scan_type, write_type):
        engine.rng, fresh.rng = random.Random(3), random.Random(3)
        result, fresh_result = engine.execute(txn_type), fresh.execute(txn_type)
        plan, fresh_plan = result[0], fresh_result[0]
        assert plan is first[txn_type.name] is engine._plans[txn_type.name]
        assert fresh_plan is fresh._plans[txn_type.name]
        for field in AccessPlan.__slots__:
            if field != "shape":
                assert getattr(plan, field) == getattr(fresh_plan, field), field
        # Shapes compare by identity; each plan has its own, so compare steps.
        assert plan.shape.steps == fresh_plan.shape.steps
        assert result[3] == fresh_result[3]
    # The scan covers the whole relation; the pool saw its hot set.
    assert engine.buffer_pool.hot_set_bytes_of("items") == float(catalog.size_bytes("items"))
    # Writes draw keys from the table's key space: relpages times
    # key_space_per_page.
    (_, _, _, key_space, key_bits), = engine._plans["Write"].writes
    assert key_space == catalog.relpages("orders") * EngineConfig().key_space_per_page
    assert key_bits == key_space.bit_length()
    assert max(result[3].items[0].keys) < key_space


def test_same_name_different_type_is_recompiled(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small = transaction_type("T", reads=[scan("items")], cpu_ms=1.0)
    large = transaction_type("T", reads=[scan("logs")], cpu_ms=1.0)
    small_result = engine.execute(small)
    large_result = engine.execute(large)
    assert engine._plans["T"].txn_type is large
    reference = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    assert demand(large_result) == demand(reference.execute(large))
    assert large_result[0].cpu_seconds > small_result[0].cpu_seconds


@pytest.mark.parametrize("spec", [make_tpcw(DATABASE_SIZES["MidDB"]),
                                  make_tpcw(DATABASE_SIZES["LargeDB"]),
                                  make_rubis()],
                         ids=["tpcw-middb", "tpcw-largedb", "rubis"])
def test_plans_carry_every_per_type_constant(spec):
    """Each compiled plan holds its type's commit write-back cost, exactly
    as the disk model computes it, and the type's name and update flag."""
    engine = DatabaseEngine(Catalog(schema=spec.schema), BufferPool(mb(512)))
    for name in sorted(spec.types):
        txn_type = spec.type(name)
        plan, _, _, writeset = engine.execute(txn_type)
        assert plan.write_seconds == disk.write_seconds(written_bytes(txn_type))
        assert plan.effective_write_bytes == disk.effective_write_bytes(written_bytes(txn_type))
        assert plan.is_update == bool(txn_type.writes) == (writeset is not None)
        assert plan.name == txn_type.name
        for _, _, _, key_space, key_bits in plan.writes:
            assert key_bits == key_space.bit_length()


def test_access_plan_is_slotted(tiny_engine, tiny_workload):
    assert "__slots__" in vars(AccessPlan)
    plan = tiny_engine.execute(tiny_workload.type("Write"))[0]
    assert not hasattr(plan, "__dict__")


def test_generated_keys_match_randrange():
    """The getrandbits rejection loop draws what randrange draws and leaves
    the stream in the same state, across key spaces on both sides of a
    power of two."""
    engine = DatabaseEngine(Catalog(schema=make_rubis().schema), BufferPool(mb(8)),
                            rng=random.Random(17))
    reference = random.Random(17)
    for key_space in (1, 2, 3, 40, 64, 65, 1000, 40960, 2 ** 20 + 1):
        keys = engine._generate_keys(key_space, key_space.bit_length(), 25)
        assert keys == tuple(reference.randrange(key_space) for _ in range(25))
        assert engine.rng.getstate() == reference.getstate()


def test_empty_key_space_is_rejected(tiny_catalog, tiny_workload):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(8)),
                            config=EngineConfig(key_space_per_page=0))
    with pytest.raises(ValueError):
        engine.execute(tiny_workload.type("Write"))
