"""Shared fixtures: a small synthetic workload that runs fast in tests."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.storage.relation import Schema, index, table
from repro.workloads.spec import Mix, WorkloadSpec, lookup, scan, transaction_type, write


def make_tiny_schema():
    return Schema.from_relations(
        "tiny",
        [
            table("users", mb(40)),
            index("users_pkey", "users", mb(4)),
            table("orders", mb(60)),
            index("orders_pkey", "orders", mb(6)),
            table("items", mb(10)),
            index("items_pkey", "items", mb(1)),
            table("logs", mb(80)),
        ],
    )


def make_tiny_workload():
    schema = make_tiny_schema()
    types = {
        "Read": transaction_type(
            "Read", reads=[lookup("users", pages=2), lookup("items", pages=2)], cpu_ms=4.0),
        "Scan": transaction_type(
            "Scan", reads=[scan("items"), lookup("users", pages=2)], cpu_ms=8.0),
        "Big": transaction_type(
            "Big", reads=[lookup("logs", pages=100, selectivity=0.8), scan("items")], cpu_ms=12.0),
        "Write": transaction_type(
            "Write",
            reads=[lookup("orders", pages=2), lookup("users", pages=1)],
            writes=[write("orders", rows=1, bytes_per_row=100, pages_dirtied=1)],
            cpu_ms=6.0),
    }
    mixes = {
        "balanced": Mix("balanced", {"Read": 40, "Scan": 25, "Big": 5, "Write": 30}),
        "readonly": Mix("readonly", {"Read": 60, "Scan": 35, "Big": 5}),
    }
    return WorkloadSpec(name="tiny", schema=schema, types=types, mixes=mixes)


def scanned_relations(plan):
    """Relations a plan reads by sequential scan, in plan order, de-duplicated."""
    return list(dict.fromkeys(node.relation for node in plan.nodes if node.is_scan))


def randomly_accessed_relations(plan):
    """Relations (index and table) a plan reads through an index."""
    seen = {}
    for node in plan.nodes:
        if node.is_index_scan:
            seen.setdefault(node.relation, None)
            seen.setdefault(node.table, None)
    return list(seen)


def total_size_bytes(schema):
    """On-disk size of a database: its tables plus indices."""
    return sum(relation.size_bytes for relation in schema)


def written_tables(plan):
    """Relations a plan modifies, in plan order, de-duplicated."""
    return list(dict.fromkeys(node.relation for node in plan.nodes if node.is_modify))


def mix_update_fraction(mix, types):
    """Fraction of a mix's transactions that are updates."""
    total = sum(mix.weights.values())
    return sum(weight / total for name, weight in mix.weights.items()
               if types[name].is_update)


def update_fraction(metrics):
    """Fraction of the completed transactions that were updates."""
    if not metrics.completed:
        return 0.0
    return metrics.updates_completed / metrics.completed


def completions_by_replica(metrics):
    """Completed transactions per replica id."""
    return dict(metrics._by_replica)


def completions_by_type(metrics):
    """Completed transactions per transaction type name."""
    return dict(metrics._by_type)


@pytest.fixture
def tiny_schema():
    return make_tiny_schema()


@pytest.fixture
def tiny_workload():
    return make_tiny_workload()


@pytest.fixture
def tiny_catalog(tiny_schema):
    return Catalog(schema=tiny_schema)


@pytest.fixture
def tiny_planner(tiny_catalog):
    return QueryPlanner(catalog=tiny_catalog)


@pytest.fixture
def tiny_engine(tiny_catalog):
    pool = BufferPool(capacity_bytes=mb(32))
    return DatabaseEngine(catalog=tiny_catalog, buffer_pool=pool, config=EngineConfig())
