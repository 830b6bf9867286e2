"""Unit tests for the query planner (EXPLAIN equivalent)."""

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.storage.query_plan import PlanNodeKind
from repro.storage.relation import Schema, index, table
from repro.workloads.spec import lookup, scan, transaction_type, write
from tests.conftest import randomly_accessed_relations, scanned_relations, written_tables


def test_scan_plan_touches_all_pages(tiny_planner, tiny_catalog):
    plan = tiny_planner.plan(transaction_type("T", reads=[scan("items")]))
    node = plan.nodes[0]
    assert node.kind is PlanNodeKind.SEQ_SCAN
    assert node.estimated_pages == tiny_catalog.relpages("items")
    assert scanned_relations(plan) == ["items"]


def test_lookup_uses_index_when_available(tiny_planner):
    plan = tiny_planner.plan(transaction_type("T", reads=[lookup("users", pages=4)]))
    node = plan.nodes[0]
    assert node.kind is PlanNodeKind.INDEX_SCAN
    assert node.relation == "users_pkey"
    assert node.table == "users"
    assert "users" in randomly_accessed_relations(plan)


def test_lookup_without_index_falls_back_to_scan(tiny_planner, tiny_catalog):
    plan = tiny_planner.plan(transaction_type("T", reads=[lookup("logs", pages=4)]))
    node = plan.nodes[0]
    assert node.kind is PlanNodeKind.SEQ_SCAN
    assert node.estimated_pages == tiny_catalog.relpages("logs")


def test_write_produces_modify_node(tiny_planner):
    plan = tiny_planner.plan(transaction_type(
        "T", reads=[lookup("orders", pages=1)], writes=[write("orders")]))
    assert written_tables(plan) == ["orders"]
    assert any(node.is_modify for node in plan.nodes)


def test_plan_all_covers_all_types(tiny_planner, tiny_workload):
    plans = {name: tiny_planner.plan(t) for name, t in tiny_workload.types.items()}
    assert set(plans) == set(tiny_workload.types)
    for name, plan in plans.items():
        assert plan.transaction_type == name
        assert plan.relations()


def test_explain_renders_text(tiny_planner, tiny_workload):
    plan = tiny_planner.plan(tiny_workload.type("Scan"))
    text = plan.explain()
    assert "Scan" in text and "items" in text


def test_planner_and_engine_descend_the_catalogs_smallest_index():
    schema = Schema.from_relations("two-index", [
        table("t", mb(40)),
        index("t_wide", "t", mb(8)),
        index("t_narrow", "t", mb(2)),
    ])
    catalog = Catalog(schema=schema)
    assert catalog.smallest_index_of("t").name == "t_narrow"
    txn_type = transaction_type("T", reads=[lookup("t", pages=2)])
    node = QueryPlanner(catalog=catalog).plan(txn_type).nodes[0]
    assert (node.kind, node.relation) == (PlanNodeKind.INDEX_SCAN, "t_narrow")
    plan = DatabaseEngine(catalog, BufferPool(mb(64))).execute(txn_type)[0]
    assert [step[0] for step in plan.steps] == ["t_narrow", "t"]
