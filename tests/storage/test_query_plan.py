"""Tests for the execution-plan representation itself."""

import pytest

from repro.storage.query_plan import ExecutionPlan, PlanNode, PlanNodeKind
from tests.conftest import randomly_accessed_relations, scanned_relations, written_tables


def node(kind, relation, table=None, pages=1):
    return PlanNode(kind=kind, relation=relation, table=table or relation, estimated_pages=pages)


def test_relations_are_deduplicated_in_order():
    plan = ExecutionPlan("T", (
        node(PlanNodeKind.SEQ_SCAN, "a", pages=10),
        node(PlanNodeKind.INDEX_SCAN, "b_idx", table="b"),
        node(PlanNodeKind.SEQ_SCAN, "a", pages=10),
    ))
    assert plan.relations() == ["a", "b_idx"]
    assert scanned_relations(plan) == ["a"]
    assert set(randomly_accessed_relations(plan)) == {"b_idx", "b"}


def test_written_tables_come_from_modify_nodes():
    plan = ExecutionPlan("T", (
        node(PlanNodeKind.INDEX_SCAN, "a_idx", table="a"),
        node(PlanNodeKind.MODIFY, "a"),
        node(PlanNodeKind.MODIFY, "b"),
    ))
    assert written_tables(plan) == ["a", "b"]
    assert len([n for n in plan.nodes if not n.is_modify]) == 1


def test_negative_page_estimate_rejected():
    with pytest.raises(ValueError):
        PlanNode(kind=PlanNodeKind.SEQ_SCAN, relation="a", table="a", estimated_pages=-1)


def test_node_kind_predicates():
    seq = node(PlanNodeKind.SEQ_SCAN, "a")
    idx = node(PlanNodeKind.INDEX_SCAN, "a_idx", table="a")
    mod = node(PlanNodeKind.MODIFY, "a")
    assert seq.is_scan and not seq.is_index_scan and not seq.is_modify
    assert idx.is_index_scan and not idx.is_scan
    assert mod.is_modify


def test_explain_mentions_every_relation():
    plan = ExecutionPlan("T", (
        node(PlanNodeKind.SEQ_SCAN, "orders", pages=7),
        node(PlanNodeKind.INDEX_SCAN, "users_pkey", table="users"),
    ))
    text = plan.explain()
    assert "orders" in text and "users_pkey" in text and "T" in text
