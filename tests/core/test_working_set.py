"""Tests for working-set representations and combination rules."""

import pytest

from repro.core.working_set import WorkingSetEstimate, union_relation_bytes


def make(name, relations, scanned=()):
    return WorkingSetEstimate(transaction_type=name, relation_bytes=relations,
                              scanned=frozenset(scanned))


def test_total_and_scanned_bytes():
    e = make("T", {"a": 100, "b": 50}, scanned=["a"])
    assert e.total_bytes == 150
    assert e.scanned_bytes == 100
    assert e.relations == {"a", "b"}
    assert e.scanned_relation_bytes() == {"a": 100}


def test_scanned_must_be_subset():
    with pytest.raises(ValueError):
        make("T", {"a": 1}, scanned=["b"])


def test_paper_overlap_example():
    # Section 2.3: T1 uses A and B, T2 uses B and C.
    t1 = make("T1", {"A": 10, "B": 20})
    t2 = make("T2", {"B": 20, "C": 30})
    # MALB-S double-counts the shared table, MALB-SC counts it once.
    assert t1.total_bytes + t2.total_bytes == 10 + 2 * 20 + 30
    assert sum(union_relation_bytes([t1, t2]).values()) == 10 + 20 + 30
    shared = t1.relations & t2.relations
    assert sum(t1.relation_bytes[name] for name in shared) == 20


def test_union_takes_max_size_per_relation():
    t1 = make("T1", {"A": 10})
    t2 = make("T2", {"A": 25, "B": 5})
    assert union_relation_bytes([t1, t2]) == {"A": 25, "B": 5}
