"""Value semantics of writesets and certified writesets.

``WriteItem`` and ``WriteSet`` are hand-written ``__slots__`` classes that
replaced frozen dataclasses; these properties pin that they still behave as
the dataclasses did: field-wise equality and hashing, ``!=`` (not an error)
against other types, and the dataclass ``repr``.
"""

from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.replication.writeset import CertifiedWriteSet
from repro.storage.engine import WriteItem, WriteSet

# The frozen dataclasses the slotted classes replaced, as the reference for
# repr and hash.
OldWriteItem = make_dataclass(
    "WriteItem", [("relation", str), ("keys", tuple), ("pages_dirtied", int)],
    frozen=True)
OldWriteSet = make_dataclass(
    "WriteSet", [("transaction_type", str), ("items", tuple),
                 ("origin_replica", object, None)],
    frozen=True)


def make_ws(table_keys, txn="T", origin=None):
    items = tuple(
        WriteItem(relation=table, keys=tuple(keys), pages_dirtied=1)
        for table, keys in table_keys.items())
    return WriteSet(transaction_type=txn, items=items, origin_replica=origin)


def test_certified_writeset_requires_positive_version():
    with pytest.raises(ValueError):
        CertifiedWriteSet(version=0, writeset=make_ws({"a": [1]}))


def test_writesets_are_slotted():
    ws = make_ws({"a": [1]})
    assert not hasattr(ws, "__dict__")
    assert not hasattr(ws.items[0], "__dict__")


# Small domains, so that independent draws are often equal.
item_fields = st.tuples(
    st.sampled_from(["t1", "t2"]),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(tuple),
    st.integers(min_value=0, max_value=1))
writeset_fields = st.tuples(
    st.sampled_from(["A", "B"]),
    st.lists(item_fields, max_size=2).map(tuple),
    st.sampled_from([None, 0, 1]))

# One value per field that no strategy above draws.
ITEM_OTHER = ("t9", (99,), 7)
WRITESET_OTHER = ("Z", (ITEM_OTHER,), 9)


def build_item(fields):
    return WriteItem(*fields)


def build_ws(fields):
    txn, items, origin = fields
    return WriteSet(txn, tuple(build_item(item) for item in items),
                    origin_replica=origin)


def build_old_ws(fields):
    txn, items, origin = fields
    return OldWriteSet(txn, tuple(OldWriteItem(*item) for item in items),
                       origin)


@settings(max_examples=200, deadline=None)
@given(item_fields, item_fields, writeset_fields, writeset_fields)
def test_equality_holds_exactly_when_fields_are_equal(item_a, item_b, ws_a, ws_b):
    for build, a, b in ((build_item, item_a, item_b), (build_ws, ws_a, ws_b)):
        left, right = build(a), build(b)
        assert (left == right) == (a == b)
        assert (left != right) == (a != b)
        if left == right:
            assert hash(left) == hash(right)
        assert left == build(a) and hash(left) == hash(build(a))


@settings(max_examples=100, deadline=None)
@given(item_fields, writeset_fields, st.integers(min_value=0, max_value=3))
def test_a_single_field_difference_breaks_equality(item, ws, index):
    for build, fields, other in ((build_item, item, ITEM_OTHER),
                                 (build_ws, ws, WRITESET_OTHER)):
        changed = list(fields)
        field = index % len(fields)
        changed[field] = other[field]
        assert build(fields) != build(tuple(changed))
        assert not build(fields) == build(tuple(changed))


@settings(max_examples=50, deadline=None)
@given(item_fields, writeset_fields)
def test_other_types_compare_unequal(item_values, ws_values):
    item, ws = build_item(item_values), build_ws(ws_values)
    for value in (item, ws):
        for other in (item_values, ws_values, "WriteSet", None,
                      CertifiedWriteSet(1, ws)):
            assert value != other
            assert not value == other
    assert item != ws and ws != item


@settings(max_examples=100, deadline=None)
@given(writeset_fields)
def test_repr_and_hash_match_the_old_dataclasses(fields):
    old = build_old_ws(fields)
    new = build_ws(fields)
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    for new_item, old_item in zip(new.items, old.items):
        assert repr(new_item) == repr(old_item)
        assert hash(new_item) == hash(old_item)


@settings(max_examples=100, deadline=None)
@given(writeset_fields, writeset_fields, st.integers(min_value=1, max_value=2))
def test_certified_writeset_value_semantics(ws_a, ws_b, version):
    a = CertifiedWriteSet(version, build_ws(ws_a))
    b = CertifiedWriteSet(version, build_ws(ws_b))
    assert (a == b) == (ws_a == ws_b)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != CertifiedWriteSet(version + 1, build_ws(ws_a))
    assert a != a.writeset
    assert repr(a) == "CertifiedWriteSet(version=%r, writeset=%r)" \
        % (version, build_old_ws(ws_a))
