"""Unit tests for relations and schemas."""

import pytest

from repro.storage.pages import mb, pages_for_bytes
from repro.storage.relation import Relation, RelationKind, Schema, index, table


def test_table_and_index_constructors():
    t = table("users", mb(10))
    i = index("users_pkey", "users", mb(1))
    assert t.is_table and not t.is_index
    assert i.is_index and i.parent == "users"
    assert pages_for_bytes(t.size_bytes) == mb(10) // 8192


def test_index_requires_parent():
    with pytest.raises(ValueError):
        Relation(name="idx", kind=RelationKind.INDEX, size_bytes=10)


def test_table_must_not_have_parent():
    with pytest.raises(ValueError):
        Relation(name="t", kind=RelationKind.TABLE, size_bytes=10, parent="x")


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        table("bad", -1)


def test_schema_duplicate_names_rejected(tiny_schema):
    with pytest.raises(ValueError):
        tiny_schema.add(table("users", mb(1)))


def test_schema_validates_index_parents():
    with pytest.raises(ValueError):
        Schema.from_relations("s", [index("orphan_idx", "missing", mb(1))])


def test_schema_lookup_and_sizes(tiny_schema):
    assert "users" in tiny_schema
    assert tiny_schema["users"].is_table
    assert tiny_schema.get("nope") is None
    assert sum(1 for relation in tiny_schema if relation.is_table) == 4
    assert tiny_schema.indices_of("users")[0].name == "users_pkey"


def test_schema_scaled_respects_fixed_relations(tiny_schema):
    scaled = tiny_schema.scaled(2.0, name="double", fixed=("items",))
    assert scaled["users"].size_bytes == 2 * tiny_schema["users"].size_bytes
    assert scaled["items"].size_bytes == tiny_schema["items"].size_bytes
    assert scaled.name == "double"


def test_schema_scaled_rejects_bad_factor(tiny_schema):
    with pytest.raises(ValueError):
        tiny_schema.scaled(0.0)
