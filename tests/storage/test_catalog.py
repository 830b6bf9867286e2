"""Unit tests for the catalog (relpages interface and index choice)."""

import pytest

from repro.storage.pages import pages_for_bytes


def test_relpages_matches_schema(tiny_catalog, tiny_schema):
    assert tiny_catalog.relpages("users") == pages_for_bytes(tiny_schema["users"].size_bytes)
    assert tiny_catalog.size_bytes("users") == tiny_schema["users"].size_bytes


def test_unknown_relation_raises(tiny_catalog):
    with pytest.raises(KeyError):
        tiny_catalog.relpages("nope")
    with pytest.raises(KeyError):
        tiny_catalog.size_bytes("nope")


def test_tables_and_indices(tiny_catalog):
    names = {t.name for t in tiny_catalog.tables()}
    assert names == {"users", "orders", "items", "logs"}
    assert tiny_catalog.smallest_index_of("orders").name == "orders_pkey"
    assert tiny_catalog.smallest_index_of("logs") is None
