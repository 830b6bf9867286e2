"""Tests for the RUBiS workload model."""

import pytest

from repro.workloads.rubis import make_rubis, make_schema

from tests.conftest import GB, mix_update_fraction, total_size_bytes


def test_database_is_about_2_2_gb():
    schema = make_schema()
    assert 1.9 * GB < total_size_bytes(schema) < 2.6 * GB


def test_seventeen_interaction_types():
    spec = make_rubis()
    assert len(spec.types) == 17
    assert "AboutMe" in spec.types


def test_browsing_mix_is_read_only():
    spec = make_rubis()
    assert mix_update_fraction(spec.mix("browsing"), spec.types) == 0.0


def test_bidding_mix_has_about_15_percent_updates():
    spec = make_rubis()
    frac = mix_update_fraction(spec.mix("bidding"), spec.types)
    assert frac == pytest.approx(0.15, abs=0.04)


def test_about_me_touches_most_tables():
    spec = make_rubis()
    about_me = spec.types["AboutMe"]
    assert len(about_me.reads) >= 5
    assert "bids" in [access.relation for access in about_me.reads]


def test_store_bid_writes_bids():
    spec = make_rubis()
    assert "bids" in [w.relation for w in spec.types["StoreBid"].writes]
