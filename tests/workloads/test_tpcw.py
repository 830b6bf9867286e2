"""Tests for the TPC-W workload model."""

import pytest

from repro.workloads.tpcw import DATABASE_SIZES, make_schema, make_tpcw

from tests.conftest import GB, mix_update_fraction, total_size_bytes


def test_mid_db_is_about_1_8_gb():
    schema = make_schema(300)
    assert 1.5 * GB < total_size_bytes(schema) < 2.1 * GB


def test_small_and_large_db_scale():
    small = total_size_bytes(make_schema(100))
    mid = total_size_bytes(make_schema(300))
    large = total_size_bytes(make_schema(500))
    assert small < mid < large
    assert 0.5 * GB < small < 0.95 * GB
    assert 2.4 * GB < large < 3.3 * GB


def test_catalogue_tables_do_not_scale():
    small = make_schema(100)
    large = make_schema(500)
    assert small["item"].size_bytes == large["item"].size_bytes
    assert small["author"].size_bytes == large["author"].size_bytes
    assert small["customer"].size_bytes < large["customer"].size_bytes


def test_fourteen_interaction_types():
    spec = make_tpcw(300)
    assert len(spec.types) == 14
    assert "BestSellers" in spec.types and "BuyConfirm" in spec.types


def test_mix_update_fractions_match_paper():
    spec = make_tpcw(300)
    browsing = mix_update_fraction(spec.mix("browsing"), spec.types)
    shopping = mix_update_fraction(spec.mix("shopping"), spec.types)
    ordering = mix_update_fraction(spec.mix("ordering"), spec.types)
    assert browsing == pytest.approx(0.05, abs=0.02)
    assert shopping == pytest.approx(0.19, abs=0.04)
    assert ordering == pytest.approx(0.50, abs=0.05)


def test_make_by_label():
    assert DATABASE_SIZES == {"SmallDB": 100, "MidDB": 300, "LargeDB": 500}
    assert total_size_bytes(make_tpcw(DATABASE_SIZES["MidDB"]).schema) == \
        total_size_bytes(make_tpcw(300).schema)


def test_invalid_ebs_rejected():
    with pytest.raises(ValueError):
        make_schema(0)


def test_buy_confirm_is_update_and_bestsellers_is_not():
    spec = make_tpcw(300)
    assert spec.types["BuyConfirm"].is_update
    assert not spec.types["BestSellers"].is_update
    assert "order_line" in [w.relation for w in spec.types["BuyConfirm"].writes]
