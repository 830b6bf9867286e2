"""Unit tests for page size arithmetic."""

from hypothesis import given, strategies as st

from repro.storage.pages import KB, MB, PAGE_SIZE_BYTES, mb, pages_for_bytes


def test_page_size_is_8kb():
    assert PAGE_SIZE_BYTES == 8 * 1024


def test_pages_for_bytes_rounds_up():
    assert pages_for_bytes(1) == 1
    assert pages_for_bytes(PAGE_SIZE_BYTES) == 1
    assert pages_for_bytes(PAGE_SIZE_BYTES + 1) == 2
    assert pages_for_bytes(0) == 0
    assert pages_for_bytes(-5) == 0


def test_unit_helpers():
    assert mb(1) == MB
    assert mb(0.5) == MB // 2
    assert KB * 1024 == MB


@given(st.integers(min_value=0, max_value=10**12))
def test_pages_round_trip_upper_bound(n):
    size = pages_for_bytes(n) * PAGE_SIZE_BYTES
    assert size >= n
    assert size - n < PAGE_SIZE_BYTES
