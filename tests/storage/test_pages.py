"""Unit tests for page size arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.pages import (
    GB, KB, MB, PAGE_SIZE_BYTES, bytes_for_pages, gb, mb, pages_for_bytes)


def test_page_size_is_8kb():
    assert PAGE_SIZE_BYTES == 8 * 1024


def test_pages_for_bytes_rounds_up():
    assert pages_for_bytes(1) == 1
    assert pages_for_bytes(PAGE_SIZE_BYTES) == 1
    assert pages_for_bytes(PAGE_SIZE_BYTES + 1) == 2
    assert pages_for_bytes(0) == 0
    assert pages_for_bytes(-5) == 0


def test_bytes_for_pages():
    assert bytes_for_pages(0) == 0
    assert bytes_for_pages(3) == 3 * PAGE_SIZE_BYTES
    with pytest.raises(ValueError):
        bytes_for_pages(-1)


def test_unit_helpers():
    assert mb(1) == MB
    assert gb(1) == GB
    assert mb(0.5) == MB // 2
    assert KB * 1024 == MB


@given(st.integers(min_value=0, max_value=10**12))
def test_pages_round_trip_upper_bound(n):
    pages = pages_for_bytes(n)
    assert bytes_for_pages(pages) >= n
    assert bytes_for_pages(pages) - n < PAGE_SIZE_BYTES
