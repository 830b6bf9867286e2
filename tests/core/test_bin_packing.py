"""Unit and property tests for the bin-packing heuristics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bin_packing import PackItem, pack_by_size, pack_with_overlap


def validate_packing(items, bins, capacity, content_aware):
    """Raise ``AssertionError`` if a packing violates the basic invariants:
    every item appears in exactly one bin, and every non-overflow bin
    respects the capacity under the accounting rule it was packed with."""
    placed = {}
    for bin_index, packed_bin in enumerate(bins):
        for packed in packed_bin.items:
            placed[packed.name] = placed.get(packed.name, 0) + 1
        if not packed_bin.overflow:
            assert packed_bin.used_size(content_aware) <= capacity, (
                "bin %d exceeds capacity: %d > %d"
                % (bin_index, packed_bin.used_size(content_aware), capacity))
        else:
            assert len(packed_bin.items) == 1, "overflow bins must be singletons"
    for packed in items:
        assert placed.get(packed.name, 0) == 1, (
            "item %r placed %d times" % (packed.name, placed.get(packed.name, 0)))


def item(name, relations):
    return PackItem(name=name, relation_bytes=relations)


def test_items_larger_than_capacity_become_overflow_singletons():
    items = [item("big", {"a": 150}), item("small", {"b": 10})]
    bins = pack_by_size(items, capacity=100)
    overflow = [b for b in bins if b.overflow]
    assert len(overflow) == 1 and overflow[0].item_names == ["big"]
    validate_packing(items, bins, 100, content_aware=False)


def test_size_only_double_counts_overlap():
    items = [item("t1", {"A": 40, "B": 40}), item("t2", {"B": 40, "C": 40})]
    bins = pack_by_size(items, capacity=100)
    # Summed size of t1+t2 is 160 > 100, so they cannot share a bin.
    assert len(bins) == 2


def test_content_aware_packs_overlapping_items_together():
    items = [item("t1", {"A": 40, "B": 40}), item("t2", {"B": 40, "C": 15})]
    bins = pack_with_overlap(items, capacity=100)
    assert len(bins) == 1
    assert bins[0].content_size == 95
    validate_packing(items, bins, 100, content_aware=True)


def test_content_aware_prefers_maximal_overlap():
    big = item("big", {"A": 50})
    other = item("other", {"B": 50})
    shares_a = item("shares_a", {"A": 50, "C": 10})
    bins = pack_with_overlap([big, other, shares_a], capacity=70)
    for packed in bins:
        if "shares_a" in packed.item_names:
            assert "big" in packed.item_names


def test_invalid_capacity():
    with pytest.raises(ValueError):
        pack_by_size([item("a", {"x": 1})], 0)


@st.composite
def packing_inputs(draw):
    relations = ["r%d" % i for i in range(6)]
    n = draw(st.integers(min_value=1, max_value=10))
    items = []
    for i in range(n):
        rels = draw(st.lists(st.sampled_from(relations), min_size=1, max_size=4, unique=True))
        sizes = {r: draw(st.integers(min_value=1, max_value=80)) for r in rels}
        items.append(item("t%d" % i, sizes))
    capacity = draw(st.integers(min_value=50, max_value=200))
    return items, capacity


@settings(max_examples=80, deadline=None)
@given(packing_inputs())
def test_packing_invariants_hold(inputs):
    items, capacity = inputs
    for content_aware, pack in ((False, pack_by_size), (True, pack_with_overlap)):
        bins = pack(items, capacity)
        validate_packing(items, bins, capacity, content_aware=content_aware)


@settings(max_examples=50, deadline=None)
@given(packing_inputs())
def test_content_aware_never_uses_more_bins_for_identical_items(inputs):
    items, capacity = inputs
    # Content-aware accounting is never worse than size-only accounting for
    # the same bin: the marginal size of an item is at most its full size.
    bins_sc = pack_with_overlap(items, capacity)
    bins_s = pack_by_size(items, capacity)
    assert len(bins_sc) <= len(bins_s) + 1
