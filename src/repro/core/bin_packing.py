"""Bin packing of transaction working sets into replica memory.

Section 2.3: "With the working set information, we use a bin packing
heuristic to group transaction types so that their combined working sets fit
into available memory."  The paper uses Best Fit Decreasing (BFD) [L99]:

* **MALB-S** packs by size only -- overlap between working sets is double
  counted when types share a bin.
* **MALB-SC / MALB-SCAP** modify BFD to account for content overlap: "a
  transaction type is added to the bin for which (1) the non-overlap
  component fits in the available free space and (2) there is maximal
  overlap."

Items whose individual estimate exceeds the bin capacity are *overflow*
items and are placed alone in their own bin (Section 2.3, "Overflow
Transactions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence


@dataclass(frozen=True)
class PackItem:
    """One bin-packing item: a transaction type with its working-set map."""

    name: str
    relation_bytes: Mapping[str, int]

    @property
    def size(self) -> int:
        return int(sum(self.relation_bytes.values()))


@dataclass
class Bin:
    """One bin: a set of transaction types sharing a replica's memory."""

    capacity: int
    items: List[PackItem] = field(default_factory=list)
    overflow: bool = False
    #: union of the relations of the items, counted once (content-aware size).
    relation_bytes: Dict[str, int] = field(default_factory=dict)
    #: size with overlap double counted (size-only accounting).
    summed_size: int = 0

    @property
    def item_names(self) -> List[str]:
        return [item.name for item in self.items]

    @property
    def content_size(self) -> int:
        """Combined size counting shared relations once."""
        return int(sum(self.relation_bytes.values()))

    def used_size(self, content_aware: bool) -> int:
        return self.content_size if content_aware else self.summed_size

    def free_space(self, content_aware: bool) -> int:
        return self.capacity - self.used_size(content_aware)

    def overlap_with(self, item: PackItem) -> int:
        """Bytes of ``item`` already present in the bin."""
        return int(
            sum(size for name, size in item.relation_bytes.items() if name in self.relation_bytes)
        )

    def marginal_size(self, item: PackItem, content_aware: bool) -> int:
        """Additional bytes the bin would need to also hold ``item``."""
        if content_aware:
            # Growth of the relation union: only the part of each relation not
            # already covered by the bin counts (estimates of the same relation
            # can differ between items; the union keeps the larger one).
            extra = 0
            for name, size in item.relation_bytes.items():
                extra += max(0, int(size) - self.relation_bytes.get(name, 0))
            return extra
        return item.size

    def fits(self, item: PackItem, content_aware: bool) -> bool:
        return self.marginal_size(item, content_aware) <= self.free_space(content_aware)

    def add(self, item: PackItem) -> None:
        self.items.append(item)
        self.summed_size += item.size
        for name, size in item.relation_bytes.items():
            self.relation_bytes[name] = max(self.relation_bytes.get(name, 0), int(size))


def _pack(items: Sequence[PackItem], capacity: int, content_aware: bool) -> List[Bin]:
    """Best Fit Decreasing, optionally overlap-aware.

    Items are placed largest first.  Among bins where the item fits, the
    content-aware variant prefers the bin with maximal overlap (ties broken
    by least remaining free space, i.e. best fit); the size-only variant is
    plain best fit.  Items that do not fit any existing bin open a new one;
    items larger than the capacity become singleton overflow bins.
    """
    if capacity <= 0:
        raise ValueError("bin capacity must be positive")
    bins: List[Bin] = []
    ordered = sorted(items, key=lambda item: (-item.size, item.name))
    for item in ordered:
        if item.size > capacity:
            overflow_bin = Bin(capacity=capacity, overflow=True)
            overflow_bin.add(item)
            bins.append(overflow_bin)
            continue

        candidates = [b for b in bins if not b.overflow and b.fits(item, content_aware)]
        if not candidates:
            new_bin = Bin(capacity=capacity)
            new_bin.add(item)
            bins.append(new_bin)
            continue

        if content_aware:
            chosen = max(
                candidates,
                key=lambda b: (b.overlap_with(item), -b.free_space(content_aware)),
            )
        else:
            chosen = min(candidates, key=lambda b: b.free_space(content_aware))
        chosen.add(item)
    return bins


def pack_by_size(items: Sequence[PackItem], capacity: int) -> List[Bin]:
    """MALB-S packing: Best Fit Decreasing on sizes, overlap double counted."""
    return _pack(items, capacity, content_aware=False)


def pack_with_overlap(items: Sequence[PackItem], capacity: int) -> List[Bin]:
    """MALB-SC / MALB-SCAP packing: overlap-aware Best Fit Decreasing."""
    return _pack(items, capacity, content_aware=True)
