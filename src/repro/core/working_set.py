"""Working-set representations.

Section 2.2 of the paper defines four increasingly detailed categories of
information about a transaction type:

1. *Transaction type* -- just its name;
2. *Working set size* -- the sum of the sizes of the tables and indices its
   execution plan references;
3. *Working set content* -- which tables and indices those are, so overlap
   between types is not double counted;
4. *Working set access pattern* -- whether each relation is linearly scanned
   (all pages touched) or randomly accessed.

:class:`WorkingSetEstimate` carries categories 2-4 for one transaction type.
The different MALB grouping methods then consume different projections of
it: MALB-S uses only :attr:`total_bytes`, MALB-SC uses the full relation map,
MALB-SCAP uses only the scanned relations (the lower estimate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set


@dataclass(frozen=True)
class WorkingSetEstimate:
    """Estimated working set of one transaction type.

    Attributes:
        transaction_type: the type this estimate describes.
        relation_bytes: size of every table and index referenced by the
            type's execution plan (name -> bytes).
        scanned: the subset of relations that the plan accesses with a
            sequential scan ("heavily used" in the paper's terms).
        written: tables the type modifies (used by update filtering, not by
            the size estimates).
    """

    transaction_type: str
    relation_bytes: Mapping[str, int]
    scanned: frozenset = frozenset()
    written: frozenset = frozenset()

    def __post_init__(self) -> None:
        unknown_scanned = set(self.scanned) - set(self.relation_bytes)
        if unknown_scanned:
            raise ValueError(
                "scanned relations %s missing from relation_bytes for type %r"
                % (sorted(unknown_scanned), self.transaction_type)
            )

    # ------------------------------------------------------------------
    # Upper estimate (MALB-S / MALB-SC): all referenced relations.
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Sum of the sizes of all referenced relations (the upper estimate)."""
        return int(sum(self.relation_bytes.values()))

    @property
    def relations(self) -> Set[str]:
        return set(self.relation_bytes.keys())

    # ------------------------------------------------------------------
    # Lower estimate (MALB-SCAP): scanned relations only.
    # ------------------------------------------------------------------
    @property
    def scanned_bytes(self) -> int:
        """Sum of the sizes of the linearly scanned relations (the lower estimate)."""
        return int(sum(self.relation_bytes[name] for name in self.scanned))

    def scanned_relation_bytes(self) -> Dict[str, int]:
        return {name: int(self.relation_bytes[name]) for name in self.scanned}


def union_relation_bytes(estimates: Iterable[WorkingSetEstimate]) -> Dict[str, int]:
    """Union of the relation maps of several estimates (sizes counted once)."""
    combined: Dict[str, int] = {}
    for estimate in estimates:
        for name, size in estimate.relation_bytes.items():
            combined[name] = max(combined.get(name, 0), int(size))
    return combined
