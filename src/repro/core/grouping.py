"""Transaction-group construction: MALB-S, MALB-SC and MALB-SCAP.

Section 2.3 investigates three methods that use "progressively more
information" from the working-set estimates to build transaction groups:

* **MALB-S** (size only): plain Best Fit Decreasing on working-set sizes;
  overlap between the working sets of co-located types is double counted.
* **MALB-SC** (size + content): the overlap-aware BFD; shared tables and
  indices are counted once, so packing is tighter and the group's aggregate
  working-set estimate is more accurate.
* **MALB-SCAP** (size + content + access pattern): the same overlap-aware
  packing but the input working sets contain only the *scanned* relations --
  a lower-bound estimate that tends to over-pack (Section 5.3 shows it loses
  to MALB-SC on TPC-W because the penalty for under-estimation is high).

Transaction types whose estimate exceeds the available memory are overflow
types and receive their own singleton group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.core.bin_packing import PackItem, pack_by_size, pack_with_overlap
from repro.core.working_set import WorkingSetEstimate, union_relation_bytes


class GroupingMethod(enum.Enum):
    """The three packing methods compared in Figure 5."""

    MALB_S = "MALB-S"
    MALB_SC = "MALB-SC"
    MALB_SCAP = "MALB-SCAP"


@dataclass
class TransactionGroup:
    """A set of transaction types intended to share replicas.

    Attributes:
        group_id: stable identifier (``"G0"``, ``"G1"``, ...).
        type_names: transaction types in the group.
        relation_bytes: union of the relations of the member estimates (the
            group's aggregate working set, counted once).
        estimated_bytes: the packing method's estimate of the group's
            combined working set.
        overflow: True if the group holds a single type whose estimate
            exceeds replica memory.
    """

    group_id: str
    type_names: List[str]
    relation_bytes: Dict[str, int]
    estimated_bytes: int
    overflow: bool = False

    def describe(self) -> str:
        return "%s: [%s] (~%d MB%s)" % (
            self.group_id,
            ", ".join(sorted(self.type_names)),
            self.estimated_bytes // (1024 * 1024),
            ", overflow" if self.overflow else "",
        )


def _items_for_method(estimates: Mapping[str, WorkingSetEstimate],
                      method: GroupingMethod) -> List[PackItem]:
    items = []
    for name, estimate in estimates.items():
        if method is GroupingMethod.MALB_SCAP:
            relation_bytes = estimate.scanned_relation_bytes()
        else:
            relation_bytes = {rel: int(size) for rel, size in estimate.relation_bytes.items()}
        items.append(PackItem(name=name, relation_bytes=relation_bytes))
    return items


def build_groups(estimates: Mapping[str, WorkingSetEstimate], memory_bytes: int,
                 method: GroupingMethod = GroupingMethod.MALB_SC) -> List[TransactionGroup]:
    """Pack transaction types into groups that fit ``memory_bytes``.

    ``memory_bytes`` is the memory available for data at one replica, i.e.
    physical memory minus the fixed overhead the paper subtracts (70 MB).
    """
    if memory_bytes <= 0:
        raise ValueError("memory_bytes must be positive")
    if not estimates:
        return []

    items = _items_for_method(estimates, method)
    if method is GroupingMethod.MALB_S:
        bins = pack_by_size(items, memory_bytes)
    else:
        bins = pack_with_overlap(items, memory_bytes)

    groups: List[TransactionGroup] = []
    for i, packed_bin in enumerate(bins):
        member_names = packed_bin.item_names
        member_estimates = [estimates[name] for name in member_names]
        # The group's true relation union always comes from the full
        # estimates (even for MALB-SCAP, which packed using the reduced
        # view) because update filtering and dispatching need the complete
        # table list of the member types.
        relation_bytes = union_relation_bytes(member_estimates)
        if method is GroupingMethod.MALB_S:
            estimated = packed_bin.summed_size
        else:
            estimated = packed_bin.used_size(content_aware=True)
        groups.append(
            TransactionGroup(
                group_id="G%d" % i,
                type_names=list(member_names),
                relation_bytes=relation_bytes,
                estimated_bytes=estimated,
                overflow=packed_bin.overflow,
            )
        )
    return groups


def group_of_type(groups: Sequence[TransactionGroup]) -> Dict[str, str]:
    """Map every transaction type to its group id."""
    mapping: Dict[str, str] = {}
    for group in groups:
        for type_name in group.type_names:
            if type_name in mapping:
                raise ValueError("transaction type %r appears in two groups" % (type_name,))
            mapping[type_name] = group.group_id
    return mapping
