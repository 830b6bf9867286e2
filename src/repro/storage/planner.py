"""Query planner: produces execution plans for transaction types.

The real Tashkent+ load balancer sends ``EXPLAIN``-prefixed statements to
PostgreSQL and parses the result (Section 4.2.2, item 4).  In this
reproduction, the planner plays PostgreSQL's role: given the catalog and a
transaction type's access spec, it emits the :class:`ExecutionPlan` that
``EXPLAIN`` would return -- which relations are touched, whether via a
sequential scan or an index scan, and the planner's page estimates.

Two design points worth noting:

* The plan is derived from the *access spec* and the *catalog*, never from
  the engine's runtime behaviour.  This preserves the paper's information
  flow: the load balancer works from static plan information, and working
  sets estimated that way may over- or under-estimate the truth (the
  OrderDisplay example in Section 5.3).
* Index scans automatically pull in the index relation as well as the
  underlying table, because fetching tuples through an index touches both
  structures.  Sequential scans touch only the table (or only the index,
  for index-only scans over index relations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.storage.catalog import INDEX_PAGES_PER_LOOKUP, Catalog
from repro.storage.query_plan import ExecutionPlan, PlanNode, PlanNodeKind
from repro.workloads.spec import AccessPattern, TableAccess, TransactionType


@dataclass
class QueryPlanner:
    """Produces execution plans from the catalog, as ``EXPLAIN`` would.

    Attributes:
        catalog: metadata source for relation sizes.
    """

    catalog: Catalog

    def plan_access(self, access: TableAccess) -> List[PlanNode]:
        """Plan a single relation access of a transaction type."""
        relation = self.catalog.get(access.relation)
        if relation is None:
            raise KeyError("planner: unknown relation %r" % (access.relation,))
        relpages = self.catalog.relpages(access.relation)

        if access.pattern is AccessPattern.SCAN:
            return [
                PlanNode(
                    kind=PlanNodeKind.SEQ_SCAN,
                    relation=access.relation,
                    table=access.relation if relation.is_table else (relation.parent or access.relation),
                    estimated_pages=relpages,
                    estimated_rows=max(1, relpages),
                )
            ]

        # Random (index-driven) access.  If the accessed relation is a table,
        # route the access through one of its indices when one exists, which
        # is what a cost-based planner would do for a selective predicate.
        nodes: List[PlanNode] = []
        if relation.is_table:
            chosen = self.catalog.smallest_index_of(access.relation)
            if chosen is not None:
                nodes.append(
                    PlanNode(
                        kind=PlanNodeKind.INDEX_SCAN,
                        relation=chosen.name,
                        table=access.relation,
                        estimated_pages=INDEX_PAGES_PER_LOOKUP + access.pages_per_execution,
                        estimated_rows=access.pages_per_execution,
                    )
                )
            else:
                # No index: the database would fall back to a sequential scan
                # even for a selective predicate.
                nodes.append(
                    PlanNode(
                        kind=PlanNodeKind.SEQ_SCAN,
                        relation=access.relation,
                        table=access.relation,
                        estimated_pages=relpages,
                        estimated_rows=max(1, relpages),
                    )
                )
        else:
            # Random access to an index relation directly (index-only scan).
            nodes.append(
                PlanNode(
                    kind=PlanNodeKind.INDEX_SCAN,
                    relation=access.relation,
                    table=relation.parent or access.relation,
                    estimated_pages=INDEX_PAGES_PER_LOOKUP,
                    estimated_rows=access.pages_per_execution,
                )
            )
        return nodes

    def plan(self, txn_type: TransactionType) -> ExecutionPlan:
        """Produce the execution plan for a whole transaction type."""
        nodes: List[PlanNode] = []
        for access in txn_type.reads:
            nodes.extend(self.plan_access(access))
        for write_spec in txn_type.writes:
            nodes.append(
                PlanNode(
                    kind=PlanNodeKind.MODIFY,
                    relation=write_spec.relation,
                    table=write_spec.relation,
                    estimated_pages=write_spec.pages_dirtied,
                    estimated_rows=write_spec.rows,
                )
            )
        return ExecutionPlan(transaction_type=txn_type.name, nodes=tuple(nodes))
