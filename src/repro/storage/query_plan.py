"""Query execution plans: the ``EXPLAIN`` output of the simulated database.

Section 2.2 of the paper: "We use the execution plan as well as metadata
from the database to generate the working set estimate for each transaction
type.  The load balancer requests from the database the execution plan of
the transaction type.  The execution plan contains the tables and indices
used and how the database accesses them."

The plan representation here deliberately exposes exactly that information
and nothing more: a list of plan nodes, each naming one relation and the
access method (sequential scan vs index scan), plus the written tables for
update statements.  The load balancer's working-set estimators consume plans
through this interface only -- they never look at the underlying
:class:`~repro.workloads.spec.TransactionType`, mirroring the fact that the
real Tashkent+ load balancer only ever sees ``EXPLAIN`` output and
``pg_class`` metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class PlanNodeKind(enum.Enum):
    """Access methods that can appear in an execution plan."""

    SEQ_SCAN = "Seq Scan"
    INDEX_SCAN = "Index Scan"
    MODIFY = "Modify Table"


@dataclass(frozen=True)
class PlanNode:
    """One node of an execution plan.

    Attributes:
        kind: access method.
        relation: relation accessed (the table for scans/modifies, the index
            for index scans).
        table: for index scans, the underlying table whose tuples the index
            scan fetches; equal to ``relation`` otherwise.
        estimated_pages: the planner's estimate of how many pages a single
            execution touches in this relation.  For a sequential scan this
            is the full relation size (``relpages``); for an index scan it is
            a small number.
        estimated_rows: planner row-count estimate (informational).
    """

    kind: PlanNodeKind
    relation: str
    table: str
    estimated_pages: int
    estimated_rows: int = 1

    def __post_init__(self) -> None:
        if self.estimated_pages < 0:
            raise ValueError("estimated_pages must be non-negative")

    @property
    def is_scan(self) -> bool:
        return self.kind is PlanNodeKind.SEQ_SCAN

    @property
    def is_index_scan(self) -> bool:
        return self.kind is PlanNodeKind.INDEX_SCAN

    @property
    def is_modify(self) -> bool:
        return self.kind is PlanNodeKind.MODIFY


@dataclass(frozen=True)
class ExecutionPlan:
    """The full plan for one transaction type.

    A transaction type may consist of several SQL statements; the plan here
    is the union of their plan trees flattened to the relation level, which
    is the granularity the paper's estimators need.
    """

    transaction_type: str
    nodes: Tuple[PlanNode, ...]

    def relations(self) -> List[str]:
        """All relations referenced by the plan, in plan order, de-duplicated."""
        seen: Dict[str, None] = {}
        for node in self.nodes:
            seen.setdefault(node.relation, None)
        return list(seen.keys())

    def explain(self) -> str:
        """A human-readable rendering loosely modelled on PostgreSQL EXPLAIN."""
        lines = ["Plan for transaction type %s" % self.transaction_type]
        for node in self.nodes:
            if node.is_index_scan:
                lines.append(
                    "  %s using %s on %s  (pages=%d rows=%d)"
                    % (node.kind.value, node.relation, node.table,
                       node.estimated_pages, node.estimated_rows)
                )
            else:
                lines.append(
                    "  %s on %s  (pages=%d rows=%d)"
                    % (node.kind.value, node.relation, node.estimated_pages, node.estimated_rows)
                )
        return "\n".join(lines)
