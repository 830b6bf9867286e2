"""Single-replica database substrate.

This package is the simulated equivalent of one PostgreSQL instance as used
by the Tashkent+ prototype: relations and schemas, a ``pg_class``-style
catalog, an ``EXPLAIN``-style query planner, an LRU buffer pool, a disk cost
model and the engine that converts transaction executions into resource
demand.
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.catalog import Catalog
from repro.storage.engine import (
    AccessPlan,
    DatabaseEngine,
    EngineConfig,
    WriteItem,
    WriteSet,
)
from repro.storage.pages import (
    KB,
    MB,
    PAGE_SIZE_BYTES,
    mb,
    pages_for_bytes,
)
from repro.storage.planner import QueryPlanner
from repro.storage.query_plan import ExecutionPlan, PlanNode, PlanNodeKind
from repro.storage.relation import Relation, RelationKind, Schema, index, table

__all__ = [
    "AccessPlan",
    "BufferPool",
    "BufferPoolStats",
    "Catalog",
    "DatabaseEngine",
    "EngineConfig",
    "ExecutionPlan",
    "KB",
    "MB",
    "PAGE_SIZE_BYTES",
    "PlanNode",
    "PlanNodeKind",
    "QueryPlanner",
    "Relation",
    "RelationKind",
    "Schema",
    "WriteItem",
    "WriteSet",
    "index",
    "mb",
    "pages_for_bytes",
    "table",
]
