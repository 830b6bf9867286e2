"""Database catalog: the metadata interface the load balancer queries.

Section 4.2.2 of the paper describes how the Tashkent+ load balancer obtains
working-set information from PostgreSQL:

2. "The load balancer retrieves the database schema to find all tables and
   their associated indices."
3. "For each table or index, its size in pages is determined by the
   PostgreSQL query ``SELECT relpages FROM pg_class WHERE relname='<name>'``.
   Each page is 8KB."

:class:`Catalog` is the equivalent interface in this reproduction.  It wraps
a :class:`~repro.storage.relation.Schema` and answers exactly those two
queries (``relations()`` and ``relpages()``), plus the one metadata choice
the planner and the storage engine share: which index a point lookup
descends (:meth:`Catalog.smallest_index_of`), and how many of its pages the
descent touches (``INDEX_PAGES_PER_LOOKUP``).

Relation sizes are fixed for a run.  The paper re-estimates working sets
when the database grows (Section 2.1), but none of its experiments changes
a relation's size, so the catalog is an immutable view of its schema: the
load balancer groups transactions once, and each engine compiles each
transaction type once.
"""

from __future__ import annotations

from typing import List, Optional

from repro.storage.pages import pages_for_bytes
from repro.storage.relation import Relation, Schema

#: Pages of an index a single key lookup traverses (root-to-leaf path): a
#: three-level B-tree, typical for the table sizes of TPC-W and RUBiS.
INDEX_PAGES_PER_LOOKUP = 3


class Catalog:
    """Immutable metadata view over a schema."""

    __slots__ = ("schema",)

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    # ------------------------------------------------------------------
    # The two queries the paper's load balancer issues.
    # ------------------------------------------------------------------
    def relations(self) -> List[Relation]:
        """All tables and indices in the database (schema query)."""
        return list(self.schema)

    def relpages(self, name: str) -> int:
        """``SELECT relpages FROM pg_class WHERE relname = :name``."""
        return pages_for_bytes(self.size_bytes(name))

    # ------------------------------------------------------------------
    # Size accessors used by the storage engine and estimators.
    # ------------------------------------------------------------------
    def size_bytes(self, name: str) -> int:
        try:
            return self.schema.relations[name].size_bytes
        except KeyError:
            raise KeyError("unknown relation %r" % (name,)) from None

    def tables(self) -> List[Relation]:
        return [r for r in self.schema if r.is_table]

    def smallest_index_of(self, table_name: str) -> Optional[Relation]:
        """The table's smallest index (the one a point lookup descends)."""
        indices = self.schema.indices_of(table_name)
        return min(indices, key=lambda idx: idx.size_bytes) if indices else None

    def get(self, name: str) -> Optional[Relation]:
        return self.schema.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.schema
