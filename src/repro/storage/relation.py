"""Relations: tables and indices, and whole-database schemas.

A :class:`Relation` is the catalog-level description of a table or an index
-- its name, kind and size.  This is exactly the granularity at which the
paper's load balancer reasons about memory: working sets are "dominated by
the tables and indices referenced" (Section 2.2) and sizes are read from
``pg_class.relpages``.

A :class:`Schema` is an immutable collection of relations that together form
one database (e.g. TPC-W at 300 EBS, or the 2.2 GB RUBiS database).  The
schema is the ground truth that the catalog exposes to the load balancer and
that the storage engine uses to drive the buffer pool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.storage.pages import PAGE_SIZE_BYTES


class RelationKind(enum.Enum):
    """Whether a relation is a base table or a secondary index."""

    TABLE = "table"
    INDEX = "index"


@dataclass(frozen=True)
class Relation:
    """A table or index with a fixed size.

    Attributes:
        name: unique relation name within its schema (e.g. ``"order_line"``
            or ``"order_line_pkey"``).
        kind: table or index.
        size_bytes: on-disk size of the relation.  For indices this is the
            size of the index structure, not of the indexed table.
        parent: for indices, the name of the table they index; ``None`` for
            tables.
    """

    name: str
    kind: RelationKind
    size_bytes: int
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("relation %r has negative size" % (self.name,))
        if self.kind is RelationKind.INDEX and self.parent is None:
            raise ValueError("index %r must declare its parent table" % (self.name,))
        if self.kind is RelationKind.TABLE and self.parent is not None:
            raise ValueError("table %r must not declare a parent" % (self.name,))

    @property
    def is_table(self) -> bool:
        return self.kind is RelationKind.TABLE

    @property
    def is_index(self) -> bool:
        return self.kind is RelationKind.INDEX


def table(name: str, size_bytes: int) -> Relation:
    """Convenience constructor for a base table."""
    return Relation(name=name, kind=RelationKind.TABLE, size_bytes=size_bytes)


def index(name: str, parent: str, size_bytes: int) -> Relation:
    """Convenience constructor for a secondary index on ``parent``."""
    return Relation(name=name, kind=RelationKind.INDEX, size_bytes=size_bytes, parent=parent)


@dataclass
class Schema:
    """An immutable named collection of relations forming one database.

    The schema enforces name uniqueness and that every index references an
    existing table, so downstream components (catalog, planner, working-set
    estimator) can rely on referential integrity.
    """

    name: str
    relations: Dict[str, Relation] = field(default_factory=dict)
    # Lazily built table -> [indices] map; rebuilt after add().  The planner
    # and every engine ask for a table's indices once per random access they
    # compile, and re-scanning the schema each time was measurable in
    # cluster set-up.
    _indices_by_table: Optional[Dict[str, List[Relation]]] = \
        field(default=None, compare=False, repr=False)

    @classmethod
    def from_relations(cls, name: str, relations: Iterable[Relation]) -> "Schema":
        schema = cls(name=name)
        for relation in relations:
            schema.add(relation)
        schema.validate()
        return schema

    def add(self, relation: Relation) -> None:
        if relation.name in self.relations:
            raise ValueError("duplicate relation name %r in schema %r" % (relation.name, self.name))
        self.relations[relation.name] = relation
        self._indices_by_table = None

    def validate(self) -> None:
        """Check that every index's parent table exists."""
        for relation in self.relations.values():
            if relation.is_index and relation.parent not in self.relations:
                raise ValueError(
                    "index %r references missing table %r" % (relation.name, relation.parent)
                )

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def get(self, name: str) -> Optional[Relation]:
        return self.relations.get(name)

    def indices_of(self, table_name: str) -> List[Relation]:
        """All indices whose parent is ``table_name``.

        Served from a lazily built map; callers must treat the returned
        list as read-only.
        """
        by_table = self._indices_by_table
        if by_table is None:
            by_table = {}
            for relation in self.relations.values():
                if relation.is_index:
                    by_table.setdefault(relation.parent, []).append(relation)
            self._indices_by_table = by_table
        return by_table.get(table_name, [])

    def scaled(self, factor: float, name: Optional[str] = None,
               fixed: Tuple[str, ...] = ()) -> "Schema":
        """Return a copy of the schema with relation sizes scaled by ``factor``.

        Relations named in ``fixed`` keep their original size.  This supports
        the TPC-W EBS scaling rule where catalogue tables (items, authors,
        countries) have a fixed cardinality while customer/order tables grow
        with the number of emulated browsers.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive, got %r" % (factor,))
        scaled_relations = []
        for relation in self.relations.values():
            if relation.name in fixed:
                scaled_relations.append(relation)
            else:
                scaled_relations.append(
                    Relation(
                        name=relation.name,
                        kind=relation.kind,
                        size_bytes=max(PAGE_SIZE_BYTES, int(relation.size_bytes * factor)),
                        parent=relation.parent,
                    )
                )
        return Schema.from_relations(name or self.name, scaled_relations)
