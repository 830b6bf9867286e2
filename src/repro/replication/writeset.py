"""Writesets and their certified form.

A writeset is "the core information required to reflect the effects of an
update transaction's changes" (Section 4.1): which tables were changed
and which rows (keys).  The raw :class:`~repro.storage.engine.WriteSet` is
built once, stamped with its origin, when an update transaction executes;
once the certifier admits that same object, it is wrapped with a global
commit version as a :class:`CertifiedWriteSet`, the unit stored in the
certifier's log and propagated to replicas.
"""

from __future__ import annotations

from repro.storage.engine import WriteItem, WriteSet


class CertifiedWriteSet:
    """A writeset that passed certification, with its global commit order.

    Hand-written rather than a frozen dataclass: one of these is constructed
    per committed transaction, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` call per field) was a measurable slice of the
    certification hot path.  Value equality and hashing match the old
    dataclass; treat instances as immutable.
    """

    __slots__ = ("version", "writeset")

    def __init__(self, version: int, writeset: WriteSet) -> None:
        if version <= 0:
            raise ValueError("commit versions start at 1")
        self.version = version
        self.writeset = writeset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CertifiedWriteSet):
            return NotImplemented
        return self.version == other.version and self.writeset == other.writeset

    def __hash__(self) -> int:
        return hash((self.version, self.writeset))

    def __repr__(self) -> str:
        return "CertifiedWriteSet(version=%r, writeset=%r)" % (
            self.version, self.writeset)


__all__ = ["CertifiedWriteSet", "WriteItem", "WriteSet"]
