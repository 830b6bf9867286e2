"""Page size constants and size arithmetic.

The paper's prototype uses PostgreSQL, whose unit of storage and of buffer
management is an 8 KB page.  Working-set estimates in the paper are computed
from ``pg_class.relpages`` (the number of 8 KB pages of a table or index),
and the disk I/O accounting in Tables 1, 3 and 5 is expressed in KB per
transaction, where every dirty page is written back in full ("a database
page must be written completely to disk whether one byte is dirty or all
8KB are dirty", Section 5.5).

The simulator does not track individual 8 KB pages of a multi-gigabyte
database: the buffer pool tracks fractional residency per relation hot set
(see :mod:`repro.storage.buffer_pool`), and disk-read and disk-write volumes
are accounted in bytes and reported in pages.
"""

from __future__ import annotations

# PostgreSQL page size used by the paper's prototype (Section 4.2.2, item 3).
PAGE_SIZE_BYTES: int = 8 * 1024

# Convenience multipliers.
KB: int = 1024
MB: int = 1024 * 1024


def pages_for_bytes(num_bytes: float) -> int:
    """Number of 8 KB pages needed to hold ``num_bytes`` (rounded up)."""
    if num_bytes <= 0:
        return 0
    return int((num_bytes + PAGE_SIZE_BYTES - 1) // PAGE_SIZE_BYTES)


def mb(value: float) -> int:
    """Bytes in ``value`` mebibytes (accepts fractional MB)."""
    return int(value * MB)
