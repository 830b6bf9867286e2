"""Disk-channel cost model.

The experimental machines in the paper have a single 7200 rpm disk whose
channel is shared between transaction reads (buffer-pool misses) and the
write-back of pages dirtied locally and by remote writesets.  Both MALB and
update filtering improve performance by relieving pressure on this channel:
"MALB-SC improves performance by reducing the amount of data pulled from
disk.  In contrast, update filtering helps by reducing the amount of data
pushed to disk and competing with reads for disk I/O" (Section 5.6.1).

The cost model converts I/O volumes produced by the storage engine into
service times on the replica's disk resource:

* random page reads pay a per-page positioning cost (seek + rotational
  latency) -- this is what makes even a few kilobytes of scattered reads
  expensive;
* sequential reads stream at the disk's sequential bandwidth;
* page write-backs are random (dirty pages are scattered over the
  database, Section 5.5) but are issued by a background writer that sorts
  and coalesces them, so their per-page cost is lower than a cold random
  read.

All constants are deliberately gathered here so that calibration of the
reproduction lives in a single place.
"""

from __future__ import annotations

from repro.storage.pages import MB, PAGE_SIZE_BYTES

# Cost parameters of the one commodity disk each replica has (a 2006-era
# 7200 rpm SATA disk).
#: Positioning plus transfer time of one random 8 KB page read.
RANDOM_READ_MS_PER_PAGE = 11.0
#: Effective bandwidth of sequential scans under concurrent access
#: (interleaving with other requests keeps this well below the raw
#: streaming rate of the disk).
SEQUENTIAL_READ_MB_PER_S = 20.0
#: Effective cost of writing back one dirty page, after the background
#: writer's sorting and coalescing.
RANDOM_WRITE_MS_PER_PAGE = 2.5
#: Fraction of logically dirtied pages that actually reach the disk
#: (re-dirtying the same page before write-back coalesces writes).
WRITE_COALESCE_FACTOR = 0.85


# ----------------------------------------------------------------------
# Read costs
# ----------------------------------------------------------------------
def read_seconds(random_bytes: float, sequential_bytes: float) -> float:
    """Combined read service time for one transaction's misses: each
    random page pays the positioning cost, sequential bytes stream at the
    sequential bandwidth.  Runs once per transaction and once per writeset
    batch.
    """
    if random_bytes > 0:
        random_s = (random_bytes / PAGE_SIZE_BYTES) * RANDOM_READ_MS_PER_PAGE / 1000.0
    else:
        random_s = 0.0
    if sequential_bytes > 0:
        return random_s + sequential_bytes / (SEQUENTIAL_READ_MB_PER_S * MB)
    return random_s + 0.0


# ----------------------------------------------------------------------
# Write costs
# ----------------------------------------------------------------------
def write_seconds(num_bytes: float) -> float:
    """Service time to write back ``num_bytes`` of dirty pages."""
    if num_bytes <= 0:
        return 0.0
    pages = (num_bytes / PAGE_SIZE_BYTES) * WRITE_COALESCE_FACTOR
    return pages * RANDOM_WRITE_MS_PER_PAGE / 1000.0


def effective_write_bytes(num_bytes: float) -> float:
    """Bytes that actually hit the platter after coalescing."""
    if num_bytes <= 0:
        return 0.0
    return num_bytes * WRITE_COALESCE_FACTOR
