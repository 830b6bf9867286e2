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

from dataclasses import dataclass

from repro.storage.pages import MB, PAGE_SIZE_BYTES


@dataclass(frozen=True)
class DiskModel:
    """Cost parameters for a single commodity disk (2006-era 7200 rpm SATA).

    Attributes:
        random_read_ms_per_page: positioning plus transfer time of one
            random 8 KB page read.
        sequential_read_mb_per_s: effective bandwidth of sequential scans
            under concurrent access (interleaving with other requests keeps
            this well below the raw streaming rate of the disk).
        random_write_ms_per_page: effective cost of writing back one dirty
            page, after the background writer's sorting/coalescing.
        write_coalesce_factor: fraction of logically dirtied pages that
            actually reach the disk (re-dirtying the same page before
            write-back coalesces writes).
    """

    random_read_ms_per_page: float = 11.0
    sequential_read_mb_per_s: float = 20.0
    random_write_ms_per_page: float = 2.5
    write_coalesce_factor: float = 0.85

    def __post_init__(self) -> None:
        if self.random_read_ms_per_page <= 0:
            raise ValueError("random_read_ms_per_page must be positive")
        if self.sequential_read_mb_per_s <= 0:
            raise ValueError("sequential_read_mb_per_s must be positive")
        if self.random_write_ms_per_page <= 0:
            raise ValueError("random_write_ms_per_page must be positive")
        if not 0.0 < self.write_coalesce_factor <= 1.0:
            raise ValueError("write_coalesce_factor must be in (0, 1]")

    # ------------------------------------------------------------------
    # Read costs
    # ------------------------------------------------------------------
    def read_seconds(self, random_bytes: float, sequential_bytes: float) -> float:
        """Combined read service time for one transaction's misses: each
        random page pays the positioning cost, sequential bytes stream at
        the sequential bandwidth.  Runs once per transaction and once per
        writeset batch.
        """
        if random_bytes > 0:
            random_s = (random_bytes / PAGE_SIZE_BYTES) * self.random_read_ms_per_page / 1000.0
        else:
            random_s = 0.0
        if sequential_bytes > 0:
            return random_s + sequential_bytes / (self.sequential_read_mb_per_s * MB)
        return random_s + 0.0

    # ------------------------------------------------------------------
    # Write costs
    # ------------------------------------------------------------------
    def write_seconds(self, num_bytes: float) -> float:
        """Service time to write back ``num_bytes`` of dirty pages."""
        if num_bytes <= 0:
            return 0.0
        pages = (num_bytes / PAGE_SIZE_BYTES) * self.write_coalesce_factor
        return pages * self.random_write_ms_per_page / 1000.0

    def effective_write_bytes(self, num_bytes: float) -> float:
        """Bytes that actually hit the platter after coalescing."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes * self.write_coalesce_factor
