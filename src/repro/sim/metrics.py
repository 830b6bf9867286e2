"""Measurement: throughput, response time and disk I/O accounting.

The paper's primary metric is throughput in transactions per second
(Section 4.4); the secondary evidence is average disk I/O per transaction
(Tables 1, 3 and 5) and the throughput-over-time series of the dynamic
reconfiguration experiment (Figure 6).  This module collects exactly those
quantities, with a configurable warm-up period that is excluded from the
reported averages (the prototype experiments similarly measure steady
state).

The collector *streams*: completions update running sums and per-bucket
counters, so memory is O(run length / bucket) instead of one retained
record per transaction -- paper-scale runs complete hundreds of thousands
of transactions, and a record for each dominated the simulator's memory
footprint.  It keeps only the series some experiment or export reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.storage.pages import KB


@dataclass
class ThroughputPoint:
    """Completions aggregated over one reporting interval (Figure 6 series)."""

    time: float
    throughput_tps: float


class MetricsCollector:
    """Collects per-transaction completions and derives the paper's metrics."""

    def __init__(self, warmup_seconds: float = 0.0, bucket_seconds: float = 30.0) -> None:
        if warmup_seconds < 0:
            raise ValueError("warmup must be non-negative")
        if bucket_seconds <= 0:
            raise ValueError("bucket size must be positive")
        self.warmup_seconds = warmup_seconds
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, int] = {}
        # Streaming aggregates over post-warmup completions.
        self._completed = 0
        self._updates = 0
        self._response_time_total = 0.0
        self._foreground_read_bytes = 0.0
        self._foreground_write_bytes = 0.0
        # Write-back volume not attributable to a single local transaction
        # (remote writeset application), charged per replica.
        self.background_write_bytes: Dict[int, float] = {}
        self.background_read_bytes: Dict[int, float] = {}
        #: Client-visible certification aborts (the quantity the determinism
        #: goldens pin); crash/drain failures are *not* counted here.
        self.aborts: int = 0
        #: Abort/failure taxonomy: "certification-conflict" (aborted but
        #: retried), "retry-exhausted" (certification abort returned to the
        #: client), "crash-in-flight" (replica crashed mid-transaction) and
        #: "drain-straggler" (failed at a drain deadline).  The first two
        #: also bump ``aborts``; the last two come from record_failure.
        self.abort_reasons: Dict[str, int] = {}
        self.end_time: float = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_completion(self, time: float, response_time: float, is_update: bool,
                          read_bytes: float, write_bytes: float) -> None:
        if time > self.end_time:
            self.end_time = time
        bucket = int(time // self.bucket_seconds)
        buckets = self._buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1
        if time < self.warmup_seconds:
            return
        self._completed += 1
        self._response_time_total += response_time
        if is_update:
            self._updates += 1
        self._foreground_read_bytes += read_bytes
        self._foreground_write_bytes += write_bytes

    def record_background_io(self, time: float, replica_id: int,
                             read_bytes: float, write_bytes: float) -> None:
        """Charge I/O caused by remote-writeset application at a replica."""
        if time > self.end_time:
            self.end_time = time
        if time < self.warmup_seconds:
            return
        self.background_read_bytes[replica_id] = \
            self.background_read_bytes.get(replica_id, 0.0) + read_bytes
        self.background_write_bytes[replica_id] = \
            self.background_write_bytes.get(replica_id, 0.0) + write_bytes

    def record_abort(self, reason: str = "certification-conflict") -> None:
        self.aborts += 1
        reasons = self.abort_reasons
        reasons[reason] = reasons.get(reason, 0) + 1

    def record_failure(self, reason: str, count: int = 1) -> None:
        """Transactions failed outside certification (crash, drain deadline).

        Kept out of ``aborts`` -- that counter means certification aborts and
        is pinned by the seeded goldens -- but folded into the same
        ``abort_reasons`` taxonomy the reports break down.
        """
        if count <= 0:
            return
        reasons = self.abort_reasons
        reasons[reason] = reasons.get(reason, 0) + count

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return self._completed

    @property
    def updates_completed(self) -> int:
        """Committed update transactions in the measurement window."""
        return self._updates

    def measurement_window(self) -> float:
        return max(0.0, self.end_time - self.warmup_seconds)

    def throughput_tps(self) -> float:
        """Transactions completed per second over the measurement window."""
        window = self.measurement_window()
        if window <= 0:
            return 0.0
        return self._completed / window

    def average_response_time(self) -> float:
        if not self._completed:
            return 0.0
        return self._response_time_total / self._completed

    # ------------------------------------------------------------------
    # Disk I/O per transaction (Tables 1, 3 and 5)
    # ------------------------------------------------------------------
    def read_kb_per_transaction(self) -> float:
        """Average KB read from disk per completed transaction.

        Includes reads caused by applying remote writesets, amortised over
        the transactions completed in the window -- the same accounting the
        paper's per-transaction disk figures use.
        """
        if not self._completed:
            return 0.0
        background = sum(self.background_read_bytes.values())
        return (self._foreground_read_bytes + background) / self._completed / KB

    def write_kb_per_transaction(self) -> float:
        """Average KB written to disk per completed transaction."""
        if not self._completed:
            return 0.0
        background = sum(self.background_write_bytes.values())
        return (self._foreground_write_bytes + background) / self._completed / KB

    # ------------------------------------------------------------------
    # Time series (Figure 6)
    # ------------------------------------------------------------------
    def throughput_series(self) -> List[ThroughputPoint]:
        """Throughput per reporting bucket, including the warm-up period."""
        points = []
        for bucket in sorted(self._buckets):
            points.append(
                ThroughputPoint(
                    time=bucket * self.bucket_seconds,
                    throughput_tps=self._buckets[bucket] / self.bucket_seconds,
                )
            )
        return points

    def completions_between(self, start_s: float, end_s: float) -> int:
        """Completions (warm-up included) inside ``[start_s, end_s)``.

        Counted at reporting-bucket granularity: a bucket contributes when
        its start time falls inside the window, so windows aligned to
        ``bucket_seconds`` are exact and unaligned edges are rounded to the
        enclosing bucket.
        """
        if end_s <= start_s:
            return 0
        return sum(count for bucket, count in self._buckets.items()
                   if start_s <= bucket * self.bucket_seconds < end_s)

    def moving_average_series(self, window_buckets: int = 5) -> List[ThroughputPoint]:
        """Moving average of the throughput series (the paper uses 150 s over 30 s buckets)."""
        if window_buckets <= 0:
            raise ValueError("window must be positive")
        series = self.throughput_series()
        points = []
        for i in range(len(series)):
            start = max(0, i - window_buckets + 1)
            window = series[start:i + 1]
            avg = sum(p.throughput_tps for p in window) / len(window)
            points.append(ThroughputPoint(time=series[i].time, throughput_tps=avg))
        return points
