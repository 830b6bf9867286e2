"""Deterministic, sim-clock-stamped transaction tracing.

The tracer answers the question the end-of-run aggregates cannot: *where*
does a transaction's time go.  Every transaction carries a slotted
:class:`TxnTrace` that accumulates per-stage time as the
``ADMITTED -> CPU -> READS -> CERTIFYING -> DONE`` lifecycle advances, and
the replica emits one span per stage transition into a :class:`Tracer`.
Alongside the raw event stream the tracer keeps a
:class:`StageLatencyAggregator` of per-stage latency histograms, recorded
once per *finished* transaction, so the stage histograms sum-reconcile with
the end-to-end latency histogram by construction (the stage laps telescope:
each lap starts where the previous one ended and the final lap ends at the
finish instant).

Timestamps are simulated seconds, never wall clock, so two seeded runs of
the same scenario produce byte-identical exports.  The export format is the
Chrome trace-event JSON (``ph`` "X" complete spans, "i" instants, "M"
metadata), loadable directly in Perfetto / ``chrome://tracing``; ``pid`` is
the replica id and ``tid`` the transaction id of the first attempt, so the
UI groups spans by replica and threads them by transaction.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

#: Stage indices match the ``TransactionContext`` lifecycle: the ``queue``
#: stage covers admission queueing (ADMITTED until the slot is granted),
#: ``cpu`` and ``reads`` the resource stages, ``certify`` the time from the
#: end of the reads until the certification outcome is delivered (batching
#: wait plus the round trip).  Retries accumulate into the same buckets.
QUEUE, CPU, READS, CERTIFY = 0, 1, 2, 3
STAGE_NAMES: Tuple[str, ...] = ("queue", "cpu", "reads", "certify")

TRACE_SCHEMA = "chrome-trace-event"

#: Flat stored event: (phase, name, category, start_s, duration_s, pid, tid,
#: args) -- converted to the Chrome schema only at export.
_TraceEvent = Tuple[str, str, str, float, float, int, int,
                    Optional[Dict[str, object]]]


class TxnTrace:
    """Per-transaction trace state: one allocated per traced transaction.

    ``last_mark`` is the simulated time at which the current stage began;
    every stage transition laps it forward and adds the elapsed time to the
    stage's bucket.  The buckets survive retries (an aborted attempt's time
    is real latency the client paid), so the final per-stage sums telescope
    exactly to ``finish_time - submitted_at``.
    """

    __slots__ = ("submitted_at", "last_mark", "txn_id", "stage_seconds")

    def __init__(self, submitted_at: float) -> None:
        self.submitted_at = submitted_at
        self.last_mark = submitted_at
        self.txn_id = 0
        self.stage_seconds = [0.0, 0.0, 0.0, 0.0]

    def lap(self, stage: int, now: float) -> float:
        """Close the current stage at ``now``; returns the stage's start time."""
        start = self.last_mark
        self.stage_seconds[stage] += now - start
        self.last_mark = now
        return start


class LatencyHistogram:
    """A compact log2-bucketed latency histogram.

    Buckets are powers of two in microseconds (bucket ``i`` holds samples in
    ``[2^(i-1), 2^i)`` us; bucket 0 holds sub-microsecond samples), sparse,
    and fully deterministic -- integer bucketing involves no float log.
    """

    __slots__ = ("count", "total_seconds", "min_seconds", "max_seconds",
                 "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = 0.0
        self.max_seconds = 0.0
        self._buckets: Dict[int, int] = {}

    def record(self, seconds: float) -> None:
        if self.count == 0 or seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        self.count += 1
        self.total_seconds += seconds
        bucket = int(seconds * 1e6).bit_length()
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean_seconds(self) -> float:
        if not self.count:
            return 0.0
        return self.total_seconds / self.count

    def buckets(self) -> List[Tuple[float, int]]:
        """Sorted ``(upper_bound_us, count)`` pairs for the non-empty buckets."""
        return [(float(2 ** b), self._buckets[b]) for b in sorted(self._buckets)]

    def quantile(self, q: float) -> float:
        """Approximate quantile in seconds (upper bucket bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        threshold = q * self.count
        seen = 0
        for bound_us, count in self.buckets():
            seen += count
            if seen >= threshold:
                return min(bound_us / 1e6, self.max_seconds)
        return self.max_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.quantile(0.5),
            "p99_seconds": self.quantile(0.99),
            "buckets_us": [[bound, count] for bound, count in self.buckets()],
        }


class StageLatencyAggregator:
    """Per-stage latency histograms plus the end-to-end histogram.

    Recorded once per finished transaction (crash-abandoned transactions
    never reach ``_finish`` and are excluded from both sides), so
    ``sum(stage totals) == total histogram total`` up to float addition
    order -- the reconciliation the acceptance tests check.
    """

    def __init__(self) -> None:
        self.stages: Dict[str, LatencyHistogram] = {
            name: LatencyHistogram() for name in STAGE_NAMES
        }
        self.total = LatencyHistogram()

    def record_txn(self, stage_seconds: List[float], total_seconds: float) -> None:
        stages = self.stages
        for i, name in enumerate(STAGE_NAMES):
            stages[name].record(stage_seconds[i])
        self.total.record(total_seconds)

    def stage_total_seconds(self) -> float:
        return sum(h.total_seconds for h in self.stages.values())

    def reconcile_error(self) -> float:
        """Relative difference between summed stage time and end-to-end time."""
        total = self.total.total_seconds
        if total <= 0:
            return 0.0
        return abs(self.stage_total_seconds() - total) / total

    def to_dict(self) -> Dict[str, object]:
        return {
            "stages": {name: hist.to_dict() for name, hist in self.stages.items()},
            "total": self.total.to_dict(),
            "reconcile_error": self.reconcile_error(),
        }


class Tracer:
    """Collects trace events and exports them as Chrome trace-event JSON.

    Events are stored as flat tuples (phase, name, category, start, duration,
    pid, tid, args) in simulated seconds and converted to the Chrome schema
    (microsecond timestamps) only at export, keeping the enabled-mode
    per-event cost to one tuple append.
    """

    def __init__(self) -> None:
        self._events: List[_TraceEvent] = []
        self._process_names: Dict[int, str] = {}
        self.stages = StageLatencyAggregator()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str, start_s: float, duration_s: float,
             pid: int, tid: int,
             args: Optional[Dict[str, object]] = None) -> None:
        """A complete ("X") span: ``[start_s, start_s + duration_s]``."""
        self._events.append(("X", name, cat, start_s, duration_s, pid, tid, args))

    def instant(self, name: str, cat: str, ts_s: float, pid: int,
                tid: int = 0,
                args: Optional[Dict[str, object]] = None) -> None:
        """An instant ("i") event at ``ts_s``."""
        self._events.append(("i", name, cat, ts_s, 0.0, pid, tid, args))

    def set_process_name(self, pid: int, name: str) -> None:
        """Label a pid (replica) in the trace viewer's process list."""
        self._process_names[pid] = name

    # ------------------------------------------------------------------
    # Introspection (tests and reports)
    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        return len(self._events)

    def events(self, cat: Optional[str] = None,
               name: Optional[str] = None) -> Iterator[Dict[str, object]]:
        """Iterate recorded events as dicts, optionally filtered."""
        for ph, ev_name, ev_cat, ts, dur, pid, tid, args in self._events:
            if cat is not None and ev_cat != cat:
                continue
            if name is not None and ev_name != name:
                continue
            yield {"ph": ph, "name": ev_name, "cat": ev_cat, "ts": ts,
                   "dur": dur, "pid": pid, "tid": tid, "args": args or {}}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict[str, object]:
        """The trace in Chrome trace-event JSON object format."""
        trace_events: List[Dict[str, object]] = []
        for pid in sorted(self._process_names):
            trace_events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": self._process_names[pid]},
            })
        for ph, name, cat, ts, dur, pid, tid, args in self._events:
            event: Dict[str, object] = {
                "ph": ph, "name": name, "cat": cat,
                "ts": round(ts * 1e6, 3),
                "pid": pid, "tid": tid,
                "args": args or {},
            }
            if ph == "X":
                event["dur"] = round(dur * 1e6, 3)
            else:
                event["s"] = "t"        # instant scoped to its thread
            trace_events.append(event)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA},
        }

    def serialize(self) -> str:
        """Deterministic JSON serialisation (sorted keys, fixed separators)."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":"))

    def export(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.serialize())
            handle.write("\n")
