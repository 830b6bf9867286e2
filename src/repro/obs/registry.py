"""Unified telemetry registry: counters, sampled gauges and snapshots.

The simulator accumulated metrics islands as it grew -- ``CertifierStats``,
``BufferPoolStats``, the replicas' admission counters, the routing
table's outstanding counts, the monitor's smoothed samples, the
membership/fault/autoscaler audit trails.  The registry gives them one
publication surface:

* **counters** are monotonically increasing values owned by the registry,
  for cold-path events nothing else counts -- pulls, membership changes,
  faults, RPC events, autoscaler actions (instrument sites call
  :meth:`Counter.inc`);
* **gauges** are named callables sampled at snapshot time, so the existing
  islands keep their state and the registry reads it on demand: a fact the
  simulator already counts (evicted bytes, certification requests) is
  published as a gauge over that one counter, never counted a second time
  on a hot path;
* **snapshots** are periodic time-bucketed samples of everything, forming
  the time series the future control-plane dashboard (ROADMAP item 3) will
  stream.

Everything is JSON-exportable through :meth:`TelemetryRegistry.to_dict`;
the experiments runner, the chaos campaign and the perf harness write that
export next to their results and print its summary.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

TELEMETRY_SCHEMA_VERSION = 1


class Counter:
    """One monotonically increasing telemetry counter (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        # Annotated float (inc() takes byte counts and durations), but
        # initialised with int 0 so an untouched counter still exports as
        # ``0`` -- json.dump renders 0 and 0.0 differently and the
        # telemetry goldens pin the former.
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class TelemetryRegistry:
    """Named counters and gauges with periodic time-bucketed snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], object]] = {}
        self.snapshots: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name`` (idempotent)."""
        counter = self._counters.get(name)
        if counter is None:
            self._counters[name] = counter = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], object]) -> None:
        """Register (or replace) a gauge sampled at snapshot time.

        ``fn`` must return a JSON-serialisable value -- a number for plain
        gauges, or a dict for structured ones (e.g. per-replica detail).
        """
        self._gauges[name] = fn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters_snapshot(self) -> Dict[str, object]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges_snapshot(self) -> Dict[str, object]:
        return {name: fn() for name, fn in sorted(self._gauges.items())}

    def snapshot(self, now: float) -> Dict[str, object]:
        """Sample everything into a time-stamped snapshot and retain it."""
        snap: Dict[str, object] = {
            "time": now,
            "counters": self.counters_snapshot(),
            "gauges": self.gauges_snapshot(),
        }
        self.snapshots.append(snap)
        return snap

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "snapshots": self.snapshots,
        }

    def export(self, path: str,
               extra: Optional[Dict[str, object]] = None) -> None:
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
