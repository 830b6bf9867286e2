"""Event queue primitives for the discrete-event simulator.

The simulator is a classic event-driven design: a priority queue of
``(time, sequence, callback)`` entries.  The sequence number breaks ties so
that events scheduled for the same instant fire in FIFO order, which keeps
runs deterministic for a fixed random seed -- a property the tests rely on.

This queue is the hottest structure in the whole simulation (every
transaction stage is at least one heap operation), so an entry is a plain
tuple: the unique sequence number guarantees tuple comparison never reaches
the callback, so ordering costs two machine-level comparisons.  Events are
never cancelled, so there is no handle and no lazy deletion; the simulator's
run loops consume ``_heap`` directly.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

EventCallback = Callable[[], None]


class EventQueue:
    """A time-ordered queue of callbacks."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventCallback]] = []
        self._next_sequence = 0
        # Determinism-sanitizer hook (repro.analysis.dsan): called with
        # ``(time, sequence, callback)`` for every *executed* event.  Same
        # zero-overhead contract as the obs/ slots -- None by default, and
        # the simulator's fast loop never touches it unless armed.
        self.probe: Optional[Callable[[float, int, object], None]] = None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: EventCallback) -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < 0:
            raise ValueError("event time must be non-negative, got %r" % (time,))
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, callback))

    # perfbench's tracer patches both names; they are one function.
    push_bare = push
