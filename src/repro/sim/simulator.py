"""Discrete-event simulator core.

A minimal, fast event loop: components schedule callbacks at future
simulated times and the simulator executes them in time order.  All
behaviour of the replicated system (clients thinking, CPUs and disks
serving, the certifier responding, the load balancer re-allocating
replicas) is expressed as events, so simulated time is completely decoupled
from wall-clock time and a 6000-second experiment such as Figure 6 runs in
seconds.

Every event is a bare callback on one queue: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` add one, :meth:`Simulator.schedule_periodic`
re-adds one after every tick.  Nothing is ever cancelled, so a scheduled
callback always runs once its time comes.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.sim.events import EventCallback, EventQueue


class Simulator:
    """The event loop.

    Components hold a reference to the simulator and use :meth:`schedule` /
    :meth:`schedule_at`.  Time only advances inside :meth:`run_until`.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % (delay,))
        self.queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: EventCallback) -> None:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule in the past (now=%.6f, requested=%.6f)" % (self.now, time)
            )
        self.queue.push(time, callback)

    def schedule_periodic(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` every ``interval`` seconds until the run ends."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            self.schedule(interval, tick)

        self.schedule(interval, tick)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Run events until simulated time reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed; the clock
        never advances past ``end_time`` even if later events remain queued.

        This is the simulation's innermost loop, so it consumes the queue's
        heap directly.
        """
        if end_time < self.now:
            raise ValueError("end_time lies in the past")
        hook = self.queue.probe
        if hook is not None:
            # Armed only by the determinism sanitizer; the fast loop below
            # stays byte-identical (and branch-free on the slot) otherwise.
            self._run_until_probed(end_time, hook)
            return
        heap = self.queue._heap
        heappop = heapq.heappop
        processed = 0
        while heap and heap[0][0] <= end_time:
            time, _, callback = heappop(heap)
            self.now = time
            callback()
            processed += 1
        self.events_processed += processed
        self.now = max(self.now, end_time)

    def _run_until_probed(self, end_time: float,
                          hook: Callable[[float, int, object], None]) -> None:
        """The :meth:`run_until` loop with the dsan probe armed.

        A separate method so the unprobed fast path carries no per-event
        branch; the event order, clock updates and ``events_processed``
        accounting are identical to :meth:`run_until`.
        """
        heap = self.queue._heap
        heappop = heapq.heappop
        processed = 0
        while heap and heap[0][0] <= end_time:
            time, sequence, callback = heappop(heap)
            self.now = time
            hook(time, sequence, callback)
            callback()
            processed += 1
        self.events_processed += processed
        self.now = max(self.now, end_time)
