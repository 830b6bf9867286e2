"""Queueing resources: the CPU and the disk channel of a replica.

Each replica machine in the paper has one CPU and one disk whose I/O channel
is shared by transaction reads and by the write-back of locally and remotely
dirtied pages.  Both are modelled here as work-conserving FIFO servers: a
request occupies the server for its service time, later requests queue
behind it, and the server tracks how busy it has been so the monitoring
daemons can report CPU and disk utilisation to the load balancer
(Section 2.4: "the load balancer continuously receives replica load
information on the CPU and the disk I/O channel utilization from
lightweight daemons running on each of the replicas").

Two kinds of work can be offered:

* *foreground* requests (``acquire``) complete with a callback -- the
  transaction waits for them (CPU processing, synchronous reads);
* *background* work (``add_background_work``) occupies the server and delays
  later requests but nobody waits on its completion -- dirty-page write-back
  behaves this way because Tashkent replicas never fsync on the critical
  path (Section 4.1, "Durability").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.simulator import Simulator


class Resource:
    """A single-server FIFO queue with utilisation accounting."""

    __slots__ = ("sim", "name", "_busy_until", "_work_accepted")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # Time until which the server is busy with already-accepted work.
        self._busy_until: float = 0.0
        # Total service time ever accepted (including not-yet-served backlog).
        self._work_accepted: float = 0.0

    # ------------------------------------------------------------------
    # Offering work
    # ------------------------------------------------------------------
    def acquire(self, service_time: float, callback: Optional[Callable[[], None]] = None) -> float:
        """Queue a foreground request; returns its completion time.

        The ``callback`` (if any) fires when the request finishes service.
        """
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        sim = self.sim
        busy_until = self._busy_until
        start = sim.now if sim.now > busy_until else busy_until
        completion = start + service_time
        self._busy_until = completion
        self._work_accepted += service_time
        if callback is not None:
            # Completions never lie in the past (completion >= now by
            # construction), so they skip schedule_at's check.
            sim.queue.push(completion, callback)
        return completion

    def add_background_work(self, service_time: float) -> float:
        """Queue background work (no completion callback)."""
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        if service_time == 0:
            return self._busy_until
        now = self.sim.now
        busy_until = self._busy_until
        start = now if now > busy_until else busy_until
        completion = start + service_time
        self._busy_until = completion
        self._work_accepted += service_time
        return completion

    # ------------------------------------------------------------------
    # Utilisation accounting
    # ------------------------------------------------------------------
    def busy_seconds_until(self, time: Optional[float] = None) -> float:
        """Cumulative time the server has actually been busy up to ``time``."""
        at = self.sim.now if time is None else time
        return self._work_accepted - max(0.0, self._busy_until - at)


@dataclass
class ReplicaResources:
    """The CPU and disk channel of one replica machine."""

    cpu: Resource
    disk: Resource

    @classmethod
    def create(cls, sim: Simulator, replica_id: int) -> "ReplicaResources":
        return cls(
            cpu=Resource(sim, "replica-%d-cpu" % replica_id),
            disk=Resource(sim, "replica-%d-disk" % replica_id),
        )
