"""Per-replica load monitoring.

The paper's load balancer "continuously receives replica load information on
the CPU and the disk I/O channel utilization from lightweight daemons
running on each of the replicas" (Section 2.4), and the group-load
calculation averages *smoothed* utilisations.  This module is that daemon:
it samples each replica's CPU and disk resources on a fixed interval and
publishes exponentially smoothed utilisation figures into the cluster's
:class:`~repro.core.routing.RoutingTable`, the one store every consumer
reads (the memory-aware load balancer's replica allocator, the autoscaler
and the telemetry gauges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator

if TYPE_CHECKING:
    from repro.core.routing import RoutingTable

#: Seconds between two samples of every replica's resources.
MONITOR_INTERVAL_S = 5.0
#: Weight of the newest utilisation reading in the exponential smoothing.
SMOOTHING = 0.5


@dataclass
class LoadSample:
    """One smoothed utilisation reading for a replica."""

    cpu: float = 0.0
    disk: float = 0.0

    @property
    def bottleneck(self) -> float:
        """MAX(cpu, disk): the utilisation of the bottleneck resource."""
        return max(self.cpu, self.disk)


class ReplicaMonitor:
    """Samples one replica's resources and keeps smoothed utilisations.

    The first window starts at ``now``, when monitoring begins, against the
    resources' busy time up to then: a replica that joins or is restored
    mid-run reports its utilisation since it entered service, not averaged
    over the run before it.

    Slotted: one monitor lives per replica for the whole run and its fields
    are read/written every sampling interval for every replica, so the
    instances stay small and attribute access cheap at high replica counts.
    """

    __slots__ = ("resources", "sample", "_last_time",
                 "_last_cpu_busy", "_last_disk_busy", "samples_taken")

    def __init__(self, resources: ReplicaResources, now: float) -> None:
        self.resources = resources
        self.sample = LoadSample()
        self._last_time = now
        self._last_cpu_busy = resources.cpu.busy_seconds_until(now)
        self._last_disk_busy = resources.disk.busy_seconds_until(now)
        self.samples_taken = 0

    def take_sample(self, now: float) -> LoadSample:
        """Sample utilisation since the previous call and smooth it."""
        window = now - self._last_time
        if window <= 0:
            return self.sample
        cpu_busy = self.resources.cpu.busy_seconds_until(now)
        disk_busy = self.resources.disk.busy_seconds_until(now)
        cpu_util = min(1.0, max(0.0, (cpu_busy - self._last_cpu_busy) / window))
        disk_util = min(1.0, max(0.0, (disk_busy - self._last_disk_busy) / window))

        alpha = SMOOTHING
        if self.samples_taken == 0:
            self.sample = LoadSample(cpu=cpu_util, disk=disk_util)
        else:
            self.sample = LoadSample(
                cpu=alpha * cpu_util + (1 - alpha) * self.sample.cpu,
                disk=alpha * disk_util + (1 - alpha) * self.sample.disk,
            )
        self._last_time = now
        self._last_cpu_busy = cpu_busy
        self._last_disk_busy = disk_busy
        self.samples_taken += 1
        return self.sample


class ClusterMonitor:
    """Monitoring daemons for every replica in the cluster.

    Keeps each registered replica's smoothing state and, on a periodic
    simulator event, publishes every fresh sample into ``routing``.  The
    routing table is the only store of published samples: a replica that
    has not been sampled yet reads as zero load there, exactly what a fresh
    :class:`ReplicaMonitor` would hold.
    """

    def __init__(self, sim: Simulator, routing: "RoutingTable") -> None:
        self.sim = sim
        self.routing = routing
        self._monitors: Dict[int, ReplicaMonitor] = {}

    def register(self, replica_id: int, resources: ReplicaResources) -> None:
        self._monitors[replica_id] = ReplicaMonitor(resources, self.sim.now)

    def unregister(self, replica_id: int) -> None:
        """Stop monitoring a replica that crashed or left the cluster."""
        self._monitors.pop(replica_id, None)

    def start(self) -> None:
        """Begin periodic sampling; call once."""
        self.sim.schedule_periodic(MONITOR_INTERVAL_S, self._sample_all)

    def _sample_all(self) -> None:
        publish = self.routing.publish_load
        now = self.sim.now
        for replica_id, monitor in self._monitors.items():
            publish(replica_id, monitor.take_sample(now))
