"""Seeded, deterministic unreliable channels between proxies and the certifier.

A :class:`Channel` models one replica's link to the certification service
(both directions: certification requests/responses, lag notifications and
pull eligibility travel over the same link).  Messages can be dropped,
delayed by jitter, duplicated, or reordered, and the whole link can be
partitioned and healed at scheduled times -- all driven by a per-channel
seeded RNG, so a chaos campaign is exactly reproducible.

Every channel starts perfect (all fault knobs zero, not partitioned); faults
arrive only through the windows and partitions a fault injector schedules.
A perfect channel routes a message through exactly one ``sim.schedule``
with no RNG draw -- the same event the pre-network code scheduled -- so
enabling the network package changes neither event counts nor RNG streams.
Clusters built with ``ClusterConfig.network = False`` never construct
channels at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Optional, Tuple

from repro.sim.simulator import Simulator

#: Delivery callback; drop callbacks take no arguments either.
Message = Callable[[], None]
#: Base of every link's RNG seed (see :meth:`Network.link`).
NET_SEED = 101


@dataclass(frozen=True)
class ChannelConfig:
    """Fault knobs of one link.  All-zero is a perfect channel.

    Attributes:
        drop_probability: chance an individual message is lost in transit.
        duplicate_probability: chance a delivered message arrives twice
            (the copy takes an independently jittered, later path).
        jitter_s: extra uniform([0, jitter_s)) latency added per message;
            independent draws per message mean jitter also reorders.
        reorder_probability: chance a message is deliberately held back by
            ``reorder_delay_s`` on top of its jitter, making it land after
            traffic sent later (a stronger reordering than jitter alone).
        reorder_delay_s: the hold-back applied to reordered messages.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter_s: float = 0.0
    reorder_probability: float = 0.0
    reorder_delay_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability",
                     "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, value))
        if self.jitter_s < 0 or self.reorder_delay_s < 0:
            raise ValueError("jitter and reorder delay must be non-negative")

    @property
    def is_perfect(self) -> bool:
        return (self.drop_probability == 0.0
                and self.duplicate_probability == 0.0
                and self.jitter_s == 0.0
                and self.reorder_probability == 0.0)


@dataclass
class ChannelStats:
    """Per-link delivery accounting (the chaos telemetry reads these)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    dropped_partition: int = 0
    duplicated: int = 0
    reordered: int = 0
    pulls_blocked: int = 0


class Channel:
    """One replica's unreliable link to the certification service."""

    __slots__ = ("sim", "name", "config", "partitioned", "stats",
                 "_rng", "_faulty")

    def __init__(self, sim: Simulator, name: str, seed: int = 0) -> None:
        self.sim = sim
        self.name = name
        self.partitioned = False
        self.stats = ChannelStats()
        self._rng = Random(seed)
        self.config = ChannelConfig()
        self._faulty = False

    # ------------------------------------------------------------------
    # Configuration (flaky-link windows swap the config mid-run)
    # ------------------------------------------------------------------
    def set_config(self, config: ChannelConfig) -> None:
        self.config = config
        self._faulty = not config.is_perfect

    # ------------------------------------------------------------------
    # Partition control
    # ------------------------------------------------------------------
    def partition(self) -> None:
        self.partitioned = True

    def heal(self) -> None:
        self.partitioned = False

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self, latency_s: float, message: Message,
                on_drop: Optional[Message] = None) -> bool:
        """Send ``message`` over the link; deliver after ``latency_s`` plus
        any jitter/reordering, unless it is dropped.

        ``on_drop`` runs synchronously (at send time, scheduling nothing)
        when the message is lost, so senders that keep "one in flight"
        dedup state can release it -- the simulation's stand-in for the
        sender-side bookkeeping a real stack would time out.

        Returns True when a delivery (or two) was scheduled.
        """
        stats = self.stats
        stats.sent += 1
        if self.partitioned:
            stats.dropped += 1
            stats.dropped_partition += 1
            if on_drop is not None:
                on_drop()
            return False
        if not self._faulty:
            stats.delivered += 1
            self.sim.schedule(latency_s, message)
            return True
        config = self.config
        rng = self._rng
        if config.drop_probability and rng.random() < config.drop_probability:
            stats.dropped += 1
            if on_drop is not None:
                on_drop()
            return False
        delay = latency_s
        if config.jitter_s:
            delay += rng.random() * config.jitter_s
        if config.reorder_probability and rng.random() < config.reorder_probability:
            delay += config.reorder_delay_s
            stats.reordered += 1
        stats.delivered += 1
        self.sim.schedule(delay, message)
        if config.duplicate_probability and rng.random() < config.duplicate_probability:
            extra = rng.random() * config.jitter_s if config.jitter_s else latency_s
            stats.duplicated += 1
            self.sim.schedule(delay + extra, message)
        return True

    def pull_allowed(self) -> bool:
        """Whether a periodic/notified pull round trip gets through right now.

        A pull is request-plus-bulk-response; rather than model both legs,
        one draw decides whether the exchange succeeds.  A blocked pull is
        harmless -- the periodic pull loop *is* the retry (at-least-once by
        construction) -- so no timeout machinery is needed here.
        """
        if self.partitioned:
            self.stats.pulls_blocked += 1
            return False
        if self._faulty and self.config.drop_probability:
            if self._rng.random() < self.config.drop_probability:
                self.stats.pulls_blocked += 1
                return False
        return True


class Network:
    """All replica-certifier links of one cluster, plus partition control."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.links: Dict[int, Channel] = {}

    def link(self, replica_id: int) -> Channel:
        """The (lazily created) channel between ``replica_id`` and the certifier.

        Each link draws from its own RNG stream, seeded from ``NET_SEED``
        and the replica id.
        """
        channel = self.links.get(replica_id)
        if channel is None:
            channel = Channel(
                self.sim,
                name="replica%d<->certifier" % replica_id,
                seed=NET_SEED * 1_000_003 + replica_id * 7_919 + 17,
            )
            self.links[replica_id] = channel
        return channel

    # ------------------------------------------------------------------
    # Partition / degradation control (the FaultInjector drives these)
    # ------------------------------------------------------------------
    def partition(self, replica_id: int) -> None:
        self.link(replica_id).partition()

    def heal(self, replica_id: int) -> None:
        self.link(replica_id).heal()

    def heal_all(self) -> None:
        for channel in self.links.values():
            channel.heal()

    def degrade(self, replica_id: int, config: ChannelConfig) -> None:
        """Swap a link's fault config (flaky window)."""
        self.link(replica_id).set_config(config)

    def restore(self, replica_id: int) -> None:
        """Reset a link to the perfect configuration."""
        self.link(replica_id).set_config(ChannelConfig())

    def partitioned_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(rid for rid, ch in self.links.items() if ch.partitioned))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Aggregate delivery counters over every link."""
        totals = {"sent": 0, "delivered": 0, "dropped": 0,
                  "dropped_partition": 0, "duplicated": 0, "reordered": 0,
                  "pulls_blocked": 0, "partitioned_links": 0}
        for channel in self.links.values():
            stats = channel.stats
            totals["sent"] += stats.sent
            totals["delivered"] += stats.delivered
            totals["dropped"] += stats.dropped
            totals["dropped_partition"] += stats.dropped_partition
            totals["duplicated"] += stats.duplicated
            totals["reordered"] += stats.reordered
            totals["pulls_blocked"] += stats.pulls_blocked
            if channel.partitioned:
                totals["partitioned_links"] += 1
        return totals

