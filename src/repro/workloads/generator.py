"""Workload generation: sampling transaction types from (possibly changing) mixes.

The generator provides two things the experiments need:

* a stream of transaction-type names drawn from a mix (used by the
  closed-loop client population in the simulator), and
* a *schedule* of mix changes over simulated time, used by the dynamic
  reconfiguration experiment (Figure 6: shopping -> browsing -> shopping,
  2000 seconds each).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.spec import Mix, TransactionType, WorkloadSpec


@dataclass(frozen=True)
class MixPhase:
    """One phase of a workload schedule: a mix active from ``start_time`` on."""

    start_time: float
    mix_name: str

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("phase start time must be non-negative")


class WorkloadSchedule:
    """A time-ordered sequence of mix phases.

    The schedule answers "which mix is active at time t?".  A schedule with a
    single phase starting at time 0 is a constant workload.
    """

    def __init__(self, phases: Sequence[MixPhase]) -> None:
        if not phases:
            raise ValueError("a workload schedule needs at least one phase")
        ordered = sorted(phases, key=lambda p: p.start_time)
        if ordered[0].start_time != 0.0:
            raise ValueError("the first phase must start at time 0")
        starts = [p.start_time for p in ordered]
        if len(set(starts)) != len(starts):
            raise ValueError("phases must have distinct start times")
        self.phases: Tuple[MixPhase, ...] = tuple(ordered)

    @classmethod
    def constant(cls, mix_name: str) -> "WorkloadSchedule":
        return cls([MixPhase(0.0, mix_name)])

    @classmethod
    def alternating(cls, mix_names: Sequence[str], phase_length: float) -> "WorkloadSchedule":
        """Phases of equal length cycling through ``mix_names`` once."""
        if phase_length <= 0:
            raise ValueError("phase length must be positive")
        return cls([MixPhase(i * phase_length, name) for i, name in enumerate(mix_names)])


@dataclass
class WorkloadGenerator:
    """Draws transaction types according to a workload spec and schedule."""

    spec: WorkloadSpec
    schedule: WorkloadSchedule
    seed: int = 0
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        for phase in self.schedule.phases:
            # Fail fast on schedules that reference unknown mixes.
            self.spec.mix(phase.mix_name)
        # Active-phase cache: (start_time, end_time_or_None, Mix).  next_type
        # runs once per generated transaction; resolving the schedule and the
        # mix object through dict lookups each time was measurable.
        self._active: Optional[Tuple[float, Optional[float], Mix]] = None
        # Streamed issue counters: next_type bumps one integer in a list
        # parallel to the active mix's sampling arrays (and resolves the
        # TransactionType object through the same precomputed list).  The
        # counters are folded into a per-type dict only when the phase
        # changes or when drain_type_counts() collects them -- the balancer
        # consumes demand observations in batch, not per transaction.
        self._active_types: List[TransactionType] = []
        self._active_counts: List[int] = []
        self._folded_counts: Dict[str, int] = {}

    @classmethod
    def constant(cls, spec: WorkloadSpec, mix_name: str, seed: int = 0) -> "WorkloadGenerator":
        return cls(spec=spec, schedule=WorkloadSchedule.constant(mix_name), seed=seed)

    def mix_at(self, time: float) -> Mix:
        active = self._active
        if active is not None and active[0] <= time and \
                (active[1] is None or time < active[1]):
            return active[2]
        phases = self.schedule.phases
        start = phases[0].start_time
        end: Optional[float] = None
        name = phases[0].mix_name
        for index, phase in enumerate(phases):
            if phase.start_time <= time:
                start = phase.start_time
                name = phase.mix_name
                end = phases[index + 1].start_time if index + 1 < len(phases) else None
            else:
                break
        mix = self.spec.mix(name)
        self._fold_active_counts()
        self._active = (start, end, mix)
        self._active_types = [self.spec.type(n) for n in mix._sample_names]
        self._active_counts = [0] * len(self._active_types)
        return mix

    def _fold_active_counts(self) -> None:
        """Collapse the active phase's counter list into the per-type dict."""
        counts = self._active_counts
        if not counts:
            return
        folded = self._folded_counts
        types = self._active_types
        for index, count in enumerate(counts):
            if count:
                name = types[index].name
                folded[name] = folded.get(name, 0) + count
                counts[index] = 0

    def drain_type_counts(self) -> Dict[str, int]:
        """Issue counts per type since the last drain (empty dict if none).

        The cluster drains these to the balancer's
        :meth:`~repro.core.balancer.LoadBalancer.ingest_mix_counts` before
        every periodic tick and membership change.
        """
        self._fold_active_counts()
        drained = self._folded_counts
        if drained:
            self._folded_counts = {}
        return drained

    def next_type(self, time: float) -> TransactionType:
        """Sample the transaction type of the next request issued at ``time``."""
        active = self._active
        if active is None or time < active[0] or \
                (active[1] is not None and time >= active[1]):
            self.mix_at(time)          # phase change: rebuild the caches
            active = self._active
        mix = active[2]
        # Inline Mix.sample so the drawn index also resolves the cached
        # TransactionType object and bumps the issue counter: one rng draw,
        # one bisect, two list reads, one integer add.
        index = bisect.bisect(mix._sample_cum_weights,
                              self._rng.random() * mix._sample_total,
                              0, mix._sample_hi)
        self._active_counts[index] += 1
        return self._active_types[index]

    def sample_types(self, time: float, count: int) -> List[TransactionType]:
        return [self.next_type(time) for _ in range(count)]
