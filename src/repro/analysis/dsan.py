"""dsan: the runtime determinism sanitizer.

simlint's static rules catch the *patterns* that break determinism; this
module catches the breakage itself -- and, unlike the golden suites (which
can only say THAT a run diverged), it says WHERE.  A :class:`DsanSession`
arms the simulator's event-probe slot (``EventQueue.probe``, None by
default, same zero-overhead contract as the ``obs/`` slots) and folds every
executed event -- sim-time, sequence number and a stable description of the
callback's owning component -- into rolling BLAKE2 block fingerprints.  The
cluster's RNG streams are fingerprinted too, by transplanting each
``random.Random``'s state into a recording subclass, so an extra or missing
draw is attributed to the component that owns the stream.

Workflow (``python -m repro.analysis.dsan --scenario golden-mid``):

1. run the scenario twice from identical configs and compare block
   fingerprints -- identical blocks mean a deterministic run, exit 0;
2. on a mismatch, re-run both sides capturing per-event detail for the
   first diverging block only (so the detail buffer stays bounded), and
   report the **first diverging event**: global index, sim-time and owning
   component on each side, plus any RNG streams whose draw digests differ.

``--record``/``--check`` replace the second run with a fingerprint file,
which turns the golden suites' "bit-identical" claim into a checked-in
artifact.  Event-level localization needs a live second run; against a file
dsan reports the first diverging block.

Callback descriptions never include ``repr`` of the object (memory
addresses differ across processes): bound methods render as
``ClassName[id].method`` using stable identity attributes (``replica_id``,
``txn_id``, ``name``), plain functions by ``__qualname__``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Events per fingerprint block.  Small enough to localize cheaply, large
#: enough that block bookkeeping is invisible next to event execution.
DEFAULT_BLOCK_SIZE = 1024

#: Fingerprint file schema version.
FINGERPRINT_VERSION = 1


# ----------------------------------------------------------------------
# Callback description (must be stable across processes)
# ----------------------------------------------------------------------
_IDENTITY_ATTRS = ("replica_id", "txn_id", "name")


def describe_callback(callback: object) -> str:
    """A process-stable, human-readable description of an event callback."""
    try:
        bound_self = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", None)
        if bound_self is not None and func is not None:
            owner = type(bound_self).__name__
            ident = ""
            for attr in _IDENTITY_ATTRS:
                value = getattr(bound_self, attr, None)
                if isinstance(value, (int, str)):
                    ident = "[%s]" % (value,)
                    break
            return "%s%s.%s" % (owner, ident, func.__name__)
        qualname = getattr(callback, "__qualname__", None)
        if isinstance(qualname, str):
            return qualname
        return type(callback).__name__
    except Exception:  # pragma: no cover - defensive: never break the run
        return "<callback>"


# ----------------------------------------------------------------------
# Recording RNG
# ----------------------------------------------------------------------
class _RecordingRandom(random.Random):
    """A ``random.Random`` that mirrors every draw into a session digest.

    All public distribution methods bottom out in ``random()`` or
    ``getrandbits()`` at the Python level, so overriding those two captures
    the full draw stream.  State is transplanted from the original stream,
    so the sequence of values is bit-identical to the unprobed run.
    """

    def __init__(self, label: str, session: "DsanSession") -> None:
        super().__init__(0)  # state is transplanted right after
        self._dsan_label = label
        self._dsan_session = session

    def random(self) -> float:
        value = super().random()
        self._dsan_session._note_draw(self._dsan_label, value.hex())
        return value

    def getrandbits(self, k: int) -> int:
        value = super().getrandbits(k)
        self._dsan_session._note_draw(self._dsan_label, "%d:%x" % (k, value))
        return value


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
@dataclass
class EventDetail:
    """One executed event, captured during a detail (localization) run."""

    index: int
    time: float
    sequence: int
    desc: str


class DsanSession:
    """One run's fingerprint collector.

    A cluster observer: ``cluster.attach(session)`` arms the simulator
    probe and records the ``clients``, ``workload``, ``engine[id]`` and
    ``channel[id]`` streams, joiners' included, so a session rides every
    harness path that takes an ``observer``.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 detail_block: Optional[int] = None) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        #: When set, events of this (0-based) block index are captured as
        #: :class:`EventDetail` records for first-divergence localization.
        self.detail_block = detail_block
        self.details: List[EventDetail] = []
        self.events = 0
        self.blocks: List[str] = []
        self._hasher = hashlib.blake2b(digest_size=16)
        self._rng_hashers: Dict[str, "hashlib._Hash"] = {}
        self._rng_draws: Dict[str, int] = {}
        self.rng_labels: List[str] = []

    # -- attachment (the ClusterObserver protocol) ------------------------
    def instrument_cluster(self, cluster: object) -> None:
        """Arm the cluster's simulator probe and its shared RNG streams."""
        self.attach_simulator(getattr(cluster, "sim"))
        self._record(getattr(cluster, "clients", None), "_rng", "clients")
        self._record(getattr(cluster, "generator", None), "_rng", "workload")

    def instrument_replica(self, replica: Any) -> None:
        """Record one replica's engine and channel RNG streams."""
        replica_id = replica.replica_id
        self._record(replica.engine, "rng", "engine[%d]" % replica_id)
        self._record(replica.channel, "_rng", "channel[%d]" % replica_id)

    def _record(self, owner: object, attr: str, label: str) -> None:
        """Swap ``owner.attr`` for a recording copy of the same stream."""
        original = getattr(owner, attr, None)
        if isinstance(original, random.Random) and \
                not isinstance(original, _RecordingRandom):
            recorder = _RecordingRandom(label, self)
            recorder.setstate(original.getstate())
            setattr(owner, attr, recorder)
            self._rng_hashers[label] = hashlib.blake2b(digest_size=16)
            self._rng_draws[label] = 0
            self.rng_labels.append(label)

    def attach_simulator(self, sim: object) -> "DsanSession":
        """Arm just the event probe (toy scenarios / fixture tests)."""
        queue = getattr(sim, "queue")
        if queue.probe is not None:
            raise RuntimeError("a dsan probe is already armed on this queue")
        queue.probe = self._on_event
        return self

    # -- probe callbacks -------------------------------------------------
    def _on_event(self, time: float, sequence: int, callback: object) -> None:
        desc = describe_callback(callback)
        index = self.events
        self._hasher.update(
            ("%r|%d|%s\n" % (time, sequence, desc)).encode("utf-8"))
        self.events = index + 1
        block, offset = divmod(self.events, self.block_size)
        if offset == 0:
            self.blocks.append(self._hasher.hexdigest())
            self._hasher = hashlib.blake2b(digest_size=16)
        if self.detail_block is not None and \
                index // self.block_size == self.detail_block:
            self.details.append(EventDetail(index, time, sequence, desc))

    def _note_draw(self, label: str, token: str) -> None:
        self._rng_hashers[label].update(token.encode("ascii"))
        self._rng_draws[label] += 1

    # -- results ---------------------------------------------------------
    def fingerprint(self) -> Dict[str, object]:
        """The run's fingerprint payload (JSON-serialisable)."""
        blocks = list(self.blocks)
        if self.events % self.block_size:
            blocks.append(self._hasher.hexdigest())
        return {
            "version": FINGERPRINT_VERSION,
            "block_size": self.block_size,
            "events": self.events,
            "blocks": blocks,
            "rng": {
                label: {"digest": self._rng_hashers[label].hexdigest(),
                        "draws": self._rng_draws[label]}
                for label in self.rng_labels
            },
        }


# ----------------------------------------------------------------------
# Comparison and localization
# ----------------------------------------------------------------------
@dataclass
class DsanReport:
    """The outcome of a determinism check."""

    deterministic: bool
    events: Tuple[int, int]
    #: First block whose digests differ (None when deterministic).
    diverging_block: Optional[int] = None
    #: First diverging event, when a detail run localized it.
    first_divergence: Optional[Dict[str, object]] = None
    #: RNG stream labels whose draw digests differ.
    diverged_rng: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "deterministic": self.deterministic,
            "events": list(self.events),
            "diverging_block": self.diverging_block,
            "first_divergence": self.first_divergence,
            "diverged_rng": list(self.diverged_rng),
        }

    def format(self) -> str:
        if self.deterministic:
            return ("dsan: deterministic -- %d events, fingerprints match"
                    % self.events[0])
        lines = ["dsan: DIVERGENCE (events: %d vs %d, first diverging "
                 "block: %s)" % (self.events[0], self.events[1],
                                 self.diverging_block)]
        if self.first_divergence is not None:
            d = self.first_divergence
            lines.append("  first diverging event: #%s" % d["index"])
            lines.append("    run A: %s" % _side(d, "a"))
            lines.append("    run B: %s" % _side(d, "b"))
        if self.diverged_rng:
            lines.append("  diverged RNG streams: %s"
                         % ", ".join(self.diverged_rng))
        return "\n".join(lines)


def _side(divergence: Dict[str, object], side: str) -> str:
    time = divergence.get("time_%s" % side)
    desc = divergence.get("desc_%s" % side)
    if desc is None:
        return "<no event (run ended)>"
    return "t=%r %s" % (time, desc)


def first_diverging_block(a: Dict[str, object],
                          b: Dict[str, object]) -> Optional[int]:
    """Index of the first block whose digests differ, or None."""
    blocks_a, blocks_b = a["blocks"], b["blocks"]
    for i, (da, db) in enumerate(zip(blocks_a, blocks_b)):
        if da != db:
            return i
    if len(blocks_a) != len(blocks_b):
        return min(len(blocks_a), len(blocks_b))
    return None


def compare_fingerprints(a: Dict[str, object],
                         b: Dict[str, object]) -> DsanReport:
    """Digest-level comparison (no event detail)."""
    if a.get("block_size") != b.get("block_size"):
        raise ValueError("fingerprints use different block sizes")
    block = first_diverging_block(a, b)
    diverged_rng = sorted(
        set(label for label in dict(a.get("rng", {}))
            if a["rng"][label] != b.get("rng", {}).get(label))
        | set(label for label in dict(b.get("rng", {}))
              if label not in a.get("rng", {})))
    deterministic = block is None and a["events"] == b["events"] \
        and not diverged_rng
    return DsanReport(
        deterministic=deterministic,
        events=(int(a["events"]), int(b["events"])),
        diverging_block=block,
        diverged_rng=diverged_rng,
    )


def localize_divergence(details_a: Sequence[EventDetail],
                        details_b: Sequence[EventDetail]
                        ) -> Optional[Dict[str, object]]:
    """First event where two detail captures disagree."""
    for ea, eb in zip(details_a, details_b):
        if (ea.time, ea.sequence, ea.desc) != (eb.time, eb.sequence, eb.desc):
            return {
                "index": ea.index,
                "time_a": ea.time, "desc_a": ea.desc,
                "time_b": eb.time, "desc_b": eb.desc,
            }
    if len(details_a) != len(details_b):
        longer, side = (details_a, "a") if len(details_a) > len(details_b) \
            else (details_b, "b")
        extra = longer[min(len(details_a), len(details_b))]
        divergence: Dict[str, object] = {
            "index": extra.index,
            "time_a": None, "desc_a": None,
            "time_b": None, "desc_b": None,
        }
        divergence["time_%s" % side] = extra.time
        divergence["desc_%s" % side] = extra.desc
        return divergence
    return None


def check_determinism(run: Callable[[DsanSession], None],
                      block_size: int = DEFAULT_BLOCK_SIZE) -> DsanReport:
    """Run a scenario twice and localize the first diverging event.

    ``run`` executes the scenario once, attaching the given session to the
    fresh simulator/cluster it builds.  When the two fingerprints differ, a
    second pair of runs captures per-event detail for the first diverging
    block and the report carries the exact first diverging event.
    """
    session_a = DsanSession(block_size)
    run(session_a)
    session_b = DsanSession(block_size)
    run(session_b)
    report = compare_fingerprints(session_a.fingerprint(),
                                  session_b.fingerprint())
    if report.deterministic or report.diverging_block is None:
        return report
    detail_a = DsanSession(block_size, detail_block=report.diverging_block)
    run(detail_a)
    detail_b = DsanSession(block_size, detail_block=report.diverging_block)
    run(detail_b)
    report.first_divergence = localize_divergence(detail_a.details,
                                                  detail_b.details)
    return report


# ----------------------------------------------------------------------
# Scenario registry and CLI
# ----------------------------------------------------------------------
def _scenario_configs() -> Dict[str, Callable[[], object]]:
    from repro.experiments.configs import (golden_midsize_config,
                                           golden_update_filtering_config)
    return {
        "golden-mid": golden_midsize_config,
        "golden-uf": golden_update_filtering_config,
    }


def _run_config(config: object) -> Callable[[DsanSession], None]:
    from repro.experiments.runner import build_cluster

    def run(session: DsanSession) -> None:
        cluster = build_cluster(config)
        cluster.attach(session)
        cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.dsan",
        description="determinism sanitizer: double-run (or run-vs-file) "
                    "event-stream fingerprinting with first-divergence "
                    "localization.")
    parser.add_argument("--scenario", default="golden-mid",
                        help="scenario config (default: golden-mid)")
    parser.add_argument("--quick", action="store_true",
                        help="shorten the scenario for smoke runs")
    parser.add_argument("--block", type=int, default=DEFAULT_BLOCK_SIZE,
                        help="events per fingerprint block (default: %d)"
                             % DEFAULT_BLOCK_SIZE)
    parser.add_argument("--record", metavar="FILE",
                        help="run once and write the fingerprint to FILE")
    parser.add_argument("--check", metavar="FILE",
                        help="run once and compare against a recorded "
                             "fingerprint (block-level localization only)")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="write the report as JSON")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    scenarios = _scenario_configs()
    if args.scenario not in scenarios:
        print("error: unknown scenario %r (have: %s)"
              % (args.scenario, ", ".join(sorted(scenarios))),
              file=sys.stderr)
        return 2
    if args.record and args.check:
        print("error: --record and --check are mutually exclusive",
              file=sys.stderr)
        return 2
    config = scenarios[args.scenario]()
    if args.quick:
        config = dataclasses.replace(config, duration_s=20.0, warmup_s=5.0)
    run = _run_config(config)

    if args.record:
        session = DsanSession(args.block)
        run(session)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(session.fingerprint(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("dsan: recorded %d events (%d blocks) to %s"
              % (session.events, len(session.fingerprint()["blocks"]),
                 args.record))
        return 0

    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        session = DsanSession(int(recorded["block_size"]))
        run(session)
        report = compare_fingerprints(session.fingerprint(), recorded)
    else:
        report = check_determinism(run, args.block)

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(report.format())
    return 0 if report.deterministic else 1


if __name__ == "__main__":
    sys.exit(main())
