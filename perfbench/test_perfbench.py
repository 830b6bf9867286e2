"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They use the mid-size golden scenario, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import END_TO_END_UNITS, ROOT, Outcome, traced_run, use_checkout_src  # noqa: E402

use_checkout_src()

from repro.experiments.configs import golden_midsize_config  # noqa: E402
from repro.experiments.runner import build_cluster  # noqa: E402
from repro.replication.replica import Replica  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from spans import SpanRecorder, callback_span, instrument, owner_module  # noqa: E402
from workloads import (FIG6_SPEC, build_and_start, fingerprint,  # noqa: E402
                       load_reference, output_problems)


def test_self_time_on_a_nested_call_tree():
    # replication.a [0, 10] -> replication.b [1, 6] -> storage.c [2, 4]
    #                       -> core.d [7, 9]
    now = [0.0]
    rec = SpanRecorder(clock=lambda: now[0])

    def c():
        now[0] = 4.0

    def b():
        now[0] = 2.0
        rec.span("storage.c", c)
        now[0] = 6.0

    def d():
        now[0] = 9.0

    def a():
        now[0] = 1.0
        rec.span("replication.b", b)
        now[0] = 7.0
        rec.span("core.d", d)
        now[0] = 10.0

    rec.span("replication.a", a)
    assert rec.self_s == {"storage.c": 2.0, "replication.b": 3.0,
                          "core.d": 2.0, "replication.a": 6.0}
    # b's self time is inside a's: the layer counts it once.
    assert rec.layer_self_s == {"replication": 6.0, "storage": 2.0, "core": 2.0}
    assert rec.root_s == 10.0 == sum(rec.layer_self_s.values())
    assert rec.calls == {"storage.c": 1, "replication.b": 1,
                         "core.d": 1, "replication.a": 1}
    assert rec.stack == []


def _executed_callbacks(cluster, until: float):
    seen = []
    cluster.sim.queue.probe = lambda time, sequence, callback: seen.append(callback)
    cluster.sim.run_until(until)
    cluster.sim.queue.probe = None
    return seen


def test_owner_attribution():
    cluster = build_and_start(golden_midsize_config())
    replica = next(iter(cluster.replicas.values()))
    assert owner_module(replica.pull_updates) == "repro.replication.replica"
    assert callback_span(replica.pull_updates) == "replication.replica"

    seen = _executed_callbacks(cluster, 10.0)
    lambdas = [cb for cb in seen if getattr(cb, "__name__", "") == "<lambda>"
               and cb.__code__.co_filename.endswith(os.path.join("replication", "replica.py"))]
    assert lambdas, "no certification-latency lambda from replica.py ran"
    assert {callback_span(cb) for cb in lambdas} == {"replication.replica"}

    ticks = [cb for cb in seen if getattr(cb, "__qualname__", "")
             == "Simulator.schedule_periodic.<locals>.tick"]
    tick_spans = {callback_span(cb) for cb in ticks}
    assert "replication.cluster" in tick_spans      # the balancer tick
    assert "sim.monitor" in tick_spans              # the load monitor
    assert "sim.simulator" not in tick_spans

    sim = Simulator()
    sim.schedule_periodic(1.0, replica.pull_updates)
    assert callback_span(sim.queue._heap[0][2]) == "replication.replica"


def test_sliced_run_until_matches_cluster_run():
    config = golden_midsize_config()
    whole = build_cluster(config)
    whole.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    sliced = build_and_start(config)
    for k in range(1, int(config.duration_s) + 1):
        sliced.sim.run_until(float(k))
    assert fingerprint(sliced) == fingerprint(whole)


def test_instrument_spans_every_layer_and_restores_the_classes():
    config = golden_midsize_config()
    plain = build_and_start(config)
    plain.sim.run_until(config.duration_s)

    originals = {name: Replica.__dict__[name] for name in ("submit", "pull_updates")}
    rec = SpanRecorder()
    with instrument(rec):
        traced = build_and_start(config)
        rec.reset()
        for k in range(1, int(config.duration_s) + 1):
            traced.sim.run_until(float(k))
    assert {name: Replica.__dict__[name] for name in originals} == originals

    assert fingerprint(traced) == fingerprint(plain)
    assert rec.calls["sim.run_until"] == int(config.duration_s)
    assert rec.calls["storage.execute"] > 0 and rec.calls["core.dispatch"] > 0
    assert rec.calls["replication.replica"] > 0 and rec.calls["sim.clients"] > 0
    total = sum(rec.layer_self_s.values())
    assert abs(total - rec.root_s) <= 1e-9 * rec.root_s
    assert set(rec.layer_self_s) == {"sim", "storage", "replication", "core", "workloads"}


def test_traced_run_reports_the_declared_metrics():
    config = golden_midsize_config()
    plain = build_and_start(config)
    plain.sim.run_until(config.duration_s)
    outcome = Outcome("golden-mid", 1)
    metrics = traced_run(config, outcome, fingerprint(plain), 1.0, 1.0, 0.01)
    # Only the missing reference may be wrong: the traced fingerprint
    # matched the untraced one and the self times reconciled.
    assert outcome.problems == ["traced run: no reference fingerprint for "
                                "golden-mid at simulator seed 1"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS


def test_output_check_catches_a_changed_fingerprint():
    reference = load_reference()
    good = dict(reference["fig6-dynamic"]["1"])
    assert output_problems("fig6-dynamic", 1, good, reference) == []
    assert good["events"] == FIG6_SPEC["events"]
    assert output_problems("fig6-dynamic", 11, good, reference) == []   # seed 11 -> 1
    bad = dict(good, events=good["events"] + 1)
    assert len(output_problems("fig6-dynamic", 1, bad, reference)) == 2
    slower = dict(good, tps=good["tps"] * (1 + 1e-6))
    assert output_problems("fig6-dynamic", 1, slower, reference)
