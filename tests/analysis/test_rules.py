"""Fixture tests for every simlint rule: one true positive and one true
negative per rule, plus the scope and exemption edges that make the rules
usable on the real tree."""

import textwrap

from repro.analysis import default_rules

from tests.analysis.sources import analyze_source


def findings(src, relpath="sim/fixture.py", rules=None):
    return analyze_source(textwrap.dedent(src), relpath=relpath, rules=rules)


def rule_lines(src, rule, relpath="sim/fixture.py"):
    return [(f.line, f.suppressed) for f in findings(src, relpath)
            if f.rule == rule]


# ----------------------------------------------------------------------
# D1 -- wall-clock ban
# ----------------------------------------------------------------------
def test_d1_flags_time_time():
    assert rule_lines("""\
        import time
        t = time.time()
        """, "D1") == [(2, False)]


def test_d1_flags_perf_counter_import_and_datetime_now():
    src = """\
        from time import perf_counter
        import datetime
        stamp = datetime.datetime.now()
        """
    lines = rule_lines(src, "D1")
    assert (1, False) in lines and (3, False) in lines


def test_d1_flags_aliased_time_module():
    assert rule_lines("""\
        import time as _t
        x = _t.monotonic()
        """, "D1") == [(2, False)]


def test_d1_ignores_sim_clock_and_unrelated_attrs():
    src = """\
        def run(sim):
            now = sim.now
            sim.defer(1.0, lambda: None)
            return now
        """
    assert rule_lines(src, "D1") == []


# ----------------------------------------------------------------------
# D2 -- unseeded / global RNG ban
# ----------------------------------------------------------------------
def test_d2_flags_global_random_call():
    assert rule_lines("""\
        import random
        x = random.random()
        """, "D2") == [(2, False)]


def test_d2_flags_bare_random_constructor():
    assert rule_lines("""\
        import random
        rng = random.Random()
        """, "D2") == [(2, False)]


def test_d2_flags_global_function_import():
    assert rule_lines("""\
        from random import randint
        """, "D2") == [(1, False)]


def test_d2_accepts_seeded_streams():
    # The repo's sanctioned patterns: per-component streams derived from
    # config.seed (clients.py, channel.py, cluster.py).
    src = """\
        import random

        def build(config, replica_id):
            a = random.Random(config.seed ^ 0x5EED)
            b = random.Random(config.seed * 1000 + replica_id)
            return a.random() + b.expovariate(2.0)
        """
    assert rule_lines(src, "D2") == []


def test_d2_random_in_annotation_is_not_a_call():
    src = """\
        import random
        from typing import Optional

        def f(rng: "random.Random") -> Optional[random.Random]:
            return rng
        """
    assert rule_lines(src, "D2") == []


# ----------------------------------------------------------------------
# D3 -- set-iteration order hazard
# ----------------------------------------------------------------------
def test_d3_flags_set_iterated_into_defer():
    src = """\
        def kick(sim, items):
            pending = set(items)
            for item in pending:
                sim.defer(0.1, item)
        """
    assert rule_lines(src, "D3") == [(3, False)]


def test_d3_flags_list_built_from_set():
    src = """\
        def order(ids):
            live = {i for i in ids}
            return [i for i in live]
        """
    assert rule_lines(src, "D3") == [(3, False)]


def test_d3_flags_set_typed_attribute():
    src = """\
        from typing import Set

        class Registry:
            def __init__(self):
                self.members: Set[int] = set()

            def drain(self, sim):
                for rid in self.members:
                    sim.push_bare(0.0, rid)
        """
    assert rule_lines(src, "D3") == [(8, False)]


def test_d3_sorted_neutralizes():
    src = """\
        def kick(sim, items):
            pending = set(items)
            for item in sorted(pending):
                sim.defer(0.1, item)
            return [x for x in sorted(pending)]
        """
    assert rule_lines(src, "D3") == []


def test_d3_order_insensitive_consumers_are_clean():
    src = """\
        def tally(items):
            seen = set(items)
            total = 0
            for item in seen:
                total += item
            other = {x for x in seen}
            return total, len(seen), max(seen), other
        """
    assert rule_lines(src, "D3") == []


# ----------------------------------------------------------------------
# O1 -- zero-overhead observability guard
# ----------------------------------------------------------------------
def test_o1_flags_unguarded_slot_chain():
    assert rule_lines("""\
        def finish(self, ctx):
            ctx.trace.lap(1)
        """, "O1") == [(2, False)]


def test_o1_flags_unguarded_alias_use():
    assert rule_lines("""\
        def finish(self, ctx):
            trace = ctx.trace
            trace.lap(1)
        """, "O1") == [(3, False)]


def test_o1_accepts_direct_guard():
    src = """\
        def finish(self, ctx):
            if ctx.trace is not None:
                ctx.trace.lap(1)
        """
    assert rule_lines(src, "O1") == []


def test_o1_accepts_alias_early_exit_guard():
    src = """\
        def finish(self, ctx):
            trace = ctx.trace
            if trace is None:
                return
            trace.lap(1)
        """
    assert rule_lines(src, "O1") == []


def test_o1_accepts_combined_early_exit_guard():
    src = """\
        def finish(self, ctx):
            trace = ctx.trace
            obs = self.obs
            if trace is None or obs is None:
                return
            trace.lap(1)
            obs.tracer.span("x")
        """
    assert rule_lines(src, "O1") == []


def test_o1_accepts_and_chain_and_conditional_expression():
    src = """\
        def hook(self):
            obs = self.obs
            if obs is not None and obs.tracer is not None:
                obs.tracer.span("x")
            sink = obs.tracer if obs is not None else None
            return sink
        """
    assert rule_lines(src, "O1") == []


def test_o1_guard_does_not_cross_functions():
    src = """\
        def outer(self, ctx):
            if ctx.trace is not None:
                self.helper(ctx)

        def helper(self, ctx):
            ctx.trace.lap(1)
        """
    assert rule_lines(src, "O1") == [(6, False)]


def test_o1_bare_load_is_not_a_use():
    src = """\
        def peek(self, ctx):
            trace = ctx.trace
            return trace is not None
        """
    assert rule_lines(src, "O1") == []


# ----------------------------------------------------------------------
# S1 -- __slots__ coverage in hot modules
# ----------------------------------------------------------------------
def test_s1_flags_unslotted_hot_class():
    src = """\
        class PerEventRecord:
            def __init__(self):
                self.x = 1
        """
    assert rule_lines(src, "S1", relpath="sim/hot.py") == [(1, False)]


def test_s1_accepts_slots_dataclass_and_enum():
    src = """\
        import enum
        from dataclasses import dataclass

        class Slotted:
            __slots__ = ("x",)

        @dataclass(frozen=True)
        class Config:
            x: int = 1

        class Kind(enum.Enum):
            A = 1
        """
    assert rule_lines(src, "S1", relpath="storage/hot.py") == []


def test_s1_allowlist_and_scope():
    src = """\
        class Simulator:
            def __init__(self):
                self.queue = None
        """
    # Allowlisted control-plane class: exempt even in a hot module.
    assert rule_lines(src, "S1", relpath="sim/simulator.py") == []
    # Out-of-scope module: never flagged.
    plain = "class Anything:\n    pass\n"
    assert rule_lines(plain, "S1", relpath="workloads/tpcw.py") == []
    # In scope via the single-file entry.
    assert rule_lines(plain, "S1", relpath="core/routing.py") == [(1, False)]
    assert rule_lines(plain, "S1", relpath="core/balancer.py") == []


# ----------------------------------------------------------------------
# F1 -- float equality in audit/golden modules
# ----------------------------------------------------------------------
def test_f1_flags_float_equality_in_invariants():
    src = """\
        def audit(utilization, expected):
            return utilization == expected / 3
        """
    assert rule_lines(src, "F1", relpath="net/invariants.py") == [(2, False)]


def test_f1_flags_float_literal_comparison_in_golden_helper():
    src = "def same(tps):\n    return tps != 358.599\n"
    assert rule_lines(src, "F1", relpath="obs/golden_compare.py") == [(2, False)]


def test_f1_ignores_integer_comparisons_and_other_modules():
    src = """\
        def audit(version, expected):
            return version == expected + 1
        """
    assert rule_lines(src, "F1", relpath="net/invariants.py") == []
    floaty = "def f(a):\n    return a == 0.0\n"
    assert rule_lines(floaty, "F1", relpath="net/channel.py") == []


# ----------------------------------------------------------------------
# Rule selection
# ----------------------------------------------------------------------
def test_default_rules_subset_and_unknown_id():
    import pytest

    only = default_rules(["D1", "F1"])
    assert sorted(r.rule_id for r in only) == ["D1", "F1"]
    with pytest.raises(ValueError):
        default_rules(["D9"])
