"""Fixture tests for the whole-program rules (O2, R1, P1), the M1 stale-
suppression meta-rule and the benchmarks/ harness profile.

Every fixture goes through :func:`analyze_program_source`, the same
multi-module pipeline ``analyze_paths`` uses, so call-graph construction,
waiver plumbing and per-path profiles are all exercised end to end.
"""

import textwrap

from repro.analysis import (
    RuleO2CallSiteGuard,
    RuleP1ProtocolConformance,
    RuleR1SeedProvenance,
    default_rules,
)

from tests.analysis.sources import analyze_program_source


def report_for(files, rules=None, program_rules=None, detect_stale=False):
    return analyze_program_source(
        {path: textwrap.dedent(text) for path, text in files.items()},
        rules=rules, program_rules=program_rules, detect_stale=detect_stale)


def rule_keys(findings, rule):
    return [(f.path, f.line) for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# O2 -- interprocedural obs-guard dominance
# ----------------------------------------------------------------------
def o2_report(files):
    return report_for(files, rules=default_rules(["O1"]),
                      program_rules=[RuleO2CallSiteGuard()])


def test_o2_waives_helper_when_every_call_site_is_guarded():
    report = o2_report({"replication/worker.py": """\
        class Worker:
            def _trace(self):
                self.obs.tracer.instant("x")

            def run(self):
                if self.obs is not None:
                    self._trace()
        """})
    assert report.findings == []
    assert rule_keys(report.waived, "O1") == [("replication/worker.py", 3)]


def test_o2_flags_the_unguarded_call_site_and_keeps_o1():
    report = o2_report({"replication/worker.py": """\
        class Worker:
            def _trace(self):
                self.obs.tracer.instant("x")

            def good(self):
                if self.obs is not None:
                    self._trace()

            def bad(self):
                self._trace()
        """})
    assert rule_keys(report.findings, "O1") == [("replication/worker.py", 3)]
    assert rule_keys(report.findings, "O2") == [("replication/worker.py", 10)]
    assert report.waived == []


def test_o2_helper_with_no_call_sites_keeps_o1():
    report = o2_report({"replication/worker.py": """\
        class Worker:
            def _trace(self):
                self.obs.tracer.instant("x")
        """})
    assert rule_keys(report.findings, "O1") == [("replication/worker.py", 3)]
    assert rule_keys(report.findings, "O2") == []
    assert report.waived == []


def test_o2_guard_dominance_crosses_modules():
    report = o2_report({
        "replication/helpers.py": """\
            class Worker:
                def _trace_lap(self):
                    self.obs.tracer.instant("lap")
            """,
        "replication/driver.py": """\
            def drive(worker):
                if worker.obs is not None:
                    worker._trace_lap()
            """,
    })
    assert report.findings == []
    assert rule_keys(report.waived, "O1") == [("replication/helpers.py", 3)]


# ----------------------------------------------------------------------
# R1 -- RNG seed provenance
# ----------------------------------------------------------------------
def r1_report(files):
    return report_for(files, rules=[],
                      program_rules=[RuleR1SeedProvenance()])


def test_r1_flags_literal_seed():
    report = r1_report({"sim/mod.py": """\
        import random

        def make():
            return random.Random(1234)
        """})
    assert rule_keys(report.findings, "R1") == [("sim/mod.py", 4)]
    assert "1234" in report.findings[0].message


def test_r1_accepts_config_seed_through_locals_and_arithmetic():
    report = r1_report({"sim/mod.py": """\
        import random

        def make(config):
            base = config.seed
            return random.Random(base * 31 + 7)
        """})
    assert report.findings == []


def test_r1_flags_laundered_seed_local():
    # The local starts from config.seed but is reassigned from a literal:
    # one of its reaching definitions is not seed-derived, so the chain is
    # laundered even though the variable's *name* says "seed".
    report = r1_report({"sim/mod.py": """\
        import random

        def make(config):
            seed_value = config.seed
            seed_value = 42
            return random.Random(seed_value)
        """})
    assert rule_keys(report.findings, "R1") == [("sim/mod.py", 6)]


def test_r1_traces_parameters_through_call_sites():
    clean = r1_report({"sim/mod.py": """\
        import random

        def build(value):
            return random.Random(value)

        def main(config):
            return build(config.seed)
        """})
    assert clean.findings == []

    dirty = r1_report({"sim/mod.py": """\
        import random

        def build(value):
            return random.Random(value)

        def main(config):
            a = build(config.seed)
            b = build(99)
            return a, b
        """})
    assert rule_keys(dirty.findings, "R1") == [("sim/mod.py", 4)]


def test_r1_leaves_seedless_construction_to_d2():
    report = r1_report({"sim/mod.py": """\
        import random

        def make():
            return random.Random()
        """})
    assert report.findings == []


# ----------------------------------------------------------------------
# P1 -- protocol contract conformance
# ----------------------------------------------------------------------
def p1_report(files):
    return report_for(files, rules=[],
                      program_rules=[RuleP1ProtocolConformance()])


def test_p1_accepts_declared_lifecycle_transitions():
    report = p1_report({"replication/txn.py": """\
        class TransactionContext:
            def __init__(self):
                self.state = TransactionContext.ADMITTED

            def after_cpu(self):
                self.state = TransactionContext.READS

        class Replica:
            def _start(self, ctx):
                ctx.state = TransactionContext.CPU
                ctx.state = TransactionContext.READS
                ctx.state = TransactionContext.DONE
        """})
    assert report.findings == []


def test_p1_flags_illegal_transition():
    report = p1_report({"replication/txn.py": """\
        class TransactionContext:
            def after_reads(self):
                self.state = TransactionContext.ADMITTED
        """})
    assert rule_keys(report.findings, "P1") == [("replication/txn.py", 3)]
    assert "READS -> ADMITTED" in report.findings[0].message


def test_p1_flags_state_assignment_in_undeclared_method():
    report = p1_report({"replication/txn.py": """\
        class TransactionContext:
            pass

        class Replica:
            def _helper(self, ctx):
                ctx.state = TransactionContext.DONE
        """})
    assert rule_keys(report.findings, "P1") == [("replication/txn.py", 6)]
    assert "does not declare" in report.findings[0].message


def test_p1_flags_unpaired_subscribe_and_accepts_the_pair():
    dirty = p1_report({"replication/mgr.py": """\
        class Manager:
            def add(self, rid):
                self.subscriptions.subscribe(rid)
        """})
    assert rule_keys(dirty.findings, "P1") == [("replication/mgr.py", 3)]
    assert "unpaired arm" in dirty.findings[0].message

    clean = p1_report({"replication/mgr.py": """\
        class Manager:
            def add(self, rid):
                self.subscriptions.subscribe(rid)

            def remove(self, rid):
                self.subscriptions.unsubscribe(rid)
        """})
    assert clean.findings == []


def test_p1_pairing_sees_through_local_aliases():
    report = p1_report({"replication/mgr.py": """\
        class Manager:
            def add(self, rid):
                index = self.certifier.subscriptions
                index.subscribe(rid)
        """})
    assert rule_keys(report.findings, "P1") == [("replication/mgr.py", 4)]


def test_p1_crossed_requires_a_program_wide_rearm():
    dirty = p1_report({"replication/puller.py": """\
        class Puller:
            def poll(self):
                for rid in self.subscriptions.crossed(5):
                    self.notify(rid)
        """})
    assert rule_keys(dirty.findings, "P1") == [("replication/puller.py", 3)]
    assert "advanced" in dirty.findings[0].message

    clean = p1_report({
        "replication/puller.py": """\
            class Puller:
                def poll(self):
                    for rid in self.subscriptions.crossed(5):
                        self.notify(rid)
            """,
        "replication/committer.py": """\
            class Committer:
                def commit(self, version):
                    self.subscriptions.advanced(version)
            """,
    })
    assert clean.findings == []


def test_p1_ignores_unhinted_receivers():
    report = p1_report({"replication/mgr.py": """\
        class Mailer:
            def add(self, address):
                self.mailing_list.subscribe(address)
        """})
    assert report.findings == []


# ----------------------------------------------------------------------
# M1 -- stale suppressions
# ----------------------------------------------------------------------
def test_m1_flags_suppression_with_no_matching_finding():
    report = report_for({"sim/mod.py": """\
        import time
        t = time.time()  # simlint: disable=D1
        x = 1  # simlint: disable=D1
        """}, rules=default_rules(["D1"]), program_rules=[],
        detect_stale=True)
    # Line 2's suppression is live (it hides a real D1); line 3's is stale.
    assert [(f.rule, f.line, f.suppressed) for f in report.findings] == \
        [("D1", 2, True)]
    assert [(f.rule, f.line) for f in report.stale] == [("M1", 3)]
    assert report.ok     # stale only fails under --fail-on-stale-suppressions


def test_m1_stale_detection_is_off_by_default():
    report = report_for({"sim/mod.py": "x = 1  # simlint: disable=D1\n"},
                        rules=default_rules(["D1"]), program_rules=[])
    assert report.stale == []


def test_m1_counts_waived_findings_as_live():
    # A suppression over a finding that O2 waives is NOT stale: the
    # directive still refers to a real (if proven-safe) pattern.
    report = report_for({"replication/worker.py": """\
        class Worker:
            def _trace(self):
                self.obs.tracer.instant("x")  # simlint: disable=O1

            def run(self):
                if self.obs is not None:
                    self._trace()
        """}, rules=default_rules(["O1"]),
        program_rules=[RuleO2CallSiteGuard()], detect_stale=True)
    assert report.stale == []


# ----------------------------------------------------------------------
# benchmarks/ harness profile
# ----------------------------------------------------------------------
HARNESS_SRC = """\
    import time
    import random

    def measure():
        t0 = time.perf_counter()
        t1 = time.time()
        x = random.random()
        return t0, t1, x
    """


def test_harness_profile_allows_measurement_clocks():
    report = report_for({"benchmarks/perf/h.py": HARNESS_SRC},
                        program_rules=[])
    # perf_counter is the harness's legitimate measurement clock; wall-clock
    # reads and the global RNG stream are still banned.
    assert rule_keys(report.findings, "D1") == [("benchmarks/perf/h.py", 6)]
    assert rule_keys(report.findings, "D2") == [("benchmarks/perf/h.py", 7)]


def test_full_profile_still_bans_perf_counter():
    report = report_for({"sim/h.py": HARNESS_SRC}, program_rules=[])
    assert rule_keys(report.findings, "D1") == [("sim/h.py", 5), ("sim/h.py", 6)]


def test_report_counts_include_waived_and_stale():
    report = report_for({"replication/worker.py": """\
        class Worker:
            def _trace(self):
                self.obs.tracer.instant("x")

            def run(self):
                if self.obs is not None:
                    self._trace()
        """}, rules=default_rules(["O1"]),
        program_rules=[RuleO2CallSiteGuard()], detect_stale=True)
    payload = report.to_json()
    assert payload["counts"]["waived"] == 1
    assert payload["counts"]["stale_suppressions"] == 0
    assert payload["waived"][0]["rule"] == "O1"
