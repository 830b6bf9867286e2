"""simlint core: findings, suppression parsing, module loading and reports.

The analysis operates on :class:`ModuleSource` objects -- one parsed file
plus its comment-derived suppression table -- and produces
:class:`Finding`s.  A finding lands on a source line; if that line carries a
``# simlint: disable=<RULE>`` comment the finding is *suppressed*: it stays
in the report (counted, listed in the JSON artifact) but does not fail the
run.  Suppression comments are extracted with :mod:`tokenize`, so the
directive is recognised only in real comments, never inside string literals.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: JSON artifact schema version (bump on incompatible changes).
#: v2: adds ``waived`` (per-module findings proven safe by a whole-program
#: rule) and ``stale_suppressions`` (M1) sections.
SCHEMA_VERSION = 2

#: The comment directive: ``# simlint: disable=D1`` / ``disable=D1,O1`` /
#: ``disable=all``.
_DIRECTIVE = "simlint:"

#: Wildcard rule id accepted in a disable list.
SUPPRESS_ALL = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def format(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return "%s:%d:%d: %s %s%s" % (
            self.path, self.line, self.col, self.rule, self.message, mark)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def parse_suppressions(text: str) -> Dict[int, frozenset]:
    """Extract ``# simlint: disable=...`` directives per line.

    Returns ``{lineno: frozenset of rule ids}`` where the special id
    ``"all"`` suppresses every rule on that line.  Only genuine comment
    tokens count; the directive text appearing inside a string (for example
    in this docstring) is ignored.
    """
    out: Dict[int, frozenset] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            comment = tok.string.lstrip("#").strip()
            marker = comment.find(_DIRECTIVE)
            if marker < 0:
                continue
            directive = comment[marker + len(_DIRECTIVE):].strip()
            if not directive.startswith("disable="):
                continue
            spec = directive[len("disable="):].split()[0] if directive[len("disable="):] else ""
            # Only well-formed ids count (`D1`, `all`): a prose comment
            # that merely *mentions* the directive (e.g. in backticks)
            # must not register as a suppression, or M1 would flag it.
            rules = frozenset(
                part.strip() for part in spec.split(",")
                if part.strip() and
                (part.strip() == SUPPRESS_ALL or part.strip().isalnum()))
            if rules:
                existing = out.get(tok.start[0], frozenset())
                out[tok.start[0]] = existing | rules
    except tokenize.TokenError:
        pass
    return out


class ModuleSource:
    """One parsed Python file plus its suppression table.

    ``relpath`` is the path relative to the ``repro`` package root (e.g.
    ``"sim/events.py"``); path-scoped rules (S1, F1) key off it.  Tests
    construct fixtures with an explicit ``relpath`` to place a snippet in or
    out of a rule's scope.
    """

    def __init__(self, text: str, path: str = "<string>",
                 relpath: Optional[str] = None) -> None:
        self.text = text
        self.path = path
        self.relpath = relpath if relpath is not None else os.path.basename(path)
        self.tree = ast.parse(text, filename=path)
        self.suppressions = parse_suppressions(text)

    @classmethod
    def from_file(cls, path: str, relpath: Optional[str] = None) -> "ModuleSource":
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if relpath is None:
            relpath = package_relpath(path)
        return cls(text, path=path, relpath=relpath)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return rule in rules or SUPPRESS_ALL in rules


@dataclass
class Report:
    """The outcome of one analysis run over a set of modules."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    paths: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Per-module findings a whole-program rule proved safe (e.g. O1
    #: findings in a helper whose every call site O2 showed is guarded).
    #: Reported for transparency, never fail the run.
    waived: List[Finding] = field(default_factory=list)
    #: M1 meta-findings: ``# simlint: disable=`` comments that suppress
    #: nothing.  Fail the run only under ``--fail-on-stale-suppressions``.
    stale: List[Finding] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        """Unsuppressed findings (the ones that fail the run)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active and not self.errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self, rule_docs: Optional[Dict[str, str]] = None) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "simlint",
            "paths": list(self.paths),
            "files_analyzed": self.files_analyzed,
            "rules": dict(rule_docs or {}),
            "findings": [f.to_json() for f in self.active],
            "suppressed": [f.to_json() for f in self.suppressed],
            "waived": [f.to_json() for f in self.waived],
            "stale_suppressions": [f.to_json() for f in self.stale],
            "errors": list(self.errors),
            "counts": {
                "findings": len(self.active),
                "suppressed": len(self.suppressed),
                "waived": len(self.waived),
                "stale_suppressions": len(self.stale),
                "by_rule": self.counts_by_rule(),
            },
        }

    def summary(self) -> str:
        text = ("%d file(s): %d finding(s), %d suppressed"
                % (self.files_analyzed, len(self.active),
                   len(self.suppressed)))
        if self.waived:
            text += ", %d waived" % len(self.waived)
        if self.stale:
            text += ", %d stale suppression(s)" % len(self.stale)
        return text


def package_relpath(path: str) -> str:
    """Path relative to the innermost ``repro`` package directory.

    ``/root/repo/src/repro/sim/events.py`` -> ``sim/events.py``; harness
    files anchor at the ``benchmarks`` tree and *keep* that component
    (``/root/repo/benchmarks/perf/run.py`` -> ``benchmarks/perf/run.py``)
    so the per-path rule profile can key off the prefix; anything else
    keeps its basename.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "benchmarks":
            return "/".join(parts[i:])
    return os.path.basename(path)


#: Rule profile for harness code (``benchmarks/``): determinism of the
#: *simulated* run still matters (D2 seeds, F1 float gates, no simulated
#: wall-clock), but the harness's whole job is wall-clock measurement, so
#: D1 runs with ``time.perf_counter``/``perf_counter_ns`` allowed.
HARNESS_RULE_IDS = frozenset({"D1", "D2", "F1"})


def is_harness_relpath(relpath: str) -> bool:
    return relpath.split("/", 1)[0] == "benchmarks"


def harness_profile_rules(rules: Sequence["Rule"]) -> List["Rule"]:  # noqa: F821
    """Project a rule set onto the harness profile (D1/D2/F1 only)."""
    from repro.analysis.rules import RuleD1WallClock
    out = []
    for rule in rules:
        if rule.rule_id not in HARNESS_RULE_IDS:
            continue
        if rule.rule_id == "D1":
            out.append(RuleD1WallClock(measurement_clock_ok=True))
        else:
            out.append(rule)
    return out


def default_program_rules(only: Optional[Sequence[str]] = None
                          ) -> List["ProgramRule"]:  # noqa: F821
    """The whole-program rules (O2, R1, P1), optionally filtered by id."""
    from repro.analysis.dataflow import (RuleO2CallSiteGuard,
                                         RuleR1SeedProvenance)
    from repro.analysis.contracts import RuleP1ProtocolConformance
    rules = [RuleO2CallSiteGuard(), RuleR1SeedProvenance(),
             RuleP1ProtocolConformance()]
    if only is None:
        return rules
    wanted = set(only)
    return [rule for rule in rules if rule.rule_id in wanted]


#: Docs for the whole-program and meta rules (merged into ``--list-rules``
#: and the JSON artifact next to the per-module ``RULE_DOCS``).
PROGRAM_RULE_DOCS: Dict[str, str] = {
    "O2": "interprocedural O1: an unguarded obs-slot use in a helper is "
          "waived when every call site is dominated by an `is not None` "
          "guard; unguarded call sites are flagged",
    "R1": "RNG seed provenance: every random.Random(expr) seed must trace "
          "back to a configuration seed through assignments, attributes "
          "and call arguments",
    "P1": "protocol conformance: TransactionContext lifecycle transitions "
          "and LagSubscriptionIndex arm/disarm pairing checked against "
          "the declared tables in analysis/contracts.py",
}
META_RULE_DOCS: Dict[str, str] = {
    "M1": "stale suppression: a `# simlint: disable=` comment that "
          "suppresses zero findings (keeps the ratchet honest)",
}


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under each path (files pass through), sorted."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def analyze_modules(modules: Iterable[ModuleSource],
                    rules: Sequence["Rule"]) -> Report:  # noqa: F821
    """Run every rule over every module, applying per-line suppressions."""
    report = Report()
    for module in modules:
        report.files_analyzed += 1
        for rule in rules:
            for finding in rule.check(module):
                if module.is_suppressed(finding.rule, finding.line):
                    finding = Finding(
                        rule=finding.rule, path=finding.path,
                        line=finding.line, col=finding.col,
                        message=finding.message, suppressed=True)
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def _analyze(modules: Sequence[ModuleSource],
             rules: Sequence["Rule"],  # noqa: F821
             program_rules: Sequence["ProgramRule"],  # noqa: F821
             detect_stale: bool) -> Report:
    """Shared orchestration: per-module rules under the per-path profile,
    whole-program rules over the full-profile module set, waiver
    application and stale-suppression detection."""
    full = [m for m in modules if not is_harness_relpath(m.relpath)]
    harness = [m for m in modules if is_harness_relpath(m.relpath)]

    report = analyze_modules(full, rules)
    if harness:
        harness_report = analyze_modules(harness,
                                         harness_profile_rules(rules))
        report.findings.extend(harness_report.findings)
        report.files_analyzed += harness_report.files_analyzed

    if program_rules and full:
        from repro.analysis.callgraph import build_program
        program = build_program(full)
        module_by_relpath = {m.relpath: m for m in full}
        for program_rule in program_rules:
            new_findings, waived = program_rule.analyze(program)
            waived_keys = {(f.path, f.line, f.col, f.rule) for f in waived}
            if waived_keys:
                kept: List[Finding] = []
                for finding in report.findings:
                    key = (finding.path, finding.line, finding.col,
                           finding.rule)
                    if key in waived_keys and not finding.suppressed:
                        report.waived.append(finding)
                    else:
                        kept.append(finding)
                report.findings = kept
            for finding in new_findings:
                module = module_by_relpath.get(finding.path)
                if module is not None and \
                        module.is_suppressed(finding.rule, finding.line):
                    finding = replace(finding, suppressed=True)
                report.findings.append(finding)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        report.waived.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if detect_stale:
        _detect_stale_suppressions(modules, report)
    return report


def _detect_stale_suppressions(modules: Sequence[ModuleSource],
                               report: Report) -> None:
    """M1: flag every suppression directive that matched zero findings.

    A suppression is *live* if a finding of its rule (active, suppressed,
    or waived -- a waived finding still exists) landed on its line;
    ``disable=all`` is live if any finding at all landed there.  Only
    meaningful when the full rule set ran, so callers gate this on an
    unrestricted ``--rules``.
    """
    present: Dict[Tuple[str, int], Set[str]] = {}
    for finding in list(report.findings) + list(report.waived):
        present.setdefault((finding.path, finding.line),
                           set()).add(finding.rule)
    for module in modules:
        for line in sorted(module.suppressions):
            found = present.get((module.relpath, line), set())
            for rule_id in sorted(module.suppressions[line]):
                if rule_id == SUPPRESS_ALL:
                    if found:
                        continue
                    detail = "`disable=all` suppresses no findings"
                elif rule_id in found:
                    continue
                else:
                    detail = ("`disable=%s` suppresses no %s finding"
                              % (rule_id, rule_id))
                report.stale.append(Finding(
                    rule="M1", path=module.relpath, line=line, col=1,
                    message="stale suppression: %s on this line "
                            "(remove the comment)" % detail))
    report.stale.sort(key=lambda f: (f.path, f.line, f.col, f.message))


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Sequence["Rule"]] = None,  # noqa: F821
                  program_rules: Optional[Sequence["ProgramRule"]] = None,  # noqa: F821
                  detect_stale: Optional[bool] = None) -> Report:
    """Analyze every Python file under ``paths``.

    With both rule arguments left at None the full default sets run
    (per-module D1..F1 under the per-path profile, whole-program O2/R1/P1)
    and stale-suppression detection is on.  Restricting either rule set
    disables the program rules / stale detection unless explicitly
    requested -- a partial run cannot judge a suppression stale.

    Unparseable files are recorded in ``Report.errors`` (and fail the run)
    instead of being skipped silently.
    """
    from repro.analysis.rules import default_rules
    unrestricted = rules is None and program_rules is None
    if rules is None:
        rules = default_rules()
    if program_rules is None:
        program_rules = default_program_rules() if unrestricted else []
    if detect_stale is None:
        detect_stale = unrestricted
    modules: List[ModuleSource] = []
    errors: List[str] = []
    for filename in iter_python_files(paths):
        try:
            modules.append(ModuleSource.from_file(filename))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append("%s: %s" % (filename, exc))
    report = _analyze(modules, rules, program_rules, detect_stale)
    report.paths = [os.path.abspath(p) for p in paths]
    report.errors.extend(errors)
    return report
