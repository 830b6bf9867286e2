"""Suppression accounting, the JSON artifact schema, the CLI surface, and
the self-check that the real tree is clean."""

import json
import os
import subprocess
import sys
import textwrap

import repro
from repro.analysis import (
    RULE_DOCS,
    ModuleSource,
    analyze_modules,
    analyze_paths,
    default_rules,
)
from repro.analysis.core import SCHEMA_VERSION, parse_suppressions

from tests.analysis.sources import analyze_source

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_single_rule():
    found = analyze_source(
        "import time\n"
        "t = time.time()  # simlint: disable=D1 -- fixture justification\n")
    assert [(f.rule, f.suppressed) for f in found] == [("D1", True)]


def test_suppression_is_per_rule_and_per_line():
    src = textwrap.dedent("""\
        import time
        import random
        a = time.time()  # simlint: disable=D2
        b = random.random()
        """)
    found = analyze_source(src)
    # The D2 directive on line 3 does not cover the D1 finding there, and
    # nothing covers line 4.
    assert [(f.rule, f.line, f.suppressed) for f in found] == [
        ("D1", 3, False), ("D2", 4, False)]


def test_suppression_comma_list_and_all():
    src = textwrap.dedent("""\
        import time
        import random
        a = time.time() + random.random()  # simlint: disable=D1,D2
        b = time.time() + random.random()  # simlint: disable=all
        """)
    found = analyze_source(src)
    assert all(f.suppressed for f in found)
    assert len(found) == 4


def test_directive_inside_string_is_ignored():
    src = 'note = "# simlint: disable=D1"\nimport time\nt = time.time()\n'
    assert parse_suppressions(src) == {}
    found = analyze_source(src)
    assert [(f.rule, f.suppressed) for f in found] == [("D1", False)]


def test_suppressed_findings_are_counted_not_dropped():
    module = ModuleSource(
        "import time\nt = time.time()  # simlint: disable=D1\n",
        relpath="fixture.py")
    report = analyze_modules([module], default_rules())
    assert report.ok
    assert len(report.suppressed) == 1
    assert report.active == []
    assert report.counts_by_rule() == {"D1": 1}


# ----------------------------------------------------------------------
# JSON artifact schema
# ----------------------------------------------------------------------
def test_report_json_schema():
    module = ModuleSource(
        "import time\n"
        "a = time.time()\n"
        "b = time.time()  # simlint: disable=D1\n",
        relpath="fixture.py")
    report = analyze_modules([module], default_rules())
    payload = report.to_json(RULE_DOCS)

    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["tool"] == "simlint"
    assert payload["files_analyzed"] == 1
    assert set(payload["rules"]) == {"D1", "D2", "D3", "O1", "S1", "F1"}
    assert payload["counts"] == {
        "findings": 1, "suppressed": 1, "waived": 0,
        "stale_suppressions": 0, "by_rule": {"D1": 2}}
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "D1" and finding["line"] == 2
    (suppressed,) = payload["suppressed"]
    assert suppressed["line"] == 3
    # The artifact must be JSON-serialisable as-is.
    json.dumps(payload)


def test_syntax_error_is_reported_not_swallowed(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    report = analyze_paths([str(tmp_path)])
    assert not report.ok
    assert report.errors and "bad.py" in report.errors[0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(PACKAGE_DIR) + os.pathsep + \
        env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis"] + list(args),
        capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_clean_tree_exits_zero(tmp_path):
    artifact = tmp_path / "findings.json"
    proc = run_cli(PACKAGE_DIR, "--json", str(artifact))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(artifact.read_text())
    assert payload["counts"]["findings"] == 0


def test_cli_findings_exit_one_and_errors_exit_two(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    proc = run_cli(str(dirty))
    assert proc.returncode == 1
    assert "D1" in proc.stdout

    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    proc = run_cli(str(broken))
    assert proc.returncode == 2

    proc = run_cli(str(tmp_path / "missing.py"))
    assert proc.returncode == 2


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("D1", "D2", "D3", "O1", "S1", "F1"):
        assert rule_id in proc.stdout


# ----------------------------------------------------------------------
# Self-check: the shipped tree is clean
# ----------------------------------------------------------------------
def test_src_repro_has_zero_unsuppressed_findings():
    report = analyze_paths([PACKAGE_DIR])
    assert report.files_analyzed > 50
    active = "\n".join(f.format() for f in report.active)
    assert report.ok, "unsuppressed simlint findings:\n" + active


def test_src_repro_suppressions_are_the_documented_ones():
    # Every suppression in the tree must stay deliberate: this list is the
    # reviewed set.  replica.py's six O1 suppressions were retired in v2
    # (O2 now proves the trace helpers' call sites are guarded); the one
    # survivor is the standalone-engine default RNG seed literal.
    # Extending this list is fine -- do it consciously, here.
    report = analyze_paths([PACKAGE_DIR])
    suppressed = {(f.path, f.rule) for f in report.suppressed}
    assert suppressed <= {("storage/engine.py", "R1")}
    assert len(report.suppressed) == 1
    # The retired O1 findings are waived by O2, not silently gone.
    waived = {(f.path, f.rule) for f in report.waived}
    assert waived == {("replication/replica.py", "O1")}
    assert len(report.waived) == 6
    # And nothing in the tree carries a stale suppression.
    assert report.stale == []
