"""Every function, method and class in ``src/repro`` is reached by the program.

A definition that only tests call is dead weight: the simulator never runs
it, yet it has to be kept in step with the code around it.  This test parses
``src/repro`` and looks each defined name up, as an identifier token, in
every file under ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/``.  A name whose only occurrence there is its own ``def`` or
``class`` line is reported.

The lookup is by bare name, so a name shared by two definitions counts as
reached if either is; the scan can miss a dead method that shares its name
with a live one, but it never reports a reached one.

To fix a report, either delete the definition, or, if a test uses it only
to observe state, move it into that test or ``tests/conftest.py``.  Only a
name the README documents as public API belongs in the allowlist below.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions kept although no program file uses them, each with the
#: reason.  An entry that is no longer defined, or that the program now
#: reaches, is stale and fails the test.
ALLOWLIST = {
    # Documented in README.md ("Observability") as the way to summarise an
    # exported telemetry JSON from Python.
    "summarize_telemetry",
}


def _definitions():
    """Name -> [(path, line)] of every non-dunder def and class."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.setdefault(name, []).append((path, node.lineno))
    return found


def _program_files():
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            # Build artefacts (bytecode, an installed egg's file list) are
            # not program text.
            parts = path.parts
            if path.is_file() and "__pycache__" not in parts and not any(
                    part.endswith(".egg-info") for part in parts):
                yield path


def _unreached():
    """Defined names that appear in no program file except on their own
    definition lines."""
    definitions = _definitions()
    own_lines = {}
    for name, sites in definitions.items():
        for site in sites:
            own_lines.setdefault(site, set()).add(name)
    unreached = set(definitions)
    for path in _program_files():
        text = path.read_text(errors="ignore")
        for number, line in enumerate(text.splitlines(), 1):
            tokens = set(IDENTIFIER.findall(line)) & unreached
            if tokens:
                unreached -= tokens - own_lines.get((path, number), set())
    return {name: definitions[name] for name in unreached}


def test_every_definition_is_reached_by_the_program():
    unreached = _unreached()
    reported = sorted(set(unreached) - ALLOWLIST)
    assert not reported, "defined in src/repro but used only by tests:\n" + "\n".join(
        "  %s (%s)" % (name, ", ".join("%s:%d" % (path.relative_to(ROOT), line)
                                       for path, line in unreached[name]))
        for name in reported)


def test_allowlist_is_not_stale():
    assert ALLOWLIST <= set(_unreached())
