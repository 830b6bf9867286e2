"""Every definition and attribute in ``src/repro`` is reached by the program.

A definition that only tests call, or a counter that only tests read, is
dead weight: the simulator never uses it, yet it has to be kept in step
with the code around it (and a counter is paid for on every bump).  This
test parses ``src/repro`` and looks each name up in every Python file under
``src/``, ``benchmarks/``, ``examples/`` and ``perfbench/``:

* **Definitions.**  A function, method or class name is reached if it
  appears as an identifier token in a program file other than on its own
  ``def`` or ``class`` line.  String literals count (``perfbench`` names the
  methods it patches by string); comments and docstrings do not, and
  neither do the import and ``__all__`` lines of an ``__init__.py``, which
  only re-export a name.
* **Attributes.**  An attribute assigned through ``self.<name> =``,
  ``self.<name>: T =`` or ``self.<name> += ...`` is reached if some program
  file reads ``<anything>.<name>`` or passes ``"<name>"`` to ``getattr``.
  An augmented-assignment target is not a read, nor is a ``__slots__``
  string or a docstring, and neither is a load inside ``__eq__``,
  ``__hash__`` or ``__repr__``: value semantics compare, hash and print
  every field, so a field that only they read is still unused.

Both lookups are by bare name, so a name shared by two definitions or two
attributes counts as reached if either is (``Replica.completed`` would pass
on the strength of ``MetricsCollector.completed``); the scan can miss a
dead name that shares its spelling with a live one, but it never reports a
reached one.  The attribute scan cannot see reads through aliases -- a
``getattr`` with a computed name, ``vars()``, ``dataclasses.asdict`` -- so
it never reports those either; a load made only to mutate the value
(``self.history.append(x)``) counts as a read.  It does not cover dataclass
fields, which are declared in the class body rather than assigned through
``self``, nor attributes written through any other receiver.

* **Module constants.**  An upper-case name assigned at module level is
  reached if it appears as an identifier token in a program file other
  than on its own assignment line.  Only code counts: string literals do
  not (the text ``"2.2 GB"`` in a title is not a use of ``GB``), and
  neither do comments, docstrings or an ``__init__.py``'s import and
  ``__all__`` lines.

* **Imports.**  Every name a file imports must be loaded in that file.
  This covers every Python file under the program directories and
  ``tests/``.  A name counts as loaded if the code reads it, if a type
  string names it (a string annotation, or the first argument of
  ``cast``), if the module's ``__all__`` lists it, or if another file
  imports it from this module (a re-export).  ``from __future__`` imports
  and the top-level imports of an ``__init__.py`` are exempt.  An unused
  import has no allowlist: delete it.

To fix a report, either delete the name, or, if a test uses it only to
observe state, move it into that test or ``tests/conftest.py``.  Only a
name the README documents as public API belongs in an allowlist below.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Token types whose text is literal string content: a whole string before
#: Python 3.12, the literal parts of an f-string from 3.12 on.
STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}

#: Definitions kept although no program file uses them, each with the
#: reason.  An entry that is no longer defined, or that the program now
#: reaches, is stale and fails the test.
ALLOWLIST = set()

#: The same discipline for attributes written but never read.
ATTRIBUTE_ALLOWLIST = set()

#: The same discipline for module constants.
CONSTANT_ALLOWLIST = set()

#: Methods whose attribute loads do not count as reads.
VALUE_METHODS = {"__eq__", "__hash__", "__repr__"}


def _program_files():
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            # Build artefacts (bytecode, an installed egg's copies) are not
            # program text.
            parts = path.parts
            if "__pycache__" not in parts and not any(
                    part.endswith(".egg-info") for part in parts):
                yield path


def _source_files():
    return sorted((ROOT / "src" / "repro").rglob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _docstring_lines(tree):
    """Line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _reexport_lines(path, tree):
    """Lines of an ``__init__.py`` that only re-export names: its imports
    and its ``__all__``."""
    if path.name != "__init__.py":
        return set()
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _reference_tokens(path, tree, strings=True):
    """``(line, identifier)`` of every reference in a program file: names
    and, with ``strings``, the identifiers inside string literals, outside
    comments, docstrings and re-export lines."""
    skipped = _docstring_lines(tree) | _reexport_lines(path, tree)
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        line = token.start[0]
        if line in skipped:
            continue
        if token.type == tokenize.NAME:
            yield line, token.string
        elif strings and token.type in STRING_TOKENS:
            for name in IDENTIFIER.findall(token.string):
                yield line, name


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
def _definitions():
    """Name -> [(path, line)] of every non-dunder def and class."""
    found = {}
    for path in _source_files():
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.setdefault(name, []).append((path, node.lineno))
    return found


def _unreached():
    """Defined names referenced by no program file except on their own
    definition lines."""
    definitions = _definitions()
    own_lines = {}
    for name, sites in definitions.items():
        for site in sites:
            own_lines.setdefault(site, set()).add(name)
    unreached = set(definitions)
    for path in _program_files():
        for line, name in _reference_tokens(path, _parse(path)):
            if name in unreached and name not in own_lines.get((path, line), ()):
                unreached.discard(name)
    return {name: definitions[name] for name in unreached}


# ----------------------------------------------------------------------
# Attributes
# ----------------------------------------------------------------------
def _self_attribute(target):
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
            and target.value.id == "self":
        return target.attr
    return None


def _attribute_writes():
    """Name -> [(path, line)] of every ``self.<name>`` assignment."""
    found = {}
    for path in _source_files():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assign):
                targets = []
                for target in node.targets:
                    targets.extend(target.elts if isinstance(target, ast.Tuple) else [target])
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                name = _self_attribute(target)
                if name is not None:
                    found.setdefault(name, []).append((path, node.lineno))
    return found


def _attribute_reads():
    """Every attribute name some program file loads outside
    :data:`VALUE_METHODS`, or names as the literal second argument of
    ``getattr``."""
    reads = set()
    for path in _program_files():
        tree = _parse(path)
        value_method_nodes = {
            id(node) for method in ast.walk(tree)
            if isinstance(method, ast.FunctionDef) and method.name in VALUE_METHODS
            for node in ast.walk(method)}
        for node in ast.walk(tree):
            if id(node) in value_method_nodes:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "getattr" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
    return reads


def _unread_attributes():
    writes = _attribute_writes()
    reads = _attribute_reads()
    return {name: sites for name, sites in writes.items() if name not in reads}


# ----------------------------------------------------------------------
# Module constants
# ----------------------------------------------------------------------
def _constants():
    """Name -> [(path, line)] of every upper-case module-level assignment."""
    found = {}
    for path in _source_files():
        for node in _parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    found.setdefault(target.id, []).append((path, target.lineno))
    return found


def _unreached_constants():
    """Module constants no program file's code names except on their own
    assignment lines."""
    constants = _constants()
    own_lines = {site for sites in constants.values() for site in sites}
    unreached = set(constants)
    for path in _program_files():
        for line, name in _reference_tokens(path, _parse(path), strings=False):
            if name in unreached and (path, line) not in own_lines:
                unreached.discard(name)
    return {name: constants[name] for name in unreached}


# ----------------------------------------------------------------------
# Imports
# ----------------------------------------------------------------------
def _checked_files():
    yield from _program_files()
    yield from (path for path in sorted((ROOT / "tests").rglob("*.py"))
                if "__pycache__" not in path.parts)


def _module_name(path):
    """Dotted module name of a file (``src/`` is a path root)."""
    src = ROOT / "src"
    relative = path.relative_to(src if src in path.parents else ROOT)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _import_source(path, node):
    """The absolute module an ``ImportFrom`` node imports from."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[:len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


def _type_string_names(node):
    """Names inside the string constants of a type expression."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expression = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(name.id for name in ast.walk(expression)
                         if isinstance(name, ast.Name))
    return names


def _loaded_names(tree):
    """Names a module reads, in code or in a type string, or exports
    through ``__all__``."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            loaded |= _type_string_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            loaded |= _type_string_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            loaded |= _type_string_names(node.annotation)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "cast" and node.args:
            loaded |= _type_string_names(node.args[0])
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            loaded.update(element.value for element in ast.walk(node.value)
                          if isinstance(element, ast.Constant))
    return loaded


def _unused_imports():
    """``(path, line, name)`` of every imported name its file never loads."""
    trees = {path: _parse(path) for path in _checked_files()}
    reexported = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _import_source(path, node)
                reexported.update((source, alias.name) for alias in node.names)
    unused = []
    for path, tree in trees.items():
        exempt = set(tree.body) if path.name == "__init__.py" else set()
        loaded = _loaded_names(tree)
        module = _module_name(path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or node in exempt \
                    or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded and (module, name) not in reexported:
                    unused.append((path, node.lineno, name))
    return unused


def _report(kind, unreached, allowlist):
    reported = sorted(set(unreached) - allowlist)
    return "%s in src/repro but used only by tests:\n" % kind + "\n".join(
        "  %s (%s)" % (name, ", ".join("%s:%d" % (path.relative_to(ROOT), line)
                                       for path, line in unreached[name]))
        for name in reported), reported


def test_every_definition_is_reached_by_the_program():
    message, reported = _report("defined", _unreached(), ALLOWLIST)
    assert not reported, message


def test_every_attribute_is_read_by_the_program():
    message, reported = _report("written", _unread_attributes(), ATTRIBUTE_ALLOWLIST)
    assert not reported, message


def test_every_module_constant_is_used_by_the_program():
    message, reported = _report("assigned", _unreached_constants(), CONSTANT_ALLOWLIST)
    assert not reported, message


def test_allowlist_is_not_stale():
    assert ALLOWLIST <= set(_unreached())
    assert ATTRIBUTE_ALLOWLIST <= set(_unread_attributes())
    assert CONSTANT_ALLOWLIST <= set(_unreached_constants())


def test_every_import_is_used():
    unused = _unused_imports()
    assert not unused, "imported but never used:\n" + "\n".join(
        "  %s:%d %s" % (path.relative_to(ROOT), line, name)
        for path, line, name in unused)
