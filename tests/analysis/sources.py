"""Entry points for running simlint over in-memory source fixtures."""

from repro.analysis import ModuleSource, analyze_modules, default_program_rules, default_rules
from repro.analysis.core import _analyze


def analyze_source(text, relpath="fixture.py", rules=None):
    """Analyze one source snippet with the per-module rules."""
    if rules is None:
        rules = default_rules()
    module = ModuleSource(text, path=relpath, relpath=relpath)
    return analyze_modules([module], rules).findings


def analyze_program_source(files, rules=None, program_rules=None, detect_stale=False):
    """Analyze a multi-file fixture through the pipeline ``analyze_paths``
    uses.  ``files`` maps relpath -> source text; relpaths under
    ``benchmarks/`` get the harness profile exactly as on disk."""
    if rules is None:
        rules = default_rules()
    if program_rules is None:
        program_rules = default_program_rules()
    modules = [ModuleSource(text, path=relpath, relpath=relpath)
               for relpath, text in sorted(files.items())]
    return _analyze(modules, rules, program_rules, detect_stale)
