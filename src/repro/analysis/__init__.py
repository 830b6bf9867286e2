"""simlint: static enforcement of the simulator's determinism & hot-path contracts.

Seven PRs of hot-path work, fault injection and zero-overhead observability
rest on a small set of load-bearing invariants: the sim clock is the only
time source, every RNG stream derives from ``config.seed``, nothing iterates
a set into an order-sensitive sink, the None-default observability slots are
touched only behind ``is not None`` guards, hot-path classes carry
``__slots__``, and float equality never gates an invariant.  Until now these
were enforced only *after* the fact, by the seeded golden tests -- which can
tell you THAT determinism broke, but not where.  This package closes the
gap from both sides: an AST pass (per-module rules plus a whole-program
callgraph/dataflow layer) that localizes a violation to a file and line
before any golden suite runs, and a runtime determinism sanitizer
(:mod:`repro.analysis.dsan`) that replays a scenario against rolling event
fingerprints and localizes the *first diverging event* when a golden
mismatch does slip through.

Per-module rules
----------------

====  ================================================================
D1    Wall-clock ban: ``time.time``/``perf_counter``/``datetime.now``
      and friends are forbidden everywhere -- simulated time comes from
      ``Simulator.now``.  Harness code under ``benchmarks/`` runs a
      relaxed profile (D1/D2/F1 with measurement clocks allowed).
D2    Unseeded/global RNG ban: module-level ``random.*`` calls and bare
      ``random.Random()`` without a seed expression; every stream must
      derive from ``config.seed``.
D3    Iteration-order hazard: iterating a ``set``/``frozenset`` of
      non-literal origin into an order-sensitive sink (event scheduling,
      list building, heap pushes) without ``sorted()``.
O1    Zero-overhead contract: chaining through the None-default
      observability slots (``ctx.trace``, ``replica.obs``,
      ``cluster.observability``, ``EventQueue.probe``) requires a
      dominating ``is not None`` guard in the enclosing function.
S1    ``__slots__`` coverage for classes defined in the hot modules
      (``sim/``, ``storage/``, ``replication/``, ``core/routing.py``),
      with exemptions for dataclasses/enums/exceptions and an explicit
      control-plane allowlist.
F1    Float ``==``/``!=`` in the invariant-auditing and
      golden-comparison modules.
====  ================================================================

Whole-program rules (callgraph + dataflow over the full module set)
-------------------------------------------------------------------

====  ================================================================
O2    Interprocedural O1: an unguarded obs-slot use inside a helper is
      *waived* when every call site in the program is dominated by an
      ``is not None`` guard; an unguarded call site is flagged.
R1    RNG seed provenance: every ``random.Random(expr)`` seed must
      trace back to a configuration seed through local assignments,
      ``self`` attributes, arithmetic mixing and call arguments.
P1    Protocol conformance: ``TransactionContext`` lifecycle
      transitions and ``LagSubscriptionIndex`` arm/disarm pairing are
      model-checked against the declared tables in
      :mod:`repro.analysis.contracts`.
M1    Stale suppression (meta): a ``# simlint: disable=`` comment that
      suppresses zero findings is itself reported, so the suppression
      count stays an honest ratchet.
====  ================================================================

Suppressions: append ``# simlint: disable=RULE`` (comma-separated ids, or
``all``) to the offending line, with a justification comment.  Suppressed
findings are counted and reported, never silently dropped.

Run ``python -m repro.analysis`` (optionally with paths and ``--json``), or
use :func:`analyze_paths` from tests.
"""

from repro.analysis.core import (
    Finding,
    META_RULE_DOCS,
    ModuleSource,
    PROGRAM_RULE_DOCS,
    Report,
    analyze_modules,
    analyze_paths,
    default_program_rules,
    iter_python_files,
    package_relpath,
)
from repro.analysis.callgraph import CallSite, FunctionInfo, Program, build_program
from repro.analysis.dataflow import (
    ProgramRule,
    RuleO2CallSiteGuard,
    RuleR1SeedProvenance,
)
from repro.analysis.contracts import (
    LAG_SUBSCRIPTION,
    PairingContract,
    RuleP1ProtocolConformance,
    StateMachineContract,
    TXN_LIFECYCLE,
)
from repro.analysis.rules import (
    ALL_RULES,
    RULE_DOCS,
    Rule,
    RuleD1WallClock,
    RuleD2UnseededRng,
    RuleD3SetIteration,
    RuleO1ObsGuard,
    RuleS1Slots,
    RuleF1FloatEquality,
    default_rules,
)

__all__ = [
    "ALL_RULES",
    "CallSite",
    "Finding",
    "FunctionInfo",
    "LAG_SUBSCRIPTION",
    "META_RULE_DOCS",
    "ModuleSource",
    "PROGRAM_RULE_DOCS",
    "PairingContract",
    "Program",
    "ProgramRule",
    "Report",
    "RULE_DOCS",
    "Rule",
    "RuleD1WallClock",
    "RuleD2UnseededRng",
    "RuleD3SetIteration",
    "RuleF1FloatEquality",
    "RuleO1ObsGuard",
    "RuleO2CallSiteGuard",
    "RuleP1ProtocolConformance",
    "RuleR1SeedProvenance",
    "RuleS1Slots",
    "StateMachineContract",
    "TXN_LIFECYCLE",
    "analyze_modules",
    "analyze_paths",
    "build_program",
    "default_program_rules",
    "default_rules",
    "iter_python_files",
    "package_relpath",
]
