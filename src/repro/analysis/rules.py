"""simlint rule classes: the repo's invariants as AST checks.

Each rule is a small, self-contained class with a ``check(module)`` method
yielding :class:`~repro.analysis.core.Finding`s.  The rules deliberately
favour *localizable precision* over exhaustiveness: a finding must point at
a line a human can fix, and a clean run must be achievable without turning
the tool off -- deliberate exceptions are annotated inline with
``# simlint: disable=<RULE>`` plus a justification, and the report counts
them.
"""

from __future__ import annotations

import ast
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.core import Finding, ModuleSource

#: Hook signature for the whole-program pass: (call node, guard keys proven
#: non-None at the call, under O1's dominance semantics).
CallObserver = Callable[[ast.Call, FrozenSet[str]], None]


class Rule:
    """Base class: one invariant, one rule id."""

    rule_id = ""
    title = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Every function/method body in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# D1 -- wall-clock ban
# ----------------------------------------------------------------------
class RuleD1WallClock(Rule):
    """The sim clock (``Simulator.now``) is the only time source.

    Flags references to wall-clock functions of :mod:`time` and
    :mod:`datetime` -- any of them smuggles host time into a simulated run,
    destroying reproducibility (and the observability layer's byte-identical
    trace guarantees).
    """

    rule_id = "D1"
    title = "wall-clock time source"

    BANNED_TIME_ATTRS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
        "clock_gettime", "clock_gettime_ns", "ctime", "localtime", "gmtime",
        "sleep",
    })
    BANNED_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    #: The benchmark harness's sanctioned measurement clock (see the
    #: ``harness`` path profile in :mod:`repro.analysis.core`): timing how
    #: long a simulation took is the harness's *job*; what stays banned
    #: there is smuggling host time into simulated behaviour
    #: (``time.time``, ``sleep``, ``datetime.now`` ...).
    MEASUREMENT_ATTRS = frozenset({"perf_counter", "perf_counter_ns"})

    def __init__(self, measurement_clock_ok: bool = False) -> None:
        self.banned_time_attrs = (
            self.BANNED_TIME_ATTRS - self.MEASUREMENT_ATTRS
            if measurement_clock_ok else self.BANNED_TIME_ATTRS)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        time_aliases: Set[str] = set()
        datetime_mod_aliases: Set[str] = set()
        datetime_cls_aliases: Set[str] = set()
        findings: List[Finding] = []

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_mod_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.banned_time_attrs:
                            findings.append(self.finding(
                                module, node,
                                "imports wall-clock `time.%s`; use the sim "
                                "clock (`Simulator.now`)" % alias.name))
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_cls_aliases.add(alias.asname or alias.name)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Name):
                if base.id in time_aliases and node.attr in self.banned_time_attrs:
                    findings.append(self.finding(
                        module, node,
                        "wall-clock `%s.%s`; simulated time comes from "
                        "`Simulator.now`" % (base.id, node.attr)))
                elif base.id in datetime_cls_aliases and \
                        node.attr in self.BANNED_DATETIME_ATTRS:
                    findings.append(self.finding(
                        module, node,
                        "wall-clock `%s.%s`; simulated time comes from "
                        "`Simulator.now`" % (base.id, node.attr)))
            elif isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and \
                    base.value.id in datetime_mod_aliases and \
                    base.attr in ("datetime", "date") and \
                    node.attr in self.BANNED_DATETIME_ATTRS:
                findings.append(self.finding(
                    module, node,
                    "wall-clock `datetime.%s.%s`; simulated time comes "
                    "from `Simulator.now`" % (base.attr, node.attr)))
        return iter(findings)


# ----------------------------------------------------------------------
# D2 -- unseeded / global RNG ban
# ----------------------------------------------------------------------
class RuleD2UnseededRng(Rule):
    """Every RNG stream must derive from ``config.seed``.

    Flags (a) calls to module-level ``random.*`` functions -- they draw from
    the interpreter-global, unseeded stream; (b) ``random.Random()``
    constructed without a seed expression; (c) ``from random import
    random/randint/...`` which aliases the global stream's functions.
    Instance methods on a ``Random`` object constructed *with* a seed are
    the sanctioned pattern (see ``channel.py``'s per-link seeding and
    ``clients.py``'s ``seed ^ 0x5EED``).
    """

    rule_id = "D2"
    title = "unseeded or global RNG"

    #: module-level functions of :mod:`random` that draw from (or mutate)
    #: the global stream.
    GLOBAL_FUNCS = frozenset({
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "expovariate", "gauss", "normalvariate",
        "lognormvariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "betavariate", "gammavariate", "triangular",
        "getrandbits", "randbytes", "seed", "setstate", "getstate",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        random_mod_aliases: Set[str] = set()
        random_cls_aliases: Set[str] = set()
        findings: List[Finding] = []

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_mod_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        random_cls_aliases.add(alias.asname or "Random")
                    elif alias.name == "SystemRandom":
                        findings.append(self.finding(
                            module, node,
                            "`random.SystemRandom` is inherently "
                            "non-reproducible"))
                    elif alias.name in self.GLOBAL_FUNCS:
                        findings.append(self.finding(
                            module, node,
                            "imports global-stream `random.%s`; construct a "
                            "`random.Random(seed)` derived from config.seed "
                            "instead" % alias.name))

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.<func>() on the module alias.
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in random_mod_aliases:
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        findings.append(self.finding(
                            module, node,
                            "bare `random.Random()` without a seed "
                            "expression; derive the seed from config.seed"))
                elif func.attr == "SystemRandom":
                    findings.append(self.finding(
                        module, node,
                        "`random.SystemRandom` is inherently "
                        "non-reproducible"))
                elif func.attr in self.GLOBAL_FUNCS:
                    findings.append(self.finding(
                        module, node,
                        "global-stream `random.%s()`; use a seeded "
                        "`random.Random` instance" % func.attr))
            # Random() via `from random import Random`.
            elif isinstance(func, ast.Name) and func.id in random_cls_aliases:
                if not node.args and not node.keywords:
                    findings.append(self.finding(
                        module, node,
                        "bare `%s()` without a seed expression; derive the "
                        "seed from config.seed" % func.id))
        return iter(findings)


# ----------------------------------------------------------------------
# D3 -- set-iteration order hazard
# ----------------------------------------------------------------------
class RuleD3SetIteration(Rule):
    """Iterating a set into an order-sensitive sink needs ``sorted()``.

    Set iteration order depends on insertion history and (for strings) the
    per-process hash seed, so any set iteration whose order can reach the
    event queue, a list, or a heap is a latent determinism bug.  The rule
    tracks, per function, which expressions are statically known to be sets
    (literals with non-constant elements, ``set()``/``frozenset()`` calls,
    set comprehensions, unions of those, names assigned from them, and
    ``Set[...]``-annotated attributes declared anywhere in the module) and
    flags:

    * ``for`` loops over a known set whose body performs an order-sensitive
      call (``schedule``/``push``/``append``/``heappush``/... ) or
      ``yield``\\ s;
    * list comprehensions over a known set;
    * ``list(...)``/``tuple(...)``/``.join(...)`` applied to a known set.

    Wrapping the iterable in ``sorted(...)`` (the repo's idiom, e.g.
    ``clients.py``'s ``sorted(self._parked)``) resolves the finding.
    Order-insensitive consumers (``sum``/``len``/``min``/``max``/``any``/
    ``all``/membership tests/building another set) are not flagged.
    """

    rule_id = "D3"
    title = "set-iteration order hazard"

    SINK_METHODS = frozenset({
        "defer", "defer_at", "schedule", "schedule_at", "push", "push_bare",
        "append", "appendleft", "extend", "insert", "submit", "dispatch",
        "deliver", "acquire", "add_background_work", "write", "writelines",
    })
    SINK_FUNCS = frozenset({"heappush", "heappop"})
    SEQUENCE_BUILDERS = frozenset({"list", "tuple"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        set_attrs = self._collect_set_attributes(module.tree)
        findings: List[Finding] = []
        for func in _walk_functions(module.tree):
            self._check_function(module, func, set_attrs, findings)
        # Module-level statements (rare, but consistent).
        self._check_body(module, module.tree.body, set(), set_attrs, findings)
        return iter(findings)

    # -- set-ness tracking ---------------------------------------------
    def _collect_set_attributes(self, tree: ast.AST) -> FrozenSet[str]:
        """Attribute names declared set-typed anywhere in the module.

        Collects ``self.x: Set[...] = ...`` annotations and plain
        ``self.x = set()`` / set-literal / set-comprehension assignments, so
        iterating ``self.x`` (or ``other.x``) elsewhere in the module is
        recognised as a set iteration.
        """
        names: Set[str] = set()
        for node in ast.walk(tree):
            target = None
            value = None
            if isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Attribute):
                ann = node.annotation
                base = None
                if isinstance(ann, ast.Subscript):
                    base = _dotted_name(ann.value)
                else:
                    base = _dotted_name(ann)
                if base is not None and \
                        base.split(".")[-1] in ("Set", "FrozenSet", "set",
                                                "frozenset", "MutableSet",
                                                "AbstractSet"):
                    names.add(node.target.attr)
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Attribute):
                target = node.targets[0]
                value = node.value
            if target is not None and value is not None and \
                    self._is_set_expr(value, set(), frozenset()):
                names.add(target.attr)
        return frozenset(names)

    def _is_set_expr(self, node: ast.AST, local_sets: Set[str],
                     set_attrs: FrozenSet[str]) -> bool:
        if isinstance(node, ast.Set):
            # All-constant literals iterate the same way on every run of the
            # same interpreter build; the hazard the rule tracks is sets of
            # computed/keyed origin.
            return not all(isinstance(el, ast.Constant) for el in node.elts)
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in set_attrs
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left, local_sets, set_attrs)
                    or self._is_set_expr(node.right, local_sets, set_attrs))
        return False

    # -- per-function check --------------------------------------------
    def _check_function(self, module: ModuleSource, func: ast.AST,
                        set_attrs: FrozenSet[str],
                        findings: List[Finding]) -> None:
        local_sets: Set[str] = set()
        self._check_body(module, func.body, local_sets, set_attrs, findings)

    def _check_body(self, module: ModuleSource, body: Sequence[ast.stmt],
                    local_sets: Set[str], set_attrs: FrozenSet[str],
                    findings: List[Finding]) -> None:
        for stmt in body:
            self._scan_statement(module, stmt, local_sets, set_attrs, findings)

    def _scan_statement(self, module: ModuleSource, stmt: ast.stmt,
                        local_sets: Set[str], set_attrs: FrozenSet[str],
                        findings: List[Finding]) -> None:
        # Track local names assigned from set expressions (statement order
        # matters, so this walks statements rather than ast.walk).
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            if self._is_set_expr(stmt.value, local_sets, set_attrs):
                local_sets.add(stmt.targets[0].id)
            else:
                local_sets.discard(stmt.targets[0].id)
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            ann = stmt.annotation
            base = _dotted_name(ann.value) if isinstance(ann, ast.Subscript) \
                else _dotted_name(ann)
            if base is not None and base.split(".")[-1] in (
                    "Set", "FrozenSet", "set", "frozenset"):
                local_sets.add(stmt.target.id)

        if isinstance(stmt, ast.For) and \
                self._is_set_expr(stmt.iter, local_sets, set_attrs):
            sink = self._order_sensitive_sink(stmt.body)
            if sink is not None:
                findings.append(self.finding(
                    module, stmt,
                    "iterates a set into order-sensitive `%s`; wrap the "
                    "iterable in sorted()" % sink))

        # Expression-level hazards anywhere inside the statement.
        for node in ast.walk(stmt):
            if isinstance(node, ast.ListComp):
                gen = node.generators[0]
                if self._is_set_expr(gen.iter, local_sets, set_attrs):
                    findings.append(self.finding(
                        module, node,
                        "builds a list from set iteration order; wrap the "
                        "iterable in sorted()"))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and \
                        func.id in self.SEQUENCE_BUILDERS and \
                        len(node.args) == 1 and \
                        self._is_set_expr(node.args[0], local_sets, set_attrs):
                    findings.append(self.finding(
                        module, node,
                        "`%s()` over a set fixes an arbitrary iteration "
                        "order; use sorted()" % func.id))
                elif isinstance(func, ast.Attribute) and func.attr == "join" \
                        and len(node.args) == 1 and \
                        self._is_set_expr(node.args[0], local_sets, set_attrs):
                    findings.append(self.finding(
                        module, node,
                        "`join()` over a set fixes an arbitrary iteration "
                        "order; use sorted()"))

        # Recurse into nested blocks so local set-name tracking stays in
        # statement order (nested function bodies are visited separately).
        for attr in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, attr, None)
            if nested and not isinstance(stmt, (ast.FunctionDef,
                                                ast.AsyncFunctionDef)):
                for child in nested:
                    if isinstance(child, ast.stmt):
                        self._scan_statement(module, child, local_sets,
                                             set_attrs, findings)
        for handler in getattr(stmt, "handlers", ()) or ():
            for child in handler.body:
                self._scan_statement(module, child, local_sets, set_attrs,
                                     findings)

    def _order_sensitive_sink(self, body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yield"
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and \
                            func.attr in self.SINK_METHODS:
                        return func.attr
                    if isinstance(func, ast.Name) and \
                            func.id in self.SINK_FUNCS:
                        return func.id
        return None


# ----------------------------------------------------------------------
# O1 -- zero-overhead observability guard
# ----------------------------------------------------------------------
class RuleO1ObsGuard(Rule):
    """None-default obs slots must be used behind ``is not None`` guards.

    The observability layer's zero-overhead contract: instrumentation hangs
    off slots that default to ``None`` (``ctx.trace``, ``replica.obs``,
    ``cluster.observability``, ``EventQueue.probe``), and every *use* --
    chaining an attribute, calling, subscripting -- must be dominated, in
    the same function, by an ``is not None`` test of the same expression (or
    of a local alias assigned from it).  Recognised guard forms::

        if x.obs is not None: ...            # direct
        obs = x.obs
        if obs is not None: ...              # alias
        if obs is None: return               # early exit
        y = obs.tracer if obs is not None else None   # conditional expr
        assert obs is not None

    Loading a slot into a local, comparing it, or assigning to it is not a
    use.  Guards do not cross function boundaries; a helper whose callers
    guard for it must carry an inline suppression with a justification.
    """

    rule_id = "O1"
    title = "unguarded observability-slot use"

    WATCHED_ATTRS = frozenset({"trace", "obs", "observability", "probe"})

    def __init__(self, call_observer: Optional[
            "CallObserver"] = None) -> None:
        #: Optional hook for the whole-program pass (O2): invoked for every
        #: call expression with the guard keys proven non-None at that
        #: point, using exactly this rule's dominance semantics.
        self.call_observer = call_observer

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        findings: List[Finding] = []
        for func in _walk_functions(module.tree):
            self._check_function(module, func, findings)
        return iter(findings)

    # -- helpers --------------------------------------------------------
    def _watched_chain(self, node: ast.AST) -> Optional[str]:
        """Key for a Name/Attribute chain ending in a watched slot."""
        if isinstance(node, ast.Attribute) and node.attr in self.WATCHED_ATTRS:
            return _dotted_name(node)
        return None

    def _guard_keys(self, test: ast.AST, aliases: Set[str],
                    positive: bool) -> Set[str]:
        """Expressions proven non-None when ``test`` is true (positive) or
        false (negative form: ``x is None``)."""
        keys: Set[str] = set()
        comparisons: List[ast.Compare] = []
        # `a is not None and b is not None` proves both when true;
        # `a is None or b is None` proves both when false (early exit).
        combiner = ast.And if positive else ast.Or
        if isinstance(test, ast.BoolOp) and isinstance(test.op, combiner):
            for value in test.values:
                if isinstance(value, ast.Compare):
                    comparisons.append(value)
        elif isinstance(test, ast.Compare):
            comparisons.append(test)
        for comp in comparisons:
            if len(comp.ops) != 1 or len(comp.comparators) != 1:
                continue
            op = comp.ops[0]
            if not isinstance(comp.comparators[0], ast.Constant) or \
                    comp.comparators[0].value is not None:
                continue
            wanted = ast.IsNot if positive else ast.Is
            if not isinstance(op, wanted):
                continue
            key = _dotted_name(comp.left)
            if key is None:
                continue
            root = key.split(".")[-1]
            if root in self.WATCHED_ATTRS or key in aliases or \
                    (isinstance(comp.left, ast.Name) and key in aliases):
                keys.add(key)
            elif isinstance(comp.left, ast.Attribute) and \
                    comp.left.attr in self.WATCHED_ATTRS:
                keys.add(key)
        return keys

    def _check_function(self, module: ModuleSource, func: ast.AST,
                        findings: List[Finding]) -> None:
        aliases: Set[str] = set()
        self._scan_block(module, func.body, set(), aliases, findings)

    def _scan_block(self, module: ModuleSource, body: Sequence[ast.stmt],
                    guarded: Set[str], aliases: Set[str],
                    findings: List[Finding]) -> None:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue    # nested functions are independent scopes
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                chain = self._watched_chain(stmt.value)
                self._scan_expression(module, stmt.value, guarded, aliases,
                                      findings, skip=stmt.value)
                if chain is not None:
                    aliases.add(name)
                    guarded.discard(name)
                elif name in aliases:
                    aliases.discard(name)
                continue
            if isinstance(stmt, ast.If):
                pos = self._guard_keys(stmt.test, aliases, positive=True)
                neg = self._guard_keys(stmt.test, aliases, positive=False)
                self._scan_expression(module, stmt.test, guarded, aliases,
                                      findings)
                self._scan_block(module, stmt.body, guarded | pos, aliases,
                                 findings)
                if stmt.orelse:
                    self._scan_block(module, stmt.orelse, guarded | neg,
                                     aliases, findings)
                # `if x is None: return/raise/continue/break` guards the
                # rest of the current block.
                if neg and stmt.body and isinstance(
                        stmt.body[-1], (ast.Return, ast.Raise, ast.Continue,
                                        ast.Break)) and not stmt.orelse:
                    guarded |= neg
                continue
            if isinstance(stmt, ast.Assert):
                guarded |= self._guard_keys(stmt.test, aliases, positive=True)
                continue
            # Other compound statements: recurse with current state.
            handled = False
            for attr in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, attr, None)
                if nested:
                    handled = True
                    self._scan_block(module, nested, guarded, aliases,
                                     findings)
            for handler in getattr(stmt, "handlers", ()) or ():
                handled = True
                self._scan_block(module, handler.body, guarded, aliases,
                                 findings)
            if handled:
                # Still scan the statement's own expressions (e.g. the
                # `for` iterable, the `while` test).
                for field_name in ("iter", "test"):
                    expr = getattr(stmt, field_name, None)
                    if expr is not None:
                        self._scan_expression(module, expr, guarded, aliases,
                                              findings)
                continue
            self._scan_expression(module, stmt, guarded, aliases, findings)

    def _scan_expression(self, module: ModuleSource, node: ast.AST,
                         guarded: Set[str], aliases: Set[str],
                         findings: List[Finding],
                         skip: Optional[ast.AST] = None) -> None:
        """Flag unguarded uses inside one expression/simple statement."""
        if isinstance(node, ast.IfExp):
            pos = self._guard_keys(node.test, aliases, positive=True)
            neg = self._guard_keys(node.test, aliases, positive=False)
            self._scan_expression(module, node.test, guarded, aliases,
                                  findings)
            self._scan_expression(module, node.body, guarded | pos, aliases,
                                  findings)
            self._scan_expression(module, node.orelse, guarded | neg, aliases,
                                  findings)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            # `x is not None and x.y(...)` -- later operands see the guard.
            acc = set(guarded)
            for value in node.values:
                self._scan_expression(module, value, acc, aliases, findings)
                acc |= self._guard_keys(value, aliases, positive=True)
            return

        if isinstance(node, ast.Call) and self.call_observer is not None:
            self.call_observer(node, frozenset(guarded))

        use = self._use_target(node, aliases)
        if use is not None:
            key, report_node = use
            if key not in guarded:
                findings.append(self.finding(
                    module, report_node,
                    "`%s` used without a dominating `is not None` guard in "
                    "this function (zero-overhead obs contract)" % key))
            # Do not descend into the matched chain's own value again.
        for child in ast.iter_child_nodes(node):
            if child is skip:
                continue
            self._scan_expression(module, child, guarded, aliases, findings)

    def _use_target(self, node: ast.AST,
                    aliases: Set[str]) -> Optional[Tuple[str, ast.AST]]:
        """If ``node`` *uses* a watched slot or alias, the guard key for it.

        A use is: calling it, chaining an attribute off it, or subscripting
        it -- either directly on ``x.<watched>`` or on a local alias
        assigned from such a chain.  The bare load (RHS of an alias
        assignment, comparison operand) is not a use.
        """
        target: Optional[ast.AST] = None
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Attribute):
            target = node.value
        elif isinstance(node, ast.Subscript):
            target = node.value
        if target is None or not isinstance(getattr(target, "ctx", None),
                                            ast.Load):
            return None
        if isinstance(target, ast.Attribute) and \
                target.attr in self.WATCHED_ATTRS:
            key = _dotted_name(target)
            if key is not None:
                return key, target
        if isinstance(target, ast.Name) and target.id in aliases:
            return target.id, target
        return None


# ----------------------------------------------------------------------
# S1 -- __slots__ coverage in hot modules
# ----------------------------------------------------------------------
class RuleS1Slots(Rule):
    """Classes in the hot modules must declare ``__slots__``.

    Scope: ``sim/``, ``storage/``, ``replication/`` and
    ``core/routing.py`` -- the modules on the per-event/per-transaction
    path.  Exempt automatically: dataclasses (pre-3.10 dataclasses cannot
    carry slots; the repo's hot per-record types that need both are plain
    ``__slots__`` classes already), enums, exceptions, NamedTuples,
    Protocols, and the explicit control-plane allowlist below -- classes
    instantiated once per run/replica whose instance count can never grow
    with event volume.
    """

    rule_id = "S1"
    title = "missing __slots__ on hot-path class"

    HOT_PREFIXES = ("sim/", "storage/", "replication/")
    HOT_FILES = ("core/routing.py",)

    #: One-per-run / one-per-replica control-plane classes: allocation count
    #: is bounded by cluster size, not by event volume, so ``__dict__``
    #: flexibility (tests monkeypatch these) outweighs slot savings.
    CONTROL_PLANE_ALLOWLIST = frozenset({
        "Simulator", "EventQueue", "MetricsCollector", "ClusterMonitor",
        "ClientPopulation", "Catalog", "DatabaseEngine",
        "QueryPlanner", "Relation", "Schema", "ExecutionPlan", "PlanNode",
        "Certifier", "Replica", "ReplicatedCluster", "BufferPool",
    })

    EXEMPT_BASES = frozenset({
        "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Exception",
        "BaseException", "ValueError", "RuntimeError", "KeyError",
        "TypeError", "NamedTuple", "Protocol", "TypedDict", "ABC",
    })

    def __init__(self, allowlist: Optional[FrozenSet[str]] = None) -> None:
        self.allowlist = allowlist if allowlist is not None \
            else self.CONTROL_PLANE_ALLOWLIST

    def in_scope(self, relpath: str) -> bool:
        return relpath.startswith(self.HOT_PREFIXES) or \
            relpath in self.HOT_FILES

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not self.in_scope(module.relpath):
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node):
                continue
            if not self._has_slots(node):
                findings.append(self.finding(
                    module, node,
                    "hot-module class `%s` has no __slots__ (add them, or "
                    "add the class to the S1 control-plane allowlist with a "
                    "rationale)" % node.name))
        return iter(findings)

    def _exempt(self, node: ast.ClassDef) -> bool:
        if node.name in self.allowlist:
            return True
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted_name(target)
            if name is not None and name.split(".")[-1] == "dataclass":
                return True
        for base in node.bases:
            name = _dotted_name(base)
            if name is not None and name.split(".")[-1] in self.EXEMPT_BASES:
                return True
        return False

    def _has_slots(self, node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == "__slots__":
                return True
        return False


# ----------------------------------------------------------------------
# F1 -- float equality in invariant/golden comparison modules
# ----------------------------------------------------------------------
class RuleF1FloatEquality(Rule):
    """No ``==``/``!=`` on float-valued expressions in audit helpers.

    Scope: ``net/invariants.py`` and any module whose filename mentions
    ``golden`` -- the code that *decides* whether two runs or two states
    match must never let rounding masquerade as a violation (or hide one).
    Flagged operands: float literals, division results, ``float(...)``
    calls and ``sum(...)`` over floats.  Integer comparisons (versions,
    counters) are the normal case and stay untouched.
    """

    rule_id = "F1"
    title = "float equality comparison"

    SCOPED_FILES = ("net/invariants.py",)

    def in_scope(self, relpath: str) -> bool:
        if relpath in self.SCOPED_FILES:
            return True
        base = relpath.rsplit("/", 1)[-1]
        return "golden" in base

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not self.in_scope(module.relpath):
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._floatish(left) or self._floatish(right):
                    findings.append(self.finding(
                        module, node,
                        "float equality comparison; use an explicit "
                        "tolerance (math.isclose or an epsilon)"))
                    break
        return iter(findings)

    def _floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "float":
            return True
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left) or self._floatish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand)
        return False


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
ALL_RULES: Tuple[type, ...] = (
    RuleD1WallClock,
    RuleD2UnseededRng,
    RuleD3SetIteration,
    RuleO1ObsGuard,
    RuleS1Slots,
    RuleF1FloatEquality,
)

RULE_DOCS: Dict[str, str] = {
    cls.rule_id: cls.title for cls in ALL_RULES
}


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the default rule set (optionally restricted by id)."""
    rules: List[Rule] = []
    wanted = set(only) if only is not None else None
    for cls in ALL_RULES:
        if wanted is None or cls.rule_id in wanted:
            rules.append(cls())
    if wanted is not None:
        unknown = wanted - {cls.rule_id for cls in ALL_RULES}
        if unknown:
            raise ValueError("unknown rule id(s): %s" % ", ".join(sorted(unknown)))
    return rules
