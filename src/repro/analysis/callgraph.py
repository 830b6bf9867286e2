"""Whole-program model for simlint's interprocedural rules.

The per-function rules (D1..F1) never look past a ``def``; the v2 rules do.
This module builds the shared substrate: every function/method in the
analyzed module set, every call expression attributed to its enclosing
function, and name-based call-site resolution.

Resolution is deliberately *conservative and name-based*: a method call
``x.helper(...)`` is taken to target every method named ``helper`` in the
program, and a bare call ``helper(...)`` targets the module-level function
of that name in the same module.  That over-approximation is the right
direction for the rules built on top of it -- O2 waives a per-function
finding only when **every** candidate call site is guarded, and R1 accepts a
seed parameter only when **every** candidate call site passes a
seed-derived argument -- so an imprecise edge can only make the analysis
stricter, never let a violation through.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import ModuleSource


class FunctionInfo:
    """One function or method definition in the program."""

    __slots__ = ("module", "node", "name", "qualname", "class_name", "params")

    def __init__(self, module: ModuleSource, node: ast.AST, name: str,
                 qualname: str, class_name: Optional[str],
                 params: Tuple[str, ...]) -> None:
        self.module = module
        self.node = node
        self.name = name
        #: Dotted definition path inside the module, e.g. ``Replica._start``.
        self.qualname = qualname
        #: Enclosing class name for methods, None for plain functions.
        self.class_name = class_name
        #: Positional parameter names, including ``self`` for methods.
        self.params = params

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FunctionInfo(%s:%s)" % (self.module.relpath, self.qualname)


class CallSite:
    """One call expression, attributed to its enclosing function."""

    __slots__ = ("module", "caller", "node", "callee_name", "receiver",
                 "is_attribute")

    def __init__(self, module: ModuleSource, caller: Optional[FunctionInfo],
                 node: ast.Call, callee_name: str, receiver: Optional[str],
                 is_attribute: bool) -> None:
        self.module = module
        #: Function the call appears in (None for module-level code).
        self.caller = caller
        self.node = node
        #: Terminal name: ``m`` for both ``x.m(...)`` and ``m(...)``.
        self.callee_name = callee_name
        #: Dotted receiver chain for attribute calls (``self.certifier``
        #: for ``self.certifier.subscribe(...)``), else None.
        self.receiver = receiver
        self.is_attribute = is_attribute

    def argument_for(self, func: FunctionInfo,
                     index: int) -> Optional[ast.expr]:
        """The argument expression bound to ``func.params[index]`` here.

        Accounts for the implicit ``self`` binding: an attribute-style call
        to a method skips the first parameter.  Returns None when the
        parameter is not bound positionally or by keyword (defaulted).
        """
        if index < 0 or index >= len(func.params):
            return None
        name = func.params[index]
        for keyword in self.node.keywords:
            if keyword.arg == name:
                return keyword.value
        offset = 1 if (func.is_method and self.is_attribute) else 0
        positional = index - offset
        if 0 <= positional < len(self.node.args):
            arg = self.node.args[positional]
            if isinstance(arg, ast.Starred):
                return None
            return arg
        return None


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names.extend(a.arg for a in args.args)
    return tuple(names)


class Program:
    """The analyzed module set plus its function and call-site indices."""

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.modules: List[ModuleSource] = list(modules)
        self.functions: List[FunctionInfo] = []
        self.calls: List[CallSite] = []
        #: method name -> every method of that name, program-wide.
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: (module relpath, name) -> module-level function.
        self.module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        #: terminal callee name -> every call site using it.
        self.calls_by_name: Dict[str, List[CallSite]] = {}
        #: function -> the call sites inside its body (excluding bodies of
        #: functions nested within it, which index under their own entry).
        self.calls_in: Dict[FunctionInfo, List[CallSite]] = {}
        #: (class name, attribute) -> expressions assigned to
        #: ``self.<attribute>`` anywhere in that class (R1 provenance).
        self.attr_assignments: Dict[Tuple[str, str], List[ast.expr]] = {}
        for module in self.modules:
            self._index_module(module)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleSource) -> None:
        self._index_body(module, module.tree.body, prefix="",
                         class_name=None, caller=None)

    def _index_body(self, module: ModuleSource, body: Sequence[ast.stmt],
                    prefix: str, class_name: Optional[str],
                    caller: Optional[FunctionInfo]) -> None:
        for stmt in body:
            self._index_statement(module, stmt, prefix, class_name, caller)

    def _index_statement(self, module: ModuleSource, stmt: ast.stmt,
                         prefix: str, class_name: Optional[str],
                         caller: Optional[FunctionInfo]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + stmt.name
            info = FunctionInfo(module, stmt, stmt.name, qualname,
                                class_name, _param_names(stmt))
            self.functions.append(info)
            self.calls_in[info] = []
            if class_name is not None:
                self.methods_by_name.setdefault(stmt.name, []).append(info)
            else:
                self.module_functions[(module.relpath, stmt.name)] = info
            # Decorators/defaults evaluate in the enclosing scope.
            for deco in stmt.decorator_list:
                self._index_expression(module, deco, caller)
            # The body belongs to the new function (methods of a class
            # nested inside it keep their own entries).
            self._index_body(module, stmt.body, qualname + ".",
                             class_name=None, caller=info)
            return
        if isinstance(stmt, ast.ClassDef):
            qualname = prefix + stmt.name
            for deco in stmt.decorator_list:
                self._index_expression(module, deco, caller)
            for base in stmt.bases:
                self._index_expression(module, base, caller)
            self._index_body(module, stmt.body, qualname + ".",
                             class_name=stmt.name, caller=caller)
            return
        # `self.<attr> = value` assignments feed R1's attribute provenance.
        if class_name is None and caller is not None and \
                caller.is_method and isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    key = (caller.class_name or "", target.attr)
                    self.attr_assignments.setdefault(key, []).append(
                        stmt.value)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                self._index_statement(module, node, prefix, class_name,
                                      caller)
            else:
                self._index_expression(module, node, caller)

    def _index_expression(self, module: ModuleSource, node: ast.AST,
                          caller: Optional[FunctionInfo]) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Attribute):
                site = CallSite(module, caller, child, func.attr,
                                _dotted(func.value), is_attribute=True)
            elif isinstance(func, ast.Name):
                site = CallSite(module, caller, child, func.id, None,
                                is_attribute=False)
            else:
                continue
            self.calls.append(site)
            self.calls_by_name.setdefault(site.callee_name, []).append(site)
            if caller is not None:
                self.calls_in[caller].append(site)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def call_sites_of(self, func: FunctionInfo) -> List[CallSite]:
        """Every call site that may target ``func`` (name-based).

        Methods match any attribute call of the same name anywhere in the
        program; module-level functions match bare-name calls in their own
        module and ``mod.f(...)`` attribute calls elsewhere.  The function's
        own ``def`` never matches itself.
        """
        sites = []
        for site in self.calls_by_name.get(func.name, ()):
            if func.is_method:
                if site.is_attribute:
                    sites.append(site)
            else:
                if not site.is_attribute and site.module is func.module:
                    sites.append(site)
                elif site.is_attribute:
                    # `module_alias.f(...)` from another module.
                    sites.append(site)
        return sites


def build_program(modules: Sequence[ModuleSource]) -> Program:
    """Convenience constructor mirroring :func:`analyze_modules`."""
    return Program(modules)
