"""Declared protocol contracts and the P1 conformance rule.

The repo's two load-bearing protocols have, until now, been enforced only
by the seeded golden runs: the ``TransactionContext`` lifecycle
(``ADMITTED -> CPU -> READS -> CERTIFYING -> DONE``, with the certification
retry edge back to CPU and the read-only shortcut to DONE) and the
certifier's :class:`LagSubscriptionIndex` arm/disarm pairing (a subscribed
replica must be unsubscribed when it leaves service; a consumer of
``crossed`` pops disarms entries, so the program must re-arm via
``advanced``).  This module *declares* both as data -- transition tables
and pairing requirements -- and the P1 rule model-checks the source
against the declaration: every ``<var>.state = TransactionContext.<S>``
assignment is checked against the transition table from the method's
declared entry states (or from an earlier assignment in the same method),
and the subscription call sites are checked for pairing.  A transition the
table does not allow, a state assignment in a method the table does not
know, or an unpaired arm is a finding with file:line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.core import Finding
from repro.analysis.callgraph import FunctionInfo, Program
from repro.analysis.dataflow import ProgramRule
from repro.analysis.rules import _dotted_name

#: Sentinel entry state for constructors: the only legal assignment is the
#: machine's initial state.
INIT = "__init__"


@dataclass(frozen=True)
class StateMachineContract:
    """A declared transition system over a class's ``state`` attribute."""

    name: str
    class_name: str
    states: Tuple[str, ...]
    initial: str
    #: Allowed ``(from, to)`` edges.  ``(INIT, initial)`` is implied.
    transitions: FrozenSet[Tuple[str, str]]
    #: Method qualname -> states the tracked object may be in on entry.
    #: ``frozenset({INIT})`` marks constructors.  A ``state`` assignment in
    #: a method not listed here is itself a finding: the table is the
    #: single source of truth for who may drive the machine.
    entry_states: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def allows(self, prior: str, new: str) -> bool:
        if prior == INIT:
            return new == self.initial
        return (prior, new) in self.transitions


@dataclass(frozen=True)
class PairingContract:
    """Arm/disarm pairing over an index object's method calls.

    ``receiver_hints`` names the attribute components that identify the
    index (``self.certifier.subscriptions...``, or a local aliased from
    such a chain); only calls whose receiver chain mentions one are
    in scope.  ``module_pairs`` lists (arm, disarm) methods that must both
    appear in any module using the arm; ``program_pairs`` lists (consume,
    re-arm) methods where the re-arm may live anywhere in the program.
    """

    name: str
    receiver_hints: Tuple[str, ...]
    module_pairs: Tuple[Tuple[str, str], ...]
    program_pairs: Tuple[Tuple[str, str], ...]

    @property
    def method_names(self) -> FrozenSet[str]:
        names = set()
        for a, b in self.module_pairs + self.program_pairs:
            names.add(a)
            names.add(b)
        return frozenset(names)


# ----------------------------------------------------------------------
# The repo's declared contracts
# ----------------------------------------------------------------------
TXN_LIFECYCLE = StateMachineContract(
    name="txn-lifecycle",
    class_name="TransactionContext",
    states=("ADMITTED", "CPU", "READS", "CERTIFYING", "DONE"),
    initial="ADMITTED",
    transitions=frozenset({
        ("ADMITTED", "CPU"),        # admission slot granted, pipeline starts
        ("CERTIFYING", "CPU"),      # certification abort -> immediate retry
        ("CPU", "READS"),           # execution done, reads begin
        ("READS", "CERTIFYING"),    # update txn heads to the certifier
        ("READS", "DONE"),          # read-only commit from the snapshot
        ("CERTIFYING", "DONE"),     # certification outcome delivered
    }),
    entry_states={
        "TransactionContext.__init__": frozenset({INIT}),
        "TransactionContext.after_cpu": frozenset({"CPU"}),
        "TransactionContext.after_reads": frozenset({"READS"}),
        "Replica._start": frozenset({"ADMITTED", "CERTIFYING"}),
        "Replica._finish": frozenset({"READS", "CERTIFYING"}),
    },
)

LAG_SUBSCRIPTION = PairingContract(
    name="lag-subscription",
    receiver_hints=("subscriptions",),
    module_pairs=(("subscribe", "unsubscribe"),),
    program_pairs=(("crossed", "advanced"),),
)

# ----------------------------------------------------------------------
# P1 -- protocol conformance
# ----------------------------------------------------------------------
class RuleP1ProtocolConformance(ProgramRule):
    """Check state assignments and arm/disarm pairing against the tables."""

    rule_id = "P1"
    title = "protocol contract violation"

    def __init__(self,
                 state_machines: Tuple[StateMachineContract, ...] = (
                     TXN_LIFECYCLE,),
                 pairings: Tuple[PairingContract, ...] = (
                     LAG_SUBSCRIPTION,)) -> None:
        self.state_machines = state_machines
        self.pairings = pairings

    def analyze(self, program: Program
                ) -> Tuple[List[Finding], List[Finding]]:
        findings: List[Finding] = []
        for contract in self.state_machines:
            self._check_state_machine(program, contract, findings)
        for contract in self.pairings:
            self._check_pairing(program, contract, findings)
        return findings, []

    # -- state machines -------------------------------------------------
    def _check_state_machine(self, program: Program,
                             contract: StateMachineContract,
                             findings: List[Finding]) -> None:
        for func in program.functions:
            if contract.class_name not in func.module.text:
                continue    # fast path: class never referenced
            self._check_function_states(func, contract, findings)

    def _check_function_states(self, func: FunctionInfo,
                               contract: StateMachineContract,
                               findings: List[Finding]) -> None:
        entry = contract.entry_states.get(func.qualname)
        declared = entry is not None
        # var -> set of possible current states (None = take entry states).
        tracked: Dict[str, Set[str]] = {}

        def scan(body: List[ast.stmt], state: Dict[str, Set[str]]
                 ) -> Dict[str, Set[str]]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                assigned = self._state_assignment(stmt, contract)
                if assigned is not None:
                    var, new_state, node = assigned
                    prior = state.get(var)
                    if prior is None:
                        prior = set(entry) if declared else None
                    if not declared:
                        findings.append(self._finding(
                            func, node,
                            "`%s.state = %s.%s` in `%s`, which the %s "
                            "contract's entry-state table does not declare"
                            % (var, contract.class_name, new_state,
                               func.qualname, contract.name)))
                    elif prior is not None:
                        for p in sorted(prior):
                            if not contract.allows(p, new_state):
                                findings.append(self._finding(
                                    func, node,
                                    "illegal %s transition %s -> %s (in "
                                    "`%s`; declared entry states: %s)"
                                    % (contract.name, p, new_state,
                                       func.qualname,
                                       ", ".join(sorted(
                                           s for s in (entry or ()))))))
                    state = dict(state)
                    state[var] = {new_state}
                    continue
                if isinstance(stmt, ast.If):
                    after_body = scan(list(stmt.body), dict(state))
                    after_else = scan(list(stmt.orelse), dict(state))
                    state = _join(after_body, after_else)
                    continue
                if isinstance(stmt, (ast.For, ast.While)):
                    state = _join(state, scan(list(stmt.body), dict(state)))
                    state = _join(state, scan(list(stmt.orelse),
                                              dict(state)))
                    continue
                if isinstance(stmt, ast.Try):
                    state = scan(list(stmt.body), dict(state))
                    for handler in stmt.handlers:
                        state = _join(state, scan(list(handler.body),
                                                  dict(state)))
                    state = scan(list(stmt.orelse), dict(state))
                    state = scan(list(stmt.finalbody), dict(state))
                    continue
                if isinstance(stmt, ast.With):
                    state = scan(list(stmt.body), dict(state))
                    continue
            return state

        scan(list(func.node.body), tracked)

    def _state_assignment(self, stmt: ast.stmt,
                          contract: StateMachineContract
                          ) -> Optional[Tuple[str, str, ast.stmt]]:
        """Match ``<var>.state = <ClassName>.<STATE>``."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Attribute) or target.attr != "state" \
                or not isinstance(target.value, ast.Name):
            return None
        value = stmt.value
        if not isinstance(value, ast.Attribute):
            return None
        base = _dotted_name(value.value)
        if base is None or base.split(".")[-1] != contract.class_name:
            return None
        if value.attr not in contract.states:
            return None
        return target.value.id, value.attr, stmt

    # -- pairing --------------------------------------------------------
    def _check_pairing(self, program: Program, contract: PairingContract,
                       findings: List[Finding]) -> None:
        # module relpath -> {method -> first call site}
        per_module: Dict[str, Dict[str, List]] = {}
        program_calls: Set[str] = set()
        for site in program.calls:
            if site.callee_name not in contract.method_names:
                continue
            if not site.is_attribute:
                continue
            if not self._receiver_in_scope(site, contract):
                continue
            per_module.setdefault(site.module.relpath, {}).setdefault(
                site.callee_name, []).append(site)
            program_calls.add(site.callee_name)
        for relpath in sorted(per_module):
            calls = per_module[relpath]
            for arm, disarm in contract.module_pairs:
                if arm in calls and disarm not in calls:
                    site = calls[arm][0]
                    findings.append(Finding(
                        rule=self.rule_id,
                        path=site.module.relpath,
                        line=site.node.lineno,
                        col=site.node.col_offset + 1,
                        message="`%s()` on the %s index without a matching "
                                "`%s()` in this module (unpaired arm)"
                                % (arm, contract.name, disarm)))
            for consume, rearm in contract.program_pairs:
                if consume in calls and rearm not in program_calls:
                    site = calls[consume][0]
                    findings.append(Finding(
                        rule=self.rule_id,
                        path=site.module.relpath,
                        line=site.node.lineno,
                        col=site.node.col_offset + 1,
                        message="`%s()` disarms %s entries but nothing in "
                                "the program re-arms via `%s()`"
                                % (consume, contract.name, rearm)))

    def _receiver_in_scope(self, site, contract: PairingContract) -> bool:
        receiver = site.receiver
        if receiver is not None:
            parts = receiver.split(".")
            if any(hint in parts for hint in contract.receiver_hints):
                return True
            # A local alias of a hinted chain:
            # `index = self.certifier.subscriptions`.
            if site.caller is not None and len(parts) == 1:
                for value in _alias_sources(site.caller, parts[0]):
                    dotted = _dotted_name(value)
                    if dotted is not None and any(
                            hint in dotted.split(".")
                            for hint in contract.receiver_hints):
                        return True
        return False

    def _finding(self, func: FunctionInfo, node: ast.stmt,
                 message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=func.module.relpath,
            line=node.lineno,
            col=node.col_offset + 1,
            message=message,
        )


def _join(a: Dict[str, Set[str]], b: Dict[str, Set[str]]
          ) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for key in set(a) | set(b):
        out[key] = a.get(key, set()) | b.get(key, set())
    return out


def _alias_sources(func: FunctionInfo, name: str) -> List[ast.expr]:
    out: List[ast.expr] = []
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    out.append(node.value)
    return out
