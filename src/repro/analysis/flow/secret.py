"""FLOW001 — whole-repo secret flow into ocall / transition-log sinks.

The nested layouts exist to keep key material inside the inner enclave.
FLOW001 checks that it never reaches the two places where data leaves
enclave trust, by learning per-function taint summaries over *every*
function in the tree and resolving helper calls through the call
graph's strong edges, so a key laundered through helpers in any module
is still caught and the finding message carries the full call path.

Sources
    ``ctx.get_key(…)`` / ``egetkey(…)`` / ``nereport_key(…)`` results,
    and names or attributes named like key material (``key``,
    ``*_key``, ``psk``, ``secret*``, ``priv*``), function parameters
    included, so taint enters helper functions.

Sanitizers
    Authenticated encryption declassifies: the result of a ``seal`` /
    ``seal_record`` / ``seal_out`` / ``encrypt`` call is ciphertext.
    Comparisons also declassify (a boolean verdict is not the key).

Sinks
    Arguments of any ``*.ocall(name, …)`` call, after the interface
    name: the untrusted host runs the handler.  (``n_ocall`` lands in
    the *outer enclave*, a trusted sibling, and is not a sink; secret
    parameters on an outer boundary are EDL003's business.)  Payload
    arguments of ``*.log_transition(kind, …)`` and
    ``*.transitions.record(kind, …)``: transition-log payloads are
    folded into digests that leave the trust boundary in results
    documents and CI artifacts.

Cross-function flow facts: which parameters reach the return value,
whether the return is tainted regardless of arguments, and which
parameters reach a sink — the last carrying the *call chain*, so a
caller several hops above the sink reports ``via helper → shipper →
sink``.  A function never lifts a sink fact whose chain already passes
through it, so under recursion a witness visits each function at most
once and the summaries converge.  Call arguments bind to the callee's
parameters by position (after the implicit ``self``/``cls`` of a
bound-method, classmethod or constructor call) and by keyword name.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph, FunctionInfo

RULE = "FLOW001"

_SECRET_NAME_RE = re.compile(
    r"(^|_)(key|keys|psk|secret\w*|priv\w*)($|_)", re.IGNORECASE)

_SOURCE_CALLS = frozenset({"get_key", "egetkey", "nereport_key"})
_SANITIZER_CALLS = frozenset({"seal", "seal_record", "encrypt",
                              "seal_out"})

Labels = frozenset  # of str — where the taint came from


def _is_secret_name(name: str) -> bool:
    return bool(_SECRET_NAME_RE.search(name))


def _implicit_receiver(callee: FunctionInfo, call: ast.Call) -> bool:
    """Does ``call`` bind ``callee``'s first parameter implicitly?

    True for a constructor call (``Cls(…)`` resolved to ``__init__``),
    a bound ``self.method(…)`` call and any classmethod call; false for
    module functions, staticmethods and unbound ``Cls.method(obj, …)``.
    """
    node = callee.node
    if callee.qualname != f"{callee.class_name}.{node.name}":
        return False            # not a method of a class body
    decorators = {d.id for d in node.decorator_list
                  if isinstance(d, ast.Name)}
    if "staticmethod" in decorators:
        return False
    if "classmethod" in decorators:
        return True
    func = call.func
    if node.name == "__init__":     # Cls(…), not Cls.__init__(obj, …)
        return not (isinstance(func, ast.Attribute)
                    and func.attr == "__init__")
    return isinstance(func, ast.Attribute) \
        and isinstance(func.value, ast.Name) and func.value.id == "self"


def _bind_args(callee: FunctionInfo, call: ast.Call):
    """(parameter index, argument expression) for each bound argument."""
    offset = 1 if _implicit_receiver(callee, call) else 0
    bound = [(offset + pos, arg) for pos, arg in enumerate(call.args)
             if offset + pos < callee.positional]
    named = callee.params[callee.posonly:]
    bound += [(callee.posonly + named.index(kw.arg), kw.value)
              for kw in call.keywords if kw.arg in named]
    return bound


@dataclass(frozen=True)
class SinkFact:
    """A parameter-to-sink fact with its interprocedural witness."""

    line: int                    # call/sink line in *this* function
    kind: str                    # "ocall" | "transition-log"
    chain: tuple = ()            # callee fids walked to the sink
    sink_line: int = 0           # line of the innermost sink


@dataclass
class Summary:
    """What one function does with taint, learned to fixpoint."""

    param_to_return: set = field(default_factory=set)
    return_labels: Labels = frozenset()
    param_to_sink: dict = field(default_factory=dict)  # index -> SinkFact

    def nontrivial(self) -> bool:
        return bool(self.param_to_return or self.return_labels
                    or self.param_to_sink)


class _FunctionTaint(ast.NodeVisitor):
    """One intraprocedural pass with call-graph-resolved summaries."""

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: dict) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.env: dict = {}
        self.param_names = list(info.params)
        self.param_labels: dict = {}
        for name in self.param_names:
            labels = {f"param:{info.qualname}:{name}"}
            if _is_secret_name(name):
                labels.add(f"secret-param:{name}")
            self.param_labels[name] = frozenset(labels)
        self.env.update(self.param_labels)
        self.summary = Summary()
        self.findings: list = []

    def _param_index(self, label: str):
        for index, pname in enumerate(self.param_names):
            if label in self.param_labels[pname]:
                return index
        return None

    # -- expression taint ---------------------------------------------------
    def taint_of(self, node) -> Labels:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            labels = set(self.taint_of(node.value))
            if _is_secret_name(node.attr):
                labels.add(f"secret-attr:{node.attr}")
            return frozenset(labels)
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        if isinstance(node, ast.Compare):
            return frozenset()      # booleans declassify
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return frozenset()      # separate nodes of the graph
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taint_of(child)
        return frozenset(out)

    def _taint_of_call(self, node: ast.Call) -> Labels:
        func = node.func
        bare = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if bare in _SANITIZER_CALLS:
            return frozenset()
        if bare in _SOURCE_CALLS:
            return frozenset({f"egetkey:{self.info.qualname}"})
        target, _weak = self.graph.resolve_call(self.info, node)
        summary = self.summaries.get(target) if target else None
        if summary is not None:
            callee = self.graph.functions[target]
            labels = set(summary.return_labels)
            for index, arg in _bind_args(callee, node):
                if index in summary.param_to_return:
                    labels |= self.taint_of(arg)
                fact = summary.param_to_sink.get(index)
                if fact is None:
                    continue
                lifted = SinkFact(
                    line=node.lineno, kind=fact.kind,
                    chain=(target,) + fact.chain,
                    sink_line=fact.sink_line)
                arg_labels = self.taint_of(arg)
                # Only *secret* labels indict this caller; a plain param
                # label means a further caller's value reaches the sink,
                # which is that caller's report — so lift the fact into
                # our own summary with the callee prepended, unless the
                # chain re-enters this function (recursion).
                secret = frozenset(label for label in arg_labels
                                   if not label.startswith("param:"))
                if secret:
                    self._report(node.lineno, secret, lifted)
                if self.info.fid in lifted.chain:
                    continue
                for label in arg_labels:
                    pindex = self._param_index(label)
                    if pindex is not None:
                        self.summary.param_to_sink.setdefault(
                            pindex, lifted)
            return frozenset(labels)
        # Unknown callee: conservative, taint flows through (the
        # receiver of a method call counts as an argument).
        out: set = set()
        for arg in list(node.args) + [k.value for k in node.keywords]:
            out |= self.taint_of(arg)
        if isinstance(func, ast.Attribute):
            out |= self.taint_of(func.value)
        return frozenset(out)

    # -- statements ---------------------------------------------------------
    def _assign(self, target, labels: Labels) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels)

    def visit_FunctionDef(self, node) -> None:
        return None             # nested defs are their own graph nodes

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        labels = self.taint_of(node.value)
        for target in node.targets:
            self._assign(target, labels)
        self._scan_expr_for_sinks(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assign(node.target, self.taint_of(node.value))
            self._scan_expr_for_sinks(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = \
                self.env.get(node.target.id, frozenset()) \
                | self.taint_of(node.value)
        self._scan_expr_for_sinks(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        for label in self.taint_of(node.value):
            index = self._param_index(label)
            if index is not None:
                self.summary.param_to_return.add(index)
            else:
                self.summary.return_labels |= {label}
        self._scan_expr_for_sinks(node.value)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._scan_expr_for_sinks(node.value)

    def generic_visit(self, node) -> None:
        if isinstance(node, (ast.If, ast.While)):
            self._scan_expr_for_sinks(node.test)
        elif isinstance(node, ast.For):
            self._scan_expr_for_sinks(node.iter)
        super().generic_visit(node)

    # -- sinks --------------------------------------------------------------
    def _scan_expr_for_sinks(self, expr) -> None:
        if expr is None:
            return
        self.taint_of(expr)     # triggers summary-based reporting
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                if node.func.attr == "ocall":
                    self._check_sink(node, "ocall")
                elif self._is_transition_sink(node.func):
                    self._check_sink(node, "transition-log")

    @staticmethod
    def _is_transition_sink(func: ast.Attribute) -> bool:
        if func.attr == "log_transition":
            return True
        return (func.attr == "record"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "transitions")

    def _check_sink(self, node: ast.Call, kind: str) -> None:
        # First positional argument names the interface/event, not data.
        payload = node.args[1:] + [k.value for k in node.keywords]
        fact = SinkFact(line=node.lineno, kind=kind,
                        sink_line=node.lineno)
        for arg in payload:
            labels = self.taint_of(arg)
            if not labels:
                continue
            secret = {label for label in labels
                      if not label.startswith("param:")}
            if secret:
                self._report(node.lineno, frozenset(secret), fact)
            for label in labels:
                index = self._param_index(label)
                if index is not None:
                    self.summary.param_to_sink.setdefault(index, fact)

    def _report(self, line: int, labels: Labels, fact: SinkFact) -> None:
        path = " → ".join(
            [self.info.qualname]
            + [self.graph.functions[fid].qualname for fid in fact.chain]
            + [f"{fact.kind} sink at line {fact.sink_line}"])
        origin = ", ".join(sorted(labels))
        message = (f"key material ({origin}) reaches a {fact.kind} "
                   f"payload outside enclave trust: {path}")
        if not self.info.module.suppressed(line, RULE):
            self.findings.append(Finding(
                path=self.info.module.path, line=line, rule=RULE,
                message=message, symbol=self.info.qualname))

    def run(self) -> None:
        # Two rounds stabilise taint through loops / use-before-def.
        for _ in range(2):
            self.findings.clear()
            for stmt in self.info.node.body:
                self.visit(stmt)


def check_secret_flow(graph: CallGraph):
    """Summaries to their fixpoint → (findings, summaries)."""
    findings: dict = {}

    def analyse(info: FunctionInfo, summaries: dict) -> Summary:
        analysis = _FunctionTaint(info, graph, summaries)
        analysis.run()
        findings[info.fid] = analysis.findings
        return analysis.summary

    summaries = graph.solve(analyse, Summary)
    return sorted({finding for found in findings.values()
                   for finding in found}), summaries
