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
    An unresolved ``.get``/``.pop`` is a mapping lookup: its result
    carries the receiver's and the default's taint, not the lookup
    key's.  A subscript ``table[secret]`` keeps its index's taint.

Sinks
    Arguments of any ``*.ocall(name, …)`` call, after the interface
    name: the untrusted host runs the handler.  (``n_ocall`` lands in
    the *outer enclave*, a trusted sibling, and is not a sink; secret
    parameters on an outer boundary are EDL003's business.)  Payload
    arguments of ``*.log_transition(kind, …)`` and
    ``*.transitions.record(kind, …)``: transition-log payloads are
    folded into digests that leave the trust boundary in results
    documents and CI artifacts.

Within a function the environment is flow-insensitive: a name carries
the union of every value bound to it anywhere in the body (assignment,
``for``, ``with … as``, walrus and comprehension targets), so branches,
handlers and loops need no merge rules.  Each value is evaluated once,
and that evaluation checks every sink inside it.  A name bound to a
lambda also carries the lambda body's taint as what a call of the name
returns.

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
#: Unresolved method calls that look a value up: the result is a value
#: stored in the receiver (or the default), never the lookup key.
_LOOKUP_CALLS = frozenset({"get", "pop"})

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


def _sink_kind(func) -> str | None:
    """The sink a call of ``func`` is, if any."""
    attr = getattr(func, "attr", None)
    if attr == "ocall":
        return "ocall"
    if attr == "log_transition" or (
            attr == "record"
            and getattr(func.value, "attr", None) == "transitions"):
        return "transition-log"
    return None


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


#: Binding forms outside expressions: node type -> (target field,
#: value field).  ``taint_of`` binds ``NamedExpr`` targets itself.
_BINDINGS = {
    ast.Assign: ("targets", "value"),
    ast.AnnAssign: ("target", "value"),
    ast.AugAssign: ("target", "value"),
    ast.For: ("target", "iter"),
    ast.AsyncFor: ("target", "iter"),
    ast.withitem: ("optional_vars", "context_expr"),
    ast.comprehension: ("target", "iter"),
}


class _FunctionTaint:
    """One intraprocedural analysis with call-graph-resolved summaries."""

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: dict) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.env: dict = {}
        self.lambdas: dict = {}            # ast.Lambda -> its body's taint
        self.callables: dict = {}          # name -> taint a call returns
        self.param_index: dict = {}        # parameter label -> index
        for index, name in enumerate(info.params):
            labels = {f"param:{info.qualname}:{name}"}
            if _is_secret_name(name):
                labels.add(f"secret-param:{name}")
            self.env[name] = frozenset(labels)
            self.param_index.update(dict.fromkeys(labels, index))
        self.summary = Summary()
        self.findings: list = []
        self.grew = True            # a binding grew during this walk

    # -- expressions ------------------------------------------------------
    def taint_of(self, node) -> Labels:
        """``node``'s taint, checking every sink inside it on the way."""
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            labels = self.taint_of(node.value)
            if _is_secret_name(node.attr):
                labels |= {f"secret-attr:{node.attr}"}
            return labels
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        if isinstance(node, ast.NamedExpr):
            labels = self.taint_of(node.value)
            self._bind(node.target, labels)
            return labels
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            labels = self.taint_of(node.value)
            self._returns(labels)    # what the caller's iteration sees
            return labels
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taint_of(child)
            elif isinstance(child, (ast.comprehension, ast.arguments)):
                self._visit(child)   # a clause's binding, lambda defaults
        if isinstance(node, ast.Lambda):
            # A lambda is a value whose body runs where it is called
            # (its sinks are still checked above).
            self.lambdas[node] = frozenset(out)
            return frozenset()
        if isinstance(node, ast.Compare):
            return frozenset()       # a boolean verdict declassifies
        return frozenset(out)

    def _taint_of_call(self, node: ast.Call) -> Labels:
        func = node.func
        # The callee expression runs first: ``f().m()`` calls ``f``.
        receiver = frozenset() if isinstance(func, ast.Name) else \
            self.taint_of(func.value if isinstance(func, ast.Attribute)
                          else func)
        values = {arg: self.taint_of(arg) for arg in
                  [*node.args, *(kw.value for kw in node.keywords)]}
        kind = _sink_kind(func)
        if kind is not None:
            # The first positional argument names the event, not data.
            fact = SinkFact(node.lineno, kind, sink_line=node.lineno)
            for labels in list(values.values())[1 if node.args else 0:]:
                self._reaches(labels, fact)
        bare = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if bare in _SANITIZER_CALLS:
            return frozenset()
        if bare in _SOURCE_CALLS:
            return frozenset({f"egetkey:{self.info.qualname}"})
        target, _weak = self.graph.resolve_call(self.info, node)
        summary = self.summaries.get(target) if target else None
        if summary is None:
            if bare in _LOOKUP_CALLS and isinstance(func, ast.Attribute):
                return receiver.union(*(values[arg]
                                        for arg in node.args[1:]))
            # Unknown callee: conservative, taint flows through (the
            # receiver of a method call counts as an argument), and a
            # name bound to a lambda returns that lambda body's taint.
            called = self.callables.get(func.id, frozenset()) \
                if isinstance(func, ast.Name) else frozenset()
            return called.union(receiver, *values.values())
        labels = set(summary.return_labels)
        for index, arg in _bind_args(self.graph.functions[target], node):
            if index in summary.param_to_return:
                labels |= values[arg]
            fact = summary.param_to_sink.get(index)
            if fact is not None:
                self._reaches(values[arg], SinkFact(
                    line=node.lineno, kind=fact.kind,
                    chain=(target,) + fact.chain,
                    sink_line=fact.sink_line))
        return frozenset(labels)

    def _reaches(self, labels: Labels, fact: SinkFact) -> None:
        """``labels`` reach the sink ``fact`` describes.  Only *secret*
        labels indict this function; a parameter label is a caller's
        report, so the fact goes into our summary, unless its chain
        re-enters this function (recursion)."""
        secret = frozenset(label for label in labels
                           if not label.startswith("param:"))
        if secret:
            self._report(secret, fact)
        if self.info.fid in fact.chain:
            return
        for label in labels:
            index = self.param_index.get(label)
            if index is not None:
                self.summary.param_to_sink.setdefault(index, fact)

    # -- statements -------------------------------------------------------
    def _bind(self, target, labels: Labels) -> None:
        """Join ``labels`` into every name ``target`` binds."""
        if isinstance(target, ast.Name):
            have = self.env.get(target.id, frozenset())
            if not labels <= have:
                self.env[target.id] = have | labels
                self.grew = True
        elif isinstance(target, (ast.Tuple, ast.List)):
            self._bind(target.elts, labels)
        elif isinstance(target, list):         # elts, or Assign.targets
            for each in target:
                self._bind(each, labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)
        else:                    # obj.attr / obj[i]: evaluate the loads
            self.taint_of(target)

    def _bind_callable(self, target, labels: Labels) -> None:
        """A call of the name(s) ``target`` binds returns ``labels``."""
        for name in target if isinstance(target, list) else [target]:
            if isinstance(name, ast.Name):
                have = self.callables.get(name.id, frozenset())
                if not labels <= have:
                    self.callables[name.id] = have | labels
                    self.grew = True

    def _returns(self, labels: Labels) -> None:
        """``labels`` leave this function as its result (``return``, or
        a value ``yield``-ed to whoever iterates it)."""
        for label in labels:
            index = self.param_index.get(label)
            if index is None:
                self.summary.return_labels |= {label}
            else:
                self.summary.param_to_return.add(index)

    def _visit(self, node) -> None:
        """Evaluate one statement (or except handler, ``with`` item,
        match case, comprehension clause): bind what it binds, and
        evaluate each of its expressions once."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return               # nested defs are their own graph nodes
        binding = _BINDINGS.get(type(node), ())
        if binding:
            target, value = (getattr(node, attr) for attr in binding)
            self._bind(target, self.taint_of(value))
            if isinstance(value, ast.Lambda):
                self._bind_callable(target, self.lambdas[value])
        elif isinstance(node, ast.Return):
            self._returns(self.taint_of(node.value))
            return
        for name, value in ast.iter_fields(node):
            if name in binding:
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.expr):
                    self.taint_of(child)
                elif isinstance(child, ast.AST):
                    self._visit(child)

    def _report(self, labels: Labels, fact: SinkFact) -> None:
        path = " → ".join(
            [self.info.qualname]
            + [self.graph.functions[fid].qualname for fid in fact.chain]
            + [f"{fact.kind} sink at line {fact.sink_line}"])
        origin = ", ".join(sorted(labels))
        message = (f"key material ({origin}) reaches a {fact.kind} "
                   f"payload outside enclave trust: {path}")
        if not self.info.module.suppressed(fact.line, RULE):
            self.findings.append(Finding(
                path=self.info.module.path, line=fact.line, rule=RULE,
                message=message, symbol=self.info.qualname))

    def run(self) -> None:
        """Walk the body until no binding grows (labels only join, over
        a finite set); the result is the last walk's, at the fixpoint."""
        while self.grew:
            self.grew = False
            self.summary = Summary()
            self.findings = []
            for stmt in self.info.node.body:
                self._visit(stmt)


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
