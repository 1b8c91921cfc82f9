"""Whole-repo call graph over :mod:`repro.analysis.pysource` modules.

Every function and method in the tree becomes a node (``FunctionInfo``)
keyed by a *function id* — ``module:qualname`` such as
``repro.sgx.cpu:Core.read`` or
``repro.perf.fingerprint:nested_pair.<locals>.poke``.  Call edges come
in two precision tiers:

strong edges
    The resolver is confident about the unique target: a bare name
    bound lexically (a nested function, a module-level function or
    class in the same module), an import-resolved dotted call
    (``isa.eenter(…)`` → ``repro.sgx.isa:eenter``), or a
    ``self.method(…)`` call against a method the enclosing class
    defines.  A function that calls itself has a strong edge to
    itself.  Summary-based dataflow (FLOW001/FLOW002) only trusts
    strong edges, and :meth:`CallGraph.solve` re-analyses a function
    only when a strong callee's summary changed.

weak edges
    Over-approximations used for reachability closures (FLOW003 and
    FLOW004): an attribute call ``obj.m(…)`` whose receiver cannot be
    typed is matched by *name* against every method ``m`` any class in
    the tree defines, and a bare-name reference to a known function in
    non-call position (address taken, e.g. a dict-dispatch table entry)
    is a weak edge too.

The soundness boundary — what neither tier sees — is documented in
DESIGN.md §11: ``getattr`` dispatch, calls through instance attributes
that alias bound methods (``self._memside_read = machine.memside_read``),
and values constructed outside the analyzed tree.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisError
from repro.analysis.pysource import Module
from repro.analysis.simlint import _ImportTable

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Passes :meth:`CallGraph.solve` may take.  An analysis that is a pure
#: function of its strong callees' summaries needs one pass per
#: function on the longest chain of callers defined before their
#: callees, plus one; the real tree converges in five.
_MAX_PASSES = 1000


@dataclass
class FunctionInfo:
    """One function/method node of the call graph."""

    fid: str                     # "module:qualname"
    module: Module
    node: ast.AST                # FunctionDef | AsyncFunctionDef
    qualname: str                # "Core.read", "f.<locals>.g", …
    class_name: str | None       # enclosing class, for self.-resolution
    params: tuple = ()           # positional-only, regular, keyword-only
    posonly: int = 0             # leading params bound by position only
    positional: int = 0          # leading params a position can bind


@dataclass
class CallGraph:
    """Nodes, tiered edges, and per-module resolution tables."""

    modules: dict = field(default_factory=dict)    # name -> Module
    functions: dict = field(default_factory=dict)  # fid -> FunctionInfo
    strong: dict = field(default_factory=dict)     # fid -> set[fid]
    weak: dict = field(default_factory=dict)       # fid -> set[fid]
    #: method name -> set[fid] over every class-level def in the tree.
    methods: dict = field(default_factory=dict)
    #: module name -> {bare name -> fid} for module-level functions.
    module_funcs: dict = field(default_factory=dict)
    #: module name -> {class name -> {method name -> fid}}.
    classes: dict = field(default_factory=dict)
    #: module name -> _ImportTable.
    imports: dict = field(default_factory=dict)

    def stats(self) -> dict:
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_edges": sum(len(v) for v in self.strong.values()),
            "weak_edges": sum(len(v) for v in self.weak.values()),
        }

    # -- reachability (FLOW003, FLOW004) -----------------------------------
    def reach(self, roots: list) -> dict:
        """Breadth-first closure of ``roots`` over strong *and* weak
        edges: ``fid -> parent fid`` (``None`` for a root) for every
        reached function.  Successors are visited in sorted order, so
        the parent map, and every witness built from it, is
        deterministic."""
        parent: dict = {fid: None for fid in roots}
        queue = deque(roots)
        while queue:
            fid = queue.popleft()
            for succ in sorted(self.strong.get(fid, ())
                               | self.weak.get(fid, ())):
                if succ not in parent:
                    parent[succ] = fid
                    queue.append(succ)
        return parent

    def witness(self, parent: dict, fid: str) -> str:
        """The ``root → … → fid`` qualname chain through ``parent``."""
        chain: list = []
        cursor = fid
        while cursor is not None:
            chain.append(self.functions[cursor].qualname)
            cursor = parent[cursor]
        return " → ".join(reversed(chain))

    # -- summaries (FLOW001, FLOW002) ------------------------------------------
    def solve(self, analyse, initial) -> dict:
        """Every function's summary at the fixpoint of ``analyse``.

        ``analyse(info, summaries)`` returns ``info``'s summary and must
        be a pure function of the summaries of ``info``'s strong
        callees; ``initial()`` is the summary before any analysis.  Each
        pass walks ``functions`` in order and re-analyses only the
        functions one of whose strong callees' summaries changed since
        their last analysis, so the result is what analysing every
        function on every pass would reach.  An analysis that has not
        converged after ``_MAX_PASSES`` raises :class:`AnalysisError`.
        """
        callers: dict = {fid: [] for fid in self.functions}
        for fid, callees in self.strong.items():
            for callee in callees:
                callers[callee].append(fid)
        summaries = {fid: initial() for fid in self.functions}
        dirty = set(self.functions)
        for _ in range(_MAX_PASSES):
            if not dirty:
                return summaries
            for fid, info in self.functions.items():
                if fid not in dirty:
                    continue
                dirty.discard(fid)
                summary = analyse(info, summaries)
                if summary != summaries[fid]:
                    dirty.update(callers[fid])
                summaries[fid] = summary
        raise AnalysisError(
            f"call-graph summaries did not converge in {_MAX_PASSES} "
            f"passes; still changing: {', '.join(sorted(dirty)[:5])}")

    # -- resolution ---------------------------------------------------------
    def in_module(self, name: str):
        """Every FunctionInfo defined in module ``name``."""
        prefix = name + ":"
        return [info for fid, info in self.functions.items()
                if fid.startswith(prefix)]

    def resolve_name(self, caller: FunctionInfo, name: str) -> str | None:
        """A bare ``Name`` in ``caller``: nested def, module-level
        function/class, or an import alias of one."""
        module = caller.module.name
        # Lexically enclosing scopes, innermost first: the caller's own
        # nested defs, then each ancestor function's, then module level.
        scope = caller.qualname
        while scope:
            fid = f"{module}:{scope}.<locals>.{name}"
            if fid in self.functions:
                return fid
            scope = scope.rsplit(".<locals>.", 1)[0] \
                if ".<locals>." in scope else ""
        local = self.module_funcs.get(module, {}).get(name)
        if local is not None:
            return local
        ctor = self.classes.get(module, {}).get(name, {}).get("__init__")
        if ctor is not None:
            return ctor
        dotted = self.imports[module].aliases.get(name)
        if dotted is not None:
            return self._resolve_dotted(dotted)
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        """``repro.sgx.isa.eenter`` → its fid, trying successively
        shorter module prefixes (the remainder may be ``Class.method``)."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                hit = self.module_funcs.get(module, {}).get(rest[0])
                if hit is not None:
                    return hit
                return self.classes.get(module, {}) \
                    .get(rest[0], {}).get("__init__")
            if len(rest) == 2:
                return self.classes.get(module, {}) \
                    .get(rest[0], {}).get(rest[1])
            return None
        return None

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> tuple:
        """→ ``(strong_target | None, weak_targets: set)``."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(caller, func.id), set()
        if not isinstance(func, ast.Attribute):
            return None, set()
        attr = func.attr
        # self.method(...) against the enclosing class.
        if isinstance(func.value, ast.Name) and func.value.id == "self" \
                and caller.class_name is not None:
            own = self.classes.get(caller.module.name, {}) \
                .get(caller.class_name, {}).get(attr)
            if own is not None:
                return own, set()
        # Import-resolved dotted call: isa.eenter, wallclock.monotonic_s.
        dotted = self.imports[caller.module.name].resolve(func)
        if dotted is not None:
            hit = self._resolve_dotted(dotted)
            if hit is not None:
                return hit, set()
        # Untyped receiver: every method of that name, by construction
        # an over-approximation (weak tier).
        return None, set(self.methods.get(attr, ()))


def _collect_functions(graph: CallGraph, module: Module) -> None:
    module_funcs: dict = {}
    classes: dict = {}

    def add(node, qualname, class_name):
        args = node.args
        positional = args.posonlyargs + args.args
        info = FunctionInfo(
            fid=f"{module.name}:{qualname}", module=module, node=node,
            qualname=qualname, class_name=class_name,
            params=tuple(a.arg for a in positional + args.kwonlyargs),
            posonly=len(args.posonlyargs), positional=len(positional))
        graph.functions[info.fid] = info
        return info

    def walk(body, prefix, class_name):
        for node in body:
            if isinstance(node, _FUNC_NODES):
                qual = prefix + node.name
                info = add(node, qual, class_name)
                if not prefix:
                    module_funcs[node.name] = info.fid
                elif prefix.endswith(".") and class_name is not None \
                        and prefix == class_name + ".":
                    classes.setdefault(class_name, {})[node.name] = info.fid
                    graph.methods.setdefault(node.name, set()).add(info.fid)
                walk(node.body, qual + ".<locals>.", class_name)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, node.name + ".", node.name)

    walk(module.tree.body, "", None)
    graph.module_funcs[module.name] = module_funcs
    graph.classes[module.name] = classes


class _EdgeVisitor(ast.NodeVisitor):
    """Collect call and address-taken edges for one function, without
    descending into nested defs (they are their own nodes)."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.strong: set = set()
        self.weak: set = set()

    def visit_FunctionDef(self, node) -> None:
        if node is not self.info.node:
            # Defining a nested function is an implicit strong edge
            # (conservative: the parent usually calls or registers it).
            self.strong.add(f"{self.info.module.name}:"
                            f"{self.info.qualname}.<locals>.{node.name}")
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        strong, weak = self.graph.resolve_call(self.info, node)
        if strong is not None:
            self.strong.add(strong)
        else:
            self.weak |= weak
        # The receiver runs too: ``f().m()`` calls ``f``.  A plain
        # dotted receiver (``mod.f()``, ``self.x.m()``) takes no address.
        receiver = node.func
        while isinstance(receiver, ast.Attribute):
            receiver = receiver.value
        if not isinstance(receiver, ast.Name):
            self.visit(receiver)
        # Arguments may take addresses.
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            target = self.graph.resolve_name(self.info, node.id)
            if target is not None and target != self.info.fid:
                self.weak.add(target)


def build_graph(modules) -> CallGraph:
    """Two passes: collect every def, then resolve every call site."""
    graph = CallGraph()
    modules = list(modules)
    for module in modules:
        graph.modules[module.name] = module
        graph.imports[module.name] = _ImportTable(module.tree)
    for module in modules:
        _collect_functions(graph, module)
    for info in graph.functions.values():
        visitor = _EdgeVisitor(graph, info)
        visitor.visit(info.node)
        strong = {fid for fid in visitor.strong if fid in graph.functions}
        weak = {fid for fid in visitor.weak
                if fid in graph.functions} - strong
        graph.strong[info.fid] = strong
        graph.weak[info.fid] = weak
    return graph
