"""FLOW004 — Tcs/Secs lifecycle mutation outside the ISA allowlist.

Only the ISA microcode may assign the enclave lifecycle fields
(``state``, ``saved_context``, ``aex_count``): a mutation anywhere else
changes the enclave state machine behind the transition log's and the
orderliness automaton's back.  Every plain, augmented or annotated
assignment to one of them — in any function of the tree, or in module-
or class-body code — is an offender unless its module is in
``FlowConfig.lifecycle_allowed``.  When the offending function is
reachable from the lifecycle drivers (the ISA leaves or the OS driver),
the finding carries the witness call chain showing how driver code
reaches the mutation, so a write smuggled into a helper is still
attributed to its caller.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph

RULE = "FLOW004"

#: Tcs/Secs lifecycle fields only the ISA leaves may assign.
_LIFECYCLE_FIELDS = frozenset({"state", "saved_context", "aex_count"})


def _mutations(root: ast.AST) -> list:
    """(line, field) for every lifecycle-field attribute assignment in
    ``root``'s own code (nested defs are their own graph nodes)."""
    hits: list = []

    def scan(node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            targets: list = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)) \
                    and child.value is not None:   # not a bare annotation
                targets = [child.target]
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr in _LIFECYCLE_FIELDS:
                    hits.append((child.lineno, target.attr))
            scan(child)

    scan(root)
    return hits


def check_lifecycle_escape(graph: CallGraph, config) -> list:
    """Offenders anywhere, witness chains from the lifecycle drivers."""
    roots = [info.fid for module in config.lifecycle_entry_modules
             for info in graph.in_module(module)]
    parent = graph.reach(roots)
    findings: list = []

    def report(module, line, field_name, symbol, detail) -> None:
        if not module.suppressed(line, RULE):
            findings.append(Finding(
                path=module.path, line=line, rule=RULE,
                message=(f"enclave lifecycle field .{field_name} mutated "
                         f"outside the ISA allowlist: {detail}"),
                symbol=symbol))

    for fid in sorted(graph.functions):
        info = graph.functions[fid]
        if info.module.name in config.lifecycle_allowed:
            continue
        for line, field_name in _mutations(info.node):
            if fid in parent:
                route = graph.witness(parent, fid)
                detail = (f"reached from lifecycle drivers via {route} → "
                          f".{field_name} assignment at line {line}")
            else:
                detail = (f"{info.qualname} → .{field_name} assignment "
                          "(not reachable from the ISA/driver roots)")
            report(info.module, line, field_name, info.qualname, detail)
    for module in graph.modules.values():
        if module.name in config.lifecycle_allowed:
            continue
        for line, field_name in _mutations(module.tree):
            report(module, line, field_name, "<module>",
                   f"<module> → .{field_name} assignment in module- or "
                   "class-body code")
    return sorted(set(findings))
