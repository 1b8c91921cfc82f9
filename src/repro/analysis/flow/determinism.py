"""FLOW003 — determinism reachability for the fingerprint feeders.

``result_fingerprint`` / ``transition_digest`` equality across hosts is
the repo's central determinism claim (ROADMAP tier-1).  SIM002/SIM003
flag host-clock and unseeded-RNG call sites *locally*; FLOW003 asks the
transitive question: can any function reachable from the digest-feeding
modules (``FlowConfig.fingerprint_root_modules``) execute such an
effect?  Reachability walks strong *and* weak edges — for a soundness
property, the over-approximate tier is the right one — and each finding
carries the witness call chain from a root to the offending function.

Effects inside ``FlowConfig.sanctioned_effect_modules`` are exempt:
``repro.perf.wallclock`` is the blessed host-clock seam, and the
runner layer measures host time into the segregated timings document,
never into fingerprints (a declared boundary, DESIGN.md §11).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph, FunctionInfo
from repro.analysis.simlint import (LEGACY_RNG, SHARED_RNG, UNSEEDED_RNG,
                                    WALLCLOCK, nondet_effect)

RULE = "FLOW003"

#: FLOW003's wording for each effect kind simlint classifies.
_DESCRIBE = {
    WALLCLOCK: "host-clock call",
    SHARED_RNG: "unseeded RNG call",
    UNSEEDED_RNG: "unseeded RNG constructor",
    LEGACY_RNG: "legacy numpy RNG call",
}


def _nondet_effects(info: FunctionInfo, graph: CallGraph) -> list:
    """(line, description) of every host-clock / unseeded-RNG effect
    this function performs directly: SIM002/SIM003's call
    classification (:func:`repro.analysis.simlint.nondet_effect`), plus
    strong-resolved calls into sanctioned modules made *from
    unsanctioned ones* are effects at the caller (the wallclock helpers
    read host time by design)."""
    table = graph.imports[info.module.name]
    effects: list = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = table.resolve(node.func)
        if dotted is None:
            continue
        effect = nondet_effect(dotted, node)
        if effect is not None:
            effects.append(
                (node.lineno, f"{_DESCRIBE[effect]} {dotted}()"))
            continue
        # Calls into the blessed wallclock module count as effects at
        # the call site, so reachability sees through the helper.
        if dotted.rsplit(".", 1)[0] == "repro.perf.wallclock":
            effects.append(
                (node.lineno, f"wallclock helper {dotted}()"))
    return effects


def check_determinism_reachability(graph: CallGraph, config) -> list:
    """BFS closure from the fingerprint-feeding modules."""
    # Root entries name either a module (exact) or a package (every
    # submodule under it — ``repro.host`` covers the serving layer).
    roots = [info.fid for info in graph.functions.values()
             if any(info.module.name == root
                    or info.module.name.startswith(root + ".")
                    for root in config.fingerprint_root_modules)]
    parent = graph.reach(roots)
    findings: list = []
    for fid in sorted(parent):
        info = graph.functions[fid]
        if info.module.name in config.sanctioned_effect_modules:
            continue
        for line, what in _nondet_effects(info, graph):
            if info.module.suppressed(line, RULE):
                continue
            path = graph.witness(parent, fid)
            findings.append(Finding(
                path=info.module.path, line=line, rule=RULE,
                message=(f"{what} is reachable from fingerprint-feeding "
                         f"code: {path} (route host time through "
                         "repro.perf.wallclock or seed the RNG)"),
                symbol=info.qualname))
    return sorted(set(findings))
