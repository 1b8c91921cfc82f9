"""Greedy counterexample minimization by replay.

A BFS witness trace is already shortest *as reached*, but it can carry
labels irrelevant to the violation (e.g. a touch on an unrelated page).
Greedy single-label removal (:func:`repro.analysis.findings.minimize`,
repeated to a fixpoint) re-executes the candidate trace from the
initial snapshot through the real transitions and keeps a removal only
if the same property still fails — so the minimized trace is guaranteed
to be a genuine counterexample, and 1-minimal (no single label can be
dropped).
"""

from __future__ import annotations

from repro.errors import SgxFault

from repro.analysis.findings import minimize
from repro.analysis.modelcheck import properties, state


def _replays(world, init_snap, labels, probe) -> bool:
    """Does the trace still reach a state violating ``probe``?"""
    from repro.analysis.modelcheck.explorer import apply_label
    state.restore(world, init_snap)
    for label in labels:
        try:
            apply_label(world, label)
        except SgxFault:
            return False  # trace no longer executable without the label
    if probe[0] == "audit":
        return bool(properties.audit_violations(world))
    return properties.run_probe(world, probe) is not None


def minimize_trace(world, init_snap, labels, probe) -> list:
    labels = list(labels)
    if not _replays(world, init_snap, labels, probe):
        return labels  # non-replayable witness: report it unminimized
    return minimize(labels, lambda candidate: _replays(
        world, init_snap, candidate, probe))
