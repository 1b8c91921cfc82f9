"""IPC fault policies for the OS message router.

The router itself (:class:`repro.os.ipc.IpcRouter`) applies a delivery
policy — ``policy(n, port, message) -> action`` with the actions
``deliver``/``drop``/``dup``/``delay``/``reorder`` documented there.
This module builds the two policies the repo uses: one that fires a
:class:`~repro.faults.plan.FaultPlan`'s IPC specs (set by the fault
engine when a kernel attaches), and the drop preset the attack code
(`attacks/ipc_drop.py`) and the tests set on ``kernel.ipc.policy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.os.ipc import Policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan


def plan_policy(plan: "FaultPlan") -> Policy:
    """Policy firing the plan's ipc specs at their delivery indices."""
    actions = {spec.at: spec.action for spec in plan.ipc_faults()}

    def policy(n: int, port: str, message: bytes) -> str:
        return actions.get(n, "deliver")

    return policy


def dropping_policy(should_drop: Callable[[str, bytes], bool]) -> Policy:
    """Drop a message when ``should_drop(port, message)`` says so."""

    def policy(n: int, port: str, message: bytes) -> str:
        return "drop" if should_drop(port, message) else "deliver"

    return policy
