"""Orderliness checking: replay a transition log against the paper's
mode-transition rules (Fig. 6 / §IV-B) and flag every violation.

The simulator's ISA leaves already *enforce* transition legality with
faults; this pass independently re-derives legality from the recorded
:mod:`repro.sgx.transitions` event stream alone, so a bug that lets an
illegal sequence through the leaves (or a divergence surfaced by the
differential fuzzer) is still caught.  The automaton keeps one replayed
enclave/TCS frame stack per core, a parked-context table fed by AEX, a
TCS occupancy set, and the inner→outer association map learned from
NASSO events, and checks every entry/exit/park/resume against them:

========  ==================================================================
ORD001    illegal entry: EENTER while already in enclave mode, entry to a
          busy TCS, NEENTER/NEEXIT_CALL from outside enclave mode, from a
          frame that is not the recorded counterpart, or across a pair
          that was never associated by NASSO
ORD002    LIFO violation: EEXIT that skips live nested frames (a missing
          NEEXIT unwind), NEEXIT/NEEXIT_RETURN popping the root frame,
          or any exit whose (eid, tcs) is not the top of the stack
ORD003    AEX misuse: AEX outside enclave mode, AEX that parks into a TCS
          other than the root frame's, or AEX onto an already-parked TCS
ORD004    ERESUME misuse: ERESUME while in enclave mode (double resume on
          one core) or ERESUME targeting a TCS with no parked context
          (forged resume, or a double resume from another core)
ORD005    mode violation: an enclave-only operation (EREPORT, EGETKEY,
          NEREPORT) or an exit recorded outside enclave mode — e.g. an
          enclave access after EEXIT already left — or against an
          enclave other than the one the core is executing
========  ==================================================================

After each violation the automaton applies a best-effort recovery (push
the frame anyway, pop whatever is on top, park/restore what the replayed
state supports) so one seeded fault yields one finding instead of a
cascade.  :func:`minimize_events` then shrinks a failing log to a
1-minimal witness: greedy single-event deletion, keeping a removal iff
the same (rule, reason) still fires — the same idiom the bounded model
checker uses for probe traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Report, minimize

RULES = ("ORD001", "ORD002", "ORD003", "ORD004", "ORD005")

#: Synthetic anchor for repo-level findings (the log the automaton
#: replays is machine-wide, not tied to one source line).
FINDING_PATH = "repro/sgx/transitions.py"

#: Event kinds that enter a frame / leave a frame / neither.
_ENTRIES = ("EENTER", "NEENTER", "NEEXIT_CALL")
_EXITS = ("EEXIT", "NEEXIT", "NEEXIT_RETURN")
_ENCLAVE_OPS = ("EREPORT", "EGETKEY", "NEREPORT")


@dataclass(frozen=True)
class Violation:
    """One orderliness violation: which rule, why, at which event."""

    rule: str
    reason: str
    index: int       # position in the replayed event list
    event: tuple

    def render(self) -> str:
        return f"{self.rule}({self.reason}) at event {self.index}: " \
               f"{self.event[0]}"


def _extra(event: tuple) -> dict:
    return dict(event[5]) if len(event) > 5 and event[5] else {}


class Automaton:
    """Per-core replay of the Fig. 6 transition rules.

    Feed events in log order; :meth:`feed` returns the violations that
    event triggered (usually none).  State is intentionally *replayed*,
    never taken from the event's own depth field — the depth a buggy
    implementation records is exactly what cannot be trusted.
    """

    def __init__(self) -> None:
        #: core_id -> stack of (eid, tcs_vaddr) frames, bottom first.
        self.stacks: dict[int, list[tuple[int, int]]] = {}
        #: (eid, tcs_vaddr) -> frames parked by AEX, awaiting ERESUME.
        self.parked: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: TCSes currently occupied by a live or parked frame.
        self.busy: set[tuple[int, int]] = set()
        #: inner eid -> outer eids, learned from NASSO events.
        self.outers: dict[int, set[int]] = {}

    # -- helpers -----------------------------------------------------------
    def _stack(self, core) -> list[tuple[int, int]]:
        return self.stacks.setdefault(core, [])

    # -- the transition function -------------------------------------------
    def feed(self, index: int, event: tuple) -> list[Violation]:
        kind, core, eid, tcs = event[0], event[1], event[2], event[3]
        out: list[Violation] = []

        def flag(rule: str, reason: str) -> None:
            out.append(Violation(rule, reason, index, event))

        if kind == "NASSO":
            outer = _extra(event).get("outer")
            if outer is not None:
                self.outers.setdefault(eid, set()).add(outer)
            return out

        if kind in _ENTRIES:
            stack = self._stack(core)
            key = (eid, tcs)
            if kind == "EENTER":
                if stack:
                    flag("ORD001", "eenter-in-enclave")
            else:
                caller_field = "outer" if kind == "NEENTER" else "caller"
                recorded = _extra(event).get(caller_field)
                if not stack:
                    flag("ORD001", f"{kind.lower()}-outside-enclave")
                else:
                    top_eid = stack[-1][0]
                    if recorded is not None and recorded != top_eid:
                        flag("ORD001", f"{kind.lower()}-caller-mismatch")
                    # NEENTER descends outer→inner; NEEXIT_CALL ascends
                    # inner→outer.  Both legs must have been NASSO'd.
                    inner, outer = ((eid, top_eid) if kind == "NEENTER"
                                    else (top_eid, eid))
                    if outer not in self.outers.get(inner, set()):
                        flag("ORD001", f"{kind.lower()}-unassociated")
            if key in self.busy:
                flag("ORD001", "tcs-busy")
            # Recovery: push anyway, so later legal events still replay.
            stack.append(key)
            self.busy.add(key)
            return out

        if kind in _EXITS:
            stack = self._stack(core)
            if not stack:
                flag("ORD005", "exit-outside-enclave")
                return out
            if kind == "EEXIT" and len(stack) >= 2:
                flag("ORD002", "eexit-skips-frames")
            if kind != "EEXIT" and len(stack) < 2:
                flag("ORD002", f"{kind.lower()}-pops-root")
            if stack[-1] != (eid, tcs):
                flag("ORD002", "exit-frame-mismatch")
            # Recovery: pop whatever is actually on top.
            self.busy.discard(stack.pop())
            return out

        if kind == "AEX":
            stack = self._stack(core)
            if not stack:
                flag("ORD003", "aex-outside-enclave")
                return out
            root = stack[0]
            if root != (eid, tcs):
                flag("ORD003", "park-not-root")
            if root in self.parked:
                flag("ORD003", "double-park")
            # Recovery: park the *replayed* stack under its real root.
            self.parked[root] = list(stack)
            stack.clear()
            return out

        if kind == "ERESUME":
            stack = self._stack(core)
            key = (eid, tcs)
            if stack:
                flag("ORD004", "resume-in-enclave")
                return out
            frames = self.parked.pop(key, None)
            if frames is None:
                flag("ORD004", "resume-not-parked")
                return out
            stack.extend(frames)
            return out

        if kind in _ENCLAVE_OPS:
            stack = self._stack(core)
            if not stack:
                flag("ORD005", "op-outside-enclave")
            elif stack[-1][0] != eid:
                flag("ORD005", "op-wrong-enclave")
            return out

        # Lifecycle and paging events (ECREATE/EINIT/EREMOVE, EVICT/
        # RELOAD, EWB/ELDB) carry no per-core mode obligations here.
        return out


def check_log(events: Iterable[tuple]) -> list[Violation]:
    """Replay ``events`` from scratch; return every violation in order."""
    automaton = Automaton()
    violations: list[Violation] = []
    for index, event in enumerate(events):
        violations.extend(automaton.feed(index, event))
    return violations


def minimize_events(events: Sequence[tuple], rule: str,
                    reason: str) -> list[tuple]:
    """Shrink ``events`` to a 1-minimal log still violating (rule, reason).

    Greedy single-deletion to a fixpoint (:func:`findings.minimize`):
    removing any one remaining event makes the violation disappear.
    """
    def still_fails(candidate: list[tuple]) -> bool:
        return any(v.rule == rule and v.reason == reason
                   for v in check_log(candidate))

    if not still_fails(list(events)):
        raise ValueError(
            f"log does not violate {rule}({reason}); nothing to minimize")
    return minimize(events, still_fails)


def _witness(events: Sequence[tuple]) -> str:
    return " -> ".join(e[0] for e in events)


def check_events_report(events: Sequence[tuple], *,
                        symbol: str) -> Report:
    """Turn one log's violations into findings with minimized witnesses.

    Violations are deduplicated per (rule, reason) — one seeded fault
    should yield one finding, and minimization is quadratic in log size
    so it runs once per distinct failure mode, not per occurrence.
    """
    events = list(events)
    findings: list[Finding] = []
    seen: set[tuple[str, str]] = set()
    for violation in check_log(events):
        key = (violation.rule, violation.reason)
        if key in seen:
            continue
        seen.add(key)
        witness = _witness(minimize_events(events, *key))
        findings.append(Finding(
            path=FINDING_PATH, line=1, rule=violation.rule, symbol=symbol,
            message=f"{violation.reason}: minimal witness [{witness}]"))
    return Report(findings=findings, passes=["orderliness"])


def run_orderliness(workloads: dict | None = None) -> Report:
    """The repo pass: run the fingerprint workloads, replay their logs.

    Every machine the determinism-fingerprint harness builds must
    produce a perfectly orderly transition log — these are the same
    fixed workloads whose machine fingerprints are golden-pinned, so a
    finding here means the simulator itself (not a test) performed an
    illegal transition sequence.
    """
    if workloads is None:
        # Lazy: the workloads pull in the whole machine model, which the
        # lint-only passes must not pay for.
        from repro.perf.fingerprint import WORKLOADS
        workloads = WORKLOADS
    report = Report(passes=["orderliness"])
    for name, build in workloads.items():
        machine = build()
        report.extend(check_events_report(machine.transitions.events,
                                          symbol=name))
    report.dedupe()
    return report
