"""Named single-edit weakenings (the mutation kill-list).

Most mutations are subclasses of the real :class:`NestedValidator`
overriding exactly one check; ``tlb-flush-keeps-entries`` instead
weakens the *translation cache* (a TLB whose flush counts itself but
drops nothing, so translations validated under one context survive
every transition flush and shootdown).
``--mutate`` builds a world with the mutant installed and requires the
explorer to kill it with a minimized counterexample of the expected
rule.  A surviving mutant means the checker lost discrimination — the
self-validation the paper-style security argument needs before trusting
"zero findings".

``MC001`` (the bare-state invariant audit) fires on corrupted
*reachable* state rather than on a weakened check.  Every transition
here goes through the real ISA, so only a mutant that corrupts state
behind the ISA's back can reach it: a flush that does nothing is one,
and ``tlb-flush-keeps-entries`` is the mutation MC001 kills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import NestedValidator
from repro.sgx.access import ABORT, BaselineValidator, Decision, INSERT
from repro.sgx.tlb import Tlb


class DropVaMatch(NestedValidator):
    """Fig. 6 step 5: skip the EPCM VA comparison in the EID-mismatch
    fallback, so a lying page table can alias outer pages at wrong VAs."""

    def _va_matches(self, entry, vaddr: int) -> bool:
        return True


class SkipOutsideElrangePf(NestedValidator):
    """Fig. 6 steps 1-2: fall back to the baseline outside-ELRANGE
    behaviour (plain unsecure insert), losing the outer-ELRANGE #PF."""

    def on_outside_elrange(self, core, secs, vaddr, pte) -> Decision:
        return BaselineValidator.on_outside_elrange(
            self, core, secs, vaddr, pte)


class UnboundedOuterWalk(NestedValidator):
    """Drop both the seen-set and the depth bound from the outer-chain
    walk: terminates on every well-formed graph, hangs on a cycle."""

    def outer_chain(self, secs):
        chain = []
        frontier = list(secs.outer_eids)
        while frontier:
            next_frontier = []
            for eid in frontier:
                outer = self.machine.enclaves.get(eid)
                if outer is None:
                    continue
                chain.append(outer)
                next_frontier.extend(outer.outer_eids)
            frontier = next_frontier
        return chain


class AcceptUnrelatedOwner(NestedValidator):
    """Turn the unrelated-owner abort into an insert (a validator that
    forgot the automaton's default-deny arm)."""

    def on_eid_mismatch(self, core, secs, vaddr, paddr_page,
                        entry) -> Decision:
        decision = NestedValidator.on_eid_mismatch(
            self, core, secs, vaddr, paddr_page, entry)
        if decision.action == ABORT and "unrelated" in decision.reason:
            return Decision(INSERT, perms=entry.perms,
                            reason="mutant: accept unrelated owner")
        return decision


class FlushKeepsEntriesTlb(Tlb):
    """A TLB flush that forgets to flush: it bumps ``flush_count`` (so
    the EWB tracking check sees an epoch change) but keeps every entry.
    Translations validated inside an enclave survive EEXIT, and the
    untrusted code that runs next is served from them without ever
    re-running the Fig. 6 automaton."""

    def flush(self) -> None:
        self.flush_count += 1


def _install_flush_keeps_entries(world) -> None:
    """Swap every core's (empty, post-build) TLB for the mutant.
    ``build_world`` ends with a flush of all TLBs, so no contents need
    carrying over."""
    for core in world.machine.cores:
        core.tlb = FlushKeepsEntriesTlb(core.tlb.capacity)


@dataclass(frozen=True)
class Mutation:
    name: str
    validator_cls: type
    expected_rule: str
    description: str
    #: Optional post-build hook installing non-validator mutants.
    apply: Optional[Callable] = None


MUTATIONS = {
    "drop-va-match": Mutation(
        "drop-va-match", DropVaMatch, "MC002",
        "drop the VA-match check in the EID-mismatch fallback"),
    "skip-outside-elrange-pf": Mutation(
        "skip-outside-elrange-pf", SkipOutsideElrangePf, "MC003",
        "skip the outside-ELRANGE page-fault step"),
    "unbounded-outer-walk": Mutation(
        "unbounded-outer-walk", UnboundedOuterWalk, "MC004",
        "unbounded outer-chain walk (no seen-set, no depth cap)"),
    "accept-unrelated-owner": Mutation(
        "accept-unrelated-owner", AcceptUnrelatedOwner, "MC002",
        "accept EPC pages owned by unrelated enclaves"),
    # Rule MC001: an enclave page stays in the TLB after EEXIT, and the
    # audit finds a non-enclave entry mapping into PRM.
    "tlb-flush-keeps-entries": Mutation(
        "tlb-flush-keeps-entries", NestedValidator, "MC001",
        "a TLB flush that counts itself but keeps every entry, so "
        "translations survive transition flushes and shootdowns",
        apply=_install_flush_keeps_entries),
}
