"""Nested-enclave access validation — the shaded steps of paper Fig. 6.

The paper's hardware delta for memory protection is exactly two additions
to the baseline TLB-miss validation automaton:

* **EID-mismatch fallback** (shaded steps 3–5): when an access in enclave
  mode targets an EPC page whose EPCM entry names a *different* owner, the
  baseline aborts; with nesting, if the current enclave is an inner
  enclave, the check walks its outer chain — if the EPCM owner is one of
  the current enclave's (transitive) outer enclaves *and* the virtual
  address matches the EPCM entry, the access is allowed.  The asymmetry of
  the MLS model falls out naturally: an outer enclave has no such
  fallback toward its inner enclaves, so outer→inner accesses still abort.

* **Outside-ELRANGE fallback** (shaded steps 1–2): when an enclave touches
  a virtual address outside its own ELRANGE but *inside* an associated
  outer enclave's ELRANGE, and the translation does not land in the EPC,
  the correct outcome is a page fault (the outer page was evicted) — not a
  silent pass-through to unsecure memory, which would let the OS shadow
  outer-enclave addresses with attacker-controlled frames.

Each extra check charges ``nested_check_ns`` to the cost model; the D1/D4
ablations measure that cost as a function of nesting depth.

Multi-level nesting (§VIII) is supported by walking the chain of
``outer_eid`` links; the lattice extension (multiple outers per inner,
also §VIII) by consulting the full ``outer_eids`` list.  The 2-level model
the paper evaluates is simply the depth-1 case of the same walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sgx.access import ABORT, BaselineValidator, Decision, INSERT, PAGE_FAULT
from repro.sgx.constants import PAGE_SIZE, PERM_X
from repro.sgx.paging import Pte
from repro.sgx.secs import Secs

if TYPE_CHECKING:  # pragma: no cover
    from repro.sgx.cpu import Core

#: Hard bound on the outer-chain walk so a corrupted SECS graph (cycle)
#: degrades to an abort instead of a hang.
MAX_NESTING_DEPTH = 16


class NestedValidator(BaselineValidator):
    """Fig. 6: baseline automaton + the nested shaded steps."""

    name = "nested-enclave"

    # -- outer-chain enumeration ------------------------------------------------
    def outer_chain(self, secs: Secs) -> list[Secs]:
        """All (transitive) outer enclaves of ``secs``, nearest first.

        For the 2-level model this is just ``[outer]``; for multi-level
        nesting it is the chain; for the lattice extension each node may
        fan out to several outers (breadth-first, deduplicated).
        """
        chain: list[Secs] = []
        seen: set[int] = set()
        frontier = list(secs.outer_eids)
        depth = 0
        while frontier and depth < MAX_NESTING_DEPTH:
            next_frontier: list[int] = []
            for eid in frontier:
                if eid in seen:
                    continue
                seen.add(eid)
                outer = self.machine.enclaves.get(eid)
                if outer is None:
                    continue
                chain.append(outer)
                next_frontier.extend(outer.outer_eids)
            frontier = next_frontier
            depth += 1
        return chain

    def _charge_check(self, core: "Core") -> None:
        self.machine.cost.charge_event("nested_check")

    def _va_matches(self, entry, vaddr: int) -> bool:
        """Step 5's VA comparison, split out so the model checker's
        mutation mode (:mod:`repro.analysis.modelcheck.mutations`) can
        weaken exactly this check and prove the checker notices."""
        return entry.vaddr == (vaddr & ~(PAGE_SIZE - 1))

    # -- shaded steps 3-5: EPC page owned by another enclave ---------------------
    def on_eid_mismatch(self, core: "Core", secs: Secs, vaddr: int,
                        paddr_page: int, entry) -> Decision:
        for outer in self.outer_chain(secs):
            self._charge_check(core)
            if entry.eid != outer.eid:
                continue
            # Step 5: the virtual address must match the EPCM entry, so a
            # malicious page table cannot alias outer pages at wrong VAs.
            if entry.blocked:
                return Decision(PAGE_FAULT,
                                reason="outer page blocked for EWB")
            if not self._va_matches(entry, vaddr):
                return Decision(
                    ABORT,
                    reason="outer-enclave page: VA mismatch vs EPCM")
            return Decision(INSERT, perms=entry.perms,
                            reason="inner enclave accessing its outer")
        return Decision(ABORT,
                        reason="EPC page owned by an unrelated enclave")

    # -- shaded steps 1-2: ELRANGE check extended to the outer chain ------------
    def on_outside_elrange(self, core: "Core", secs: Secs, vaddr: int,
                           pte: Pte) -> Decision:
        for outer in self.outer_chain(secs):
            self._charge_check(core)
            if outer.contains_vaddr(vaddr):
                # Inside an outer ELRANGE but not backed by EPC: the outer
                # page was evicted (or the OS lies).  #PF either way.
                return Decision(
                    PAGE_FAULT,
                    reason="outer ELRANGE address not backed by EPC")
        # Truly outside every associated ELRANGE: plain unsecure access.
        return Decision(INSERT, perms=pte.perms & ~PERM_X,
                        reason="enclave access to unsecure memory (NX)")
