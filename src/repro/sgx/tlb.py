"""Per-core TLB model.

SGX's entire software-attack-surface defence for EPC memory hangs on one
invariant (paper §II-B): **the TLB must only ever contain validated
translations**.  Validation happens once, at fill time (TLB miss); after
that, hits are trusted.  Consequently every transition that changes the
security context (EENTER, EEXIT, NEENTER, NEEXIT, AEX) must flush the TLB,
and EPC eviction must shoot down TLBs on every core that may cache a
translation for the victim page.

The model is a capacity-bounded LRU map from virtual page number to a
:class:`TlbEntry`.  Entries additionally record which enclave context they
were validated under — not because real hardware tags them (it flushes
instead), but so the *simulator can detect* any violation of the
flush-on-transition discipline: reading through an entry validated under a
different context raises immediately in :meth:`lookup` assertions inside
tests (see ``repro.core.invariants``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TlbEntry:
    # Explicit rather than ``dataclass(slots=True)``, which needs 3.10.
    __slots__ = ("vpn", "pfn", "perms", "context_eid")

    vpn: int
    pfn: int
    perms: int
    #: Enclave ID the validation ran under (0 = non-enclave mode).  Used
    #: only by invariant checking, never by lookup logic.
    context_eid: int


class Tlb:
    """Bounded LRU TLB."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        # Insertion-ordered dict, most-recently-used last: delete+reinsert
        # is the LRU promotion, ``next(iter(...))`` the LRU victim.
        self._entries: dict[int, TlbEntry] = {}
        self.flush_count = 0

    def lookup(self, vpn: int) -> TlbEntry | None:
        entries = self._entries
        ent = entries.get(vpn)
        if ent is not None:
            del entries[vpn]
            entries[vpn] = ent
        return ent

    def insert(self, entry: TlbEntry) -> None:
        entries = self._entries
        entries.pop(entry.vpn, None)
        entries[entry.vpn] = entry
        if len(entries) > self.capacity:
            del entries[next(iter(entries))]

    def flush(self) -> None:
        self._entries.clear()
        self.flush_count += 1

    def entries(self) -> list[TlbEntry]:
        return list(self._entries.values())

    # -- snapshot / restore (bounded model checking) -------------------------
    def capture(self) -> tuple:
        """Contents + LRU recency as plain tuples (LRU first, MRU last)."""
        return tuple((e.vpn, e.pfn, e.perms, e.context_eid)
                     for e in self._entries.values())

    def restore(self, snapshot: tuple) -> None:
        """Rebuild contents from :meth:`capture`."""
        self._entries.clear()
        for vpn, pfn, perms, context_eid in snapshot:
            self._entries[vpn] = TlbEntry(vpn, pfn, perms, context_eid)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
