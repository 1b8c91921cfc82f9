"""Untrusted page tables.

In SGX the page tables are owned by the (untrusted) OS: the OS decides the
virtual→physical mapping, and the hardware merely *validates* translations
that target the EPC against the trusted EPCM at TLB-fill time.  The page
table here is therefore deliberately writable by anyone holding a reference
— malicious-OS tests remap enclave pages at will and then prove that the
access automaton blocks the resulting translations.

One :class:`AddressSpace` models one process.  Enclaves do not get their
own address space: an enclave's ELRANGE is a region *inside* its host
process's address space, exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE, PERM_RWX


@dataclass
class Pte:
    pfn: int
    perms: int = PERM_RWX
    present: bool = True


class AddressSpace:
    """A process's virtual address space (a flat VPN→PTE dict)."""

    def __init__(self, name: str = "proc") -> None:
        self.name = name
        self._table: dict[int, Pte] = {}
        self._next_free_vaddr = 0x10_0000  # 1 MiB: skip the null region

    # -- mapping management (OS-level; untrusted) ---------------------------
    def map_page(self, vaddr: int, paddr: int,
                 perms: int = PERM_RWX) -> None:
        self._check_aligned(vaddr)
        self._check_aligned(paddr)
        self._table[vaddr >> PAGE_SHIFT] = Pte(paddr >> PAGE_SHIFT, perms)

    def unmap_page(self, vaddr: int) -> None:
        self._check_aligned(vaddr)
        self._table.pop(vaddr >> PAGE_SHIFT, None)

    def mark_not_present(self, vaddr: int) -> None:
        self._check_aligned(vaddr)
        pte = self._table.get(vaddr >> PAGE_SHIFT)
        if pte is not None:
            pte.present = False

    def mark_present(self, vaddr: int, paddr: int) -> None:
        self._check_aligned(vaddr)
        self._table[vaddr >> PAGE_SHIFT] = Pte(paddr >> PAGE_SHIFT,
                                               PERM_RWX, True)

    def walk(self, vaddr: int) -> Pte | None:
        """The page-walk a TLB miss performs. None = no mapping at all."""
        return self._table.get(vaddr >> PAGE_SHIFT)

    def translate(self, vaddr: int) -> int | None:
        """Raw translation (no validation!) — OS/debug use only."""
        pte = self.walk(vaddr)
        if pte is None or not pte.present:
            return None
        return (pte.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    # -- simple virtual-region reservation ----------------------------------
    def reserve(self, nbytes: int, align: int = PAGE_SIZE) -> int:
        """Reserve a fresh virtual region (returns its base address).

        Enclave ELRANGEs must be contiguous and fixed at build time
        (paper §II-B), so the loader reserves them here up front.
        """
        base = self._next_free_vaddr
        base += (-base) % align
        pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        self._next_free_vaddr = base + pages * PAGE_SIZE
        return base

    # -- snapshot / restore (bounded model checking) ------------------------
    def capture(self) -> tuple:
        return tuple((vpn, pte.pfn, pte.perms, pte.present)
                     for vpn, pte in sorted(self._table.items()))

    def restore(self, snapshot: tuple) -> None:
        self._table.clear()
        for vpn, pfn, perms, present in snapshot:
            self._table[vpn] = Pte(pfn, perms, present)

    @staticmethod
    def _check_aligned(addr: int) -> None:
        if addr % PAGE_SIZE:
            raise ValueError(f"address {addr:#x} is not page aligned")
