"""Simulated physical memory: DRAM, the Processor Reserved Memory (PRM)
range, and the Enclave Page Cache (EPC) allocator.

DRAM is modelled as a sparse dict of 4 KiB page frames, materialised on
first write.  The PRM is a fixed physical range ``[prm_base, prm_base +
prm_bytes)``; the EPC is the bottom ``epc_bytes`` of it.  Frames inside the
EPC are handed out by :class:`EpcAllocator` (driven by the untrusted OS's
SGX driver, exactly as on real hardware — the OS picks *which* free EPC
frame backs a page, the hardware only validates).

When the MEE is enabled, physical DRAM contents for EPC pages hold
**ciphertext** whenever anything outside the package reads them: the
CPU-side accessors in :mod:`repro.sgx.machine` decrypt through the MEE on
the way in and record plaintext with the MEE on the way out, and the
MEE's stale lines are encrypted into their frame
(:meth:`PhysicalMemory.watch`) before any raw accessor here touches that
frame.  So a physical attacker (or a test) reading `PhysicalMemory`
directly sees only encrypted bytes.
"""

from __future__ import annotations

import hashlib

from repro.errors import SgxFault
from repro.sgx.constants import MachineConfig, PAGE_SHIFT, PAGE_SIZE


class PhysicalMemory:
    """Sparse byte-addressable physical memory."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._frames: dict[int, bytearray] = {}
        # pfn -> lines whose bytes the frame does not hold yet, and what
        # writes them in; see watch().  Empty unless a machine wires it.
        self._stale: dict[int, int] = {}
        self._settle = None

    def watch(self, stale: dict, settle) -> None:
        """Settle before observing: every raw accessor below first calls
        ``settle(pfn, frame)`` for each frame it touches whose ``pfn`` is
        a key of ``stale`` (the MEE's lines written back but not yet
        encrypted into DRAM), creating the frame if needed."""
        self._stale = stale
        self._settle = settle

    # -- frame helpers ------------------------------------------------------
    def _frame(self, pfn: int) -> bytearray:
        frame = self._frames.get(pfn)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[pfn] = frame
        return frame

    def _observe(self, pfn: int) -> None:
        """Settle frame ``pfn``'s stale lines (see :meth:`watch`)."""
        self._settle(pfn, self._frame(pfn))

    def frame_exists(self, pfn: int) -> bool:
        if pfn in self._stale:
            self._observe(pfn)
        return pfn in self._frames

    def drop_frame(self, pfn: int) -> None:
        """Forget a frame's backing store (used after EREMOVE/EWB)."""
        if pfn in self._stale:
            self._observe(pfn)
        self._frames.pop(pfn, None)

    # -- raw byte access (no protection: this *is* the DRAM) ----------------
    def read(self, paddr: int, size: int) -> bytes:
        self._check_range(paddr, size)
        off = paddr & (PAGE_SIZE - 1)
        stale = self._stale
        if size <= PAGE_SIZE - off:
            # Fast path: within one frame (every cacheline access and
            # every core-issued chunk lands here).
            pfn = paddr >> PAGE_SHIFT
            if pfn in stale:
                self._observe(pfn)
            frame = self._frames.get(pfn)
            if frame is None:
                return bytes(size)
            return bytes(frame[off:off + size])
        out = bytearray()
        while size > 0:
            pfn, off = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - off)
            if pfn in stale:
                self._observe(pfn)
            frame = self._frames.get(pfn)
            if frame is None:
                out += bytes(chunk)
            else:
                out += frame[off:off + chunk]
            paddr += chunk
            size -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        self._check_range(paddr, len(data))
        off = paddr & (PAGE_SIZE - 1)
        stale = self._stale
        if 0 < len(data) <= PAGE_SIZE - off:
            pfn = paddr >> PAGE_SHIFT
            if pfn in stale:
                self._observe(pfn)
            self._frame(pfn)[off:off + len(data)] = data
            return
        pos = 0
        while pos < len(data):
            pfn, off = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            if pfn in stale:
                self._observe(pfn)
            self._frame(pfn)[off:off + chunk] = data[pos:pos + chunk]
            paddr += chunk
            pos += chunk

    def digest(self) -> bytes:
        """SHA-256 over every materialised frame, in pfn order — exactly
        the bytes a physical DRAM attacker could observe (ciphertext for
        MEE-protected lines, stale lines settled first).  Used by the
        determinism-fingerprint harness (:mod:`repro.perf.fingerprint`)."""
        for pfn in sorted(self._stale):
            self._observe(pfn)
        h = hashlib.sha256()
        for pfn in sorted(self._frames):
            h.update(pfn.to_bytes(8, "little"))
            h.update(self._frames[pfn])
        return h.digest()

    def zero_page(self, paddr: int) -> None:
        if paddr & (PAGE_SIZE - 1):
            raise ValueError("zero_page requires a page-aligned address")
        if paddr >> PAGE_SHIFT in self._stale:
            self._observe(paddr >> PAGE_SHIFT)
        self._frames[paddr >> PAGE_SHIFT] = bytearray(PAGE_SIZE)

    def _check_range(self, paddr: int, size: int) -> None:
        if paddr < 0 or size < 0 or paddr + size > self.config.dram_bytes:
            raise SgxFault(
                f"physical access [{paddr:#x}, +{size}) outside DRAM")

    # -- PRM / EPC geometry --------------------------------------------------
    def in_prm(self, paddr: int) -> bool:
        cfg = self.config
        return cfg.prm_base <= paddr < cfg.prm_base + cfg.prm_bytes

    def in_epc(self, paddr: int) -> bool:
        cfg = self.config
        return cfg.epc_base <= paddr < cfg.epc_base + cfg.epc_bytes


class EpcAllocator:
    """Free-list allocator for EPC page frames.

    On real hardware this bookkeeping lives in the OS's SGX driver; the
    hardware does not care which free frame is chosen.  We keep it beside
    the memory model because both trusted ISA leaves and the untrusted
    driver need it, and because malicious-OS tests want to hand out
    *specific* frames (e.g. to attempt remap attacks).
    """

    def __init__(self, config: MachineConfig) -> None:
        # ``alloc`` first pops the LIFO ``_stack`` of freed frames, then
        # hands out frames in ascending order from the watermark
        # ``_next``.  ``alloc_specific`` only marks a frame used: a
        # stale stack entry, or a used frame the watermark reaches, is
        # skipped lazily.  Both paths stay O(1) amortised, and set-up
        # costs nothing per frame.
        self._base = config.epc_base
        self._next = config.epc_base
        self._end = config.epc_base + config.epc_pages * PAGE_SIZE
        self._pages = config.epc_pages
        self._stack: list[int] = []
        self._used: set[int] = set()

    def alloc(self) -> int:
        stack = self._stack
        used = self._used
        while stack:
            paddr = stack.pop()
            if paddr not in used:
                used.add(paddr)
                return paddr
        while self._next < self._end:
            paddr = self._next
            self._next = paddr + PAGE_SIZE
            if paddr not in used:
                used.add(paddr)
                return paddr
        raise SgxFault("EPC exhausted")

    def alloc_specific(self, paddr: int) -> int:
        """Allocate a particular frame (malicious/deterministic tests)."""
        if (not self._base <= paddr < self._end
                or (paddr - self._base) % PAGE_SIZE
                or paddr in self._used):
            raise SgxFault(f"EPC frame {paddr:#x} not free")
        self._used.add(paddr)
        return paddr

    def free(self, paddr: int) -> None:
        if paddr not in self._used:
            raise SgxFault(f"freeing non-allocated EPC frame {paddr:#x}")
        self._used.remove(paddr)
        if not self._stack and paddr == self._next - PAGE_SIZE:
            # The frame just below the watermark rejoins the ascending
            # run.  Keeping the state canonical means two allocators
            # with the same hand-out order capture equal snapshots.
            self._next = paddr
        else:
            self._stack.append(paddr)

    # -- snapshot / restore (bounded model checking) -------------------------
    def capture(self) -> tuple:
        """Watermark, free stack and used set, as immutable values."""
        return (self._next, tuple(self._stack), frozenset(self._used))

    def restore(self, snapshot: tuple) -> None:
        self._next, stack, used = snapshot
        self._stack[:] = stack
        self._used.clear()
        self._used.update(used)

    @property
    def free_pages(self) -> int:
        return self._pages - len(self._used)

    @property
    def used_pages(self) -> int:
        return len(self._used)
