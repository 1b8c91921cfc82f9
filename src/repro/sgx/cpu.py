"""CPU core model.

A :class:`Core` holds the security-relevant per-core state SGX cares about:
whether the core is in enclave mode, which enclave it is executing
(``current_eid``), the *stack* of nested enclave contexts (for NEENTER —
the outer enclave's context is suspended, not exited), its private TLB,
and a tiny architectural register file whose only job is to let NEEXIT's
"set 0s for all registers" scrubbing be observable in tests.

The core also exposes the two operations everything above builds on:
:meth:`read` / :meth:`write`, which run the full TLB → page-walk →
access-validation pipeline against the machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AccessViolation, PageFault
from repro.perf import counters as ctr
from repro.sgx.access import ABORT, INSERT, PAGE_FAULT
from repro.sgx.constants import (CACHELINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
                                 PERM_R, PERM_W)
from repro.sgx.paging import AddressSpace
from repro.sgx.tlb import Tlb, TlbEntry

# Hot-path copies of the counter slot indices: a module-global load is
# cheaper than an attribute load on ``ctr`` in the per-access fast path.
_SLOT_TLB_HIT = ctr.SLOT_TLB_HIT
_SLOT_LLC_HIT = ctr.SLOT_LLC_HIT
_SLOT_LLC_MISS = ctr.SLOT_LLC_MISS
_SLOT_MEE_LINE_DEC = ctr.SLOT_MEE_LINE_DEC
_SLOT_MEE_LINE_ENC = ctr.SLOT_MEE_LINE_ENC
_PAGE_MASK = PAGE_SIZE - 1

if TYPE_CHECKING:  # pragma: no cover
    from repro.sgx.machine import Machine

#: Architectural registers scrubbed on enclave exit (subset, for tests).
REGISTER_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi",
                  "r8", "r9", "r10", "r11", "rflags")


class Core:
    """One simulated hardware thread."""

    def __init__(self, machine: "Machine", core_id: int) -> None:
        self.machine = machine
        self.core_id = core_id
        self.tlb = Tlb(machine.config.tlb_entries)
        #: Enclave-context stack: empty = non-enclave mode; one element =
        #: ordinary enclave execution; deeper = nested (NEENTER) frames.
        #: Each frame is an EID.
        self.enclave_stack: list[int] = []
        self.address_space: AddressSpace | None = None
        self.registers: dict[str, int] = {r: 0 for r in REGISTER_NAMES}
        #: TCS vaddr per active enclave frame (parallel to enclave_stack).
        self.tcs_stack: list[int] = []
        #: Optional ``hook(core, vaddr, is_write)`` observed before every
        #: read/write — the fault-injection seam (repro.faults.engine).
        #: None in normal runs, so the hot path pays one attribute load
        #: and an is-None test per access.
        self.access_hook = None
        # Single-page accesses of at most this many bytes (counted from
        # the page offset) are served inline from the TLB by _access.
        # Reference mode sets it to 0, so every access takes the
        # per-page translate loop: difffuzz's slow oracle.
        self._inline_max = (0 if machine.config.reference_paths
                            else PAGE_SIZE)
        # Hot-path aliases (see Machine.__init__: these objects are never
        # rebound, and Counters.reset clears the slot list in place).
        self._slots = machine.counters.slots
        self._cost = machine.cost
        self._memside_read = machine.memside_read
        self._memside_write = machine.memside_write
        self._llc_range = machine._llc_range
        self._frames = machine.phys._frames
        self._prm_lo = machine._prm_lo
        self._prm_hi = machine._prm_hi
        self._mee_bytes = machine._mee_bytes
        self._dram_bytes = machine._dram_bytes
        # Single-line LLC probe, inlined into the TLB-hit serve: the
        # model's internals (set list, geometry) and the memory-system
        # unit costs, plus the three possible fused single-line charges
        # precomputed with the exact association the generic path uses
        # (tlb, then +llc, then +mee — each partial sum is an exact
        # dyadic float, see Machine._charge_lines).
        llc = machine.llc
        self._llc_sets = llc._sets
        self._llc_nsets = llc.num_sets
        self._llc_assoc = llc.ways
        cost = machine.cost
        self._clock = cost.clock
        self._tlb_hit_ns = cost._tlb_hit_ns
        self._cache_hit_ns = cost._cache_hit_ns
        self._dram_access_ns = cost._dram_access_ns
        self._mee_line_ns = cost._mee_line_ns
        self._chg_hit = cost._tlb_hit_ns + cost._cache_hit_ns
        self._chg_miss = cost._tlb_hit_ns + cost._dram_access_ns
        self._chg_miss_mee = (cost._tlb_hit_ns + cost._dram_access_ns
                              + cost._mee_line_ns)

    # -- mode queries ----------------------------------------------------------
    @property
    def in_enclave_mode(self) -> bool:
        return bool(self.enclave_stack)

    @property
    def current_eid(self) -> int:
        if not self.enclave_stack:
            return 0
        return self.enclave_stack[-1]

    # -- register scrubbing ------------------------------------------------------
    def scrub_registers(self) -> None:
        """Zero all registers and flags (NEEXIT/EEXIT hygiene, §V)."""
        for name in self.registers:
            self.registers[name] = 0

    # -- TLB management ------------------------------------------------------
    def flush_tlb(self) -> None:
        self.tlb.flush()
        self.machine.cost.charge_event("tlb_flush")

    # -- the memory pipeline ------------------------------------------------------
    def _translate(self, vaddr: int, write: bool) -> TlbEntry:
        """TLB lookup; on miss, page walk + access validation + fill."""
        vpn = vaddr >> PAGE_SHIFT
        tlb = self.tlb
        machine = self.machine
        entry = tlb.lookup(vpn)
        if entry is not None:
            self._cost.charge_event("tlb_hit")
        else:
            self._cost.charge_event("tlb_miss_walk")
            if self.address_space is None:
                raise PageFault("core has no address space", vaddr)
            pte = self.address_space.walk(vaddr)
            if pte is None or not pte.present:
                raise PageFault(f"no present mapping for {vaddr:#x}", vaddr)
            decision = machine.validator.validate(self, vaddr, pte)
            if decision.action == PAGE_FAULT:
                raise PageFault(
                    f"#PF at {vaddr:#x}: {decision.reason}", vaddr)
            if decision.action == ABORT:
                raise AccessViolation(
                    f"access violation at {vaddr:#x}: {decision.reason}",
                    vaddr)
            assert decision.action == INSERT
            entry = TlbEntry(vpn=vpn, pfn=pte.pfn, perms=decision.perms,
                             context_eid=self.current_eid)
            tlb.insert(entry)
        needed = PERM_W if write else PERM_R
        if not entry.perms & needed:
            kind = "write" if write else "read"
            raise PageFault(f"{kind} permission denied at {vaddr:#x}", vaddr)
        return entry

    def read(self, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes of virtual memory with full protection."""
        return self._access(vaddr, size, None)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write ``data`` to virtual memory with full protection."""
        self._access(vaddr, len(data), data)

    def _access(self, vaddr: int, size: int, data: bytes | None):
        """The one read/write body; ``data is None`` means a read.

        A single-page access whose page is in the TLB with the needed
        permission is served inline: the LRU promotion ``Tlb.lookup``
        would perform, the counter bumps (the cost breakdown derives
        their time), one fused clock advance (FP-exact, see
        Machine._charge_lines) and the memside byte move.  The TLB only
        ever holds validated translations (every event that can change a
        validation outcome flushes or invalidates it), so a hit needs no
        Fig. 6 walk.  Everything else — misses, permission failures and
        multi-page accesses — takes the per-page loop through
        :meth:`_translate`.  The frame is looked up at serve time, never
        cached: EREMOVE drops frames without flushing TLBs.
        """
        write = data is not None
        hook = self.access_hook
        if hook is not None:
            hook(self, vaddr, write)
        off = vaddr & _PAGE_MASK
        if 0 < size <= self._inline_max - off:
            vpn = vaddr >> PAGE_SHIFT
            entries = self.tlb._entries
            entry = entries.get(vpn)
            if entry is not None and \
                    entry.perms & (PERM_W if write else PERM_R):
                base = entry.pfn << PAGE_SHIFT
                if base + PAGE_SIZE <= self._dram_bytes:
                    # PRM bounds are page aligned (MachineConfig), so
                    # the whole page is in PRM or none of it is.
                    del entries[vpn]
                    entries[vpn] = entry
                    prm = self._prm_lo <= base < self._prm_hi
                    paddr = base | off
                    slots = self._slots
                    slots[_SLOT_TLB_HIT] += 1
                    clock = self._clock
                    lb = CACHELINE_SIZE
                    first = paddr - (paddr % lb)
                    if paddr + size - first <= lb:
                        # Single-line access: LLC probe and fused
                        # charge inlined (same state transitions
                        # and charge association as LlcModel.
                        # access_range + the generic branch below).
                        lru = self._llc_sets[
                            (first // lb) % self._llc_nsets]
                        if first in lru:
                            del lru[first]
                            lru[first] = None
                            slots[_SLOT_LLC_HIT] += 1
                            clock._now_ns = (clock._now_ns
                                             + self._chg_hit)
                        else:
                            if len(lru) >= self._llc_assoc:
                                del lru[next(iter(lru))]
                            lru[first] = None
                            slots[_SLOT_LLC_MISS] += 1
                            if prm:
                                slots[_SLOT_MEE_LINE_ENC if write
                                      else _SLOT_MEE_LINE_DEC] += 1
                                clock._now_ns = (
                                    clock._now_ns
                                    + self._chg_miss_mee)
                            else:
                                clock._now_ns = (clock._now_ns
                                                 + self._chg_miss)
                    else:
                        # Multi-line access: the tlb_hit charge
                        # folded into Machine._charge_lines' body.
                        # Kept inline rather than delegated: the
                        # extra call cost about 2.5% of the ring
                        # bench's ops/s (2-CPU box, Python 3.11);
                        # multi-line serves are a quarter of its
                        # validated accesses.
                        total = self._tlb_hit_ns
                        hits, misses = self._llc_range(paddr, size)
                        if hits:
                            slots[_SLOT_LLC_HIT] += hits
                            total += hits * self._cache_hit_ns
                        if misses:
                            slots[_SLOT_LLC_MISS] += misses
                            total += misses * self._dram_access_ns
                            if prm:
                                slots[_SLOT_MEE_LINE_ENC if write
                                      else _SLOT_MEE_LINE_DEC] += misses
                                total += misses * self._mee_line_ns
                        clock._now_ns = clock._now_ns + total
                    if write:
                        if prm and self._mee_bytes:
                            self.machine._write_prm_plaintext(paddr,
                                                              data)
                            return None
                        frames = self._frames
                        frame = frames.get(entry.pfn)
                        if frame is None:
                            frame = bytearray(PAGE_SIZE)
                            frames[entry.pfn] = frame
                        frame[off:off + size] = data
                        return None
                    if prm and self._mee_bytes:
                        return self.machine._read_prm_plaintext(
                            paddr, size)
                    frame = self._frames.get(entry.pfn)
                    if frame is None:
                        return bytes(size)
                    return bytes(frame[off:off + size])
        out = None if write else bytearray()
        pos = 0
        while pos < size:  # flow: charged — zero-length access is free
            entry = self._translate(vaddr, write)
            off = vaddr & _PAGE_MASK
            chunk = min(size - pos, PAGE_SIZE - off)
            paddr = (entry.pfn << PAGE_SHIFT) | off
            if write:
                self._memside_write(paddr, data[pos:pos + chunk])
            else:
                out += self._memside_read(paddr, chunk)
            vaddr += chunk
            pos += chunk
        return None if write else bytes(out)

    # convenience accessors used heavily by enclave application code
    def read_u64(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 8), "little")

    def write_u64(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & (2**64 - 1)).to_bytes(8, "little"))
