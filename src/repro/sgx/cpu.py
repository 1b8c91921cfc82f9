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
from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE, PERM_R, PERM_W
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
        # Access plan, the core's only translation cache: vpn -> (entry,
        # base_paddr, prm, crypto) for pages this core has validated,
        # live only while ``_plan_gen == tlb.content_gen``.  content_gen
        # moves on every event that can change which translations are
        # valid (transition flushes, shootdowns, invalidation, restore,
        # every insert), so a live plan page provably is in the TLB.  The
        # *frame* is looked up at serve time, never cached: EREMOVE drops
        # frames without flushing TLBs.
        self._plan: dict[int, tuple] = {}
        self._plan_gen = -1
        # Reference mode: the plan stays dead (content_gen starts at 0
        # and only grows; _translate skips the compile), so every access
        # takes the full Tlb.lookup path — difffuzz's slow oracle.
        self._reference = machine.config.reference_paths
        if self._reference:
            self._plan_gen = -2
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
        # Single-line LLC probe, inlined into the plan fast path: the
        # model's internals (set list, geometry) and the memory-system
        # unit costs, plus the three possible fused single-line charges
        # precomputed with the exact association the generic path uses
        # (tlb, then +llc, then +mee — each partial sum is an exact
        # dyadic float, see CostModel.charge_run).
        llc = machine.llc
        self._llc = llc
        self._llc_sets = llc._sets
        self._llc_nsets = llc.num_sets
        self._llc_ways = llc.ways
        self._llc_lb = llc.line_bytes
        cost = machine.cost
        self._breakdown = cost.breakdown
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
        self.machine.counters.bump(ctr.TLB_FLUSH)

    # -- access-plan compilation -----------------------------------------------
    def _plan_add(self, vpn: int, entry: TlbEntry) -> None:
        """Compile a validated translation into the access plan.

        Called from every successful ``_translate`` (TLB hit or fill).
        A stale plan (``content_gen`` moved) is cleared and restamped
        here — the stamp is taken *after* any insert, so the insert's own
        ``content_gen`` bump is already included and the fresh entry is
        immediately servable.  Pages that straddle DRAM or the PRM
        boundary are left to the slow path: the plan's per-page ``prm``
        and ``crypto`` flags must be constant across the page for the
        fused charge to be exact.
        """
        tlb = self.tlb
        gen = tlb.content_gen
        if self._plan_gen != gen:
            self._plan.clear()
            self._plan_gen = gen
        base = entry.pfn << PAGE_SHIFT
        if base < 0 or base + PAGE_SIZE > self._dram_bytes:
            return
        prm = self._prm_lo <= base < self._prm_hi
        if prm != (self._prm_lo <= base + PAGE_SIZE - 1 < self._prm_hi):
            return
        self._plan[vpn] = (entry, base, prm, self._mee_bytes and prm)

    def plan_capture(self) -> tuple:
        """Plan-cache state for snapshot/restore (bounded model checking).

        In normal worlds a restored stamp is always dead on arrival —
        ``content_gen`` is monotonic and ``Tlb.restore`` bumps it, so
        the captured stamp can never equal the post-restore epoch.  The
        model checker's ``plan-cache-skips-validation`` mutant freezes
        the epoch, and then this capture is what makes its stale-plan
        states replayable.
        """
        return (self._plan_gen, tuple(self._plan.items()))

    def plan_restore(self, snapshot: tuple) -> None:
        gen, items = snapshot
        self._plan_gen = gen
        self._plan.clear()
        self._plan.update(items)

    # -- the memory pipeline ------------------------------------------------------
    def _translate(self, vaddr: int, write: bool) -> TlbEntry:
        """TLB lookup; on miss, page walk + access validation + fill.

        Every successful translation is compiled into the access plan
        (outside reference mode), so the next access to the page is
        served by the plan fast path in :meth:`_access`.
        """
        vpn = vaddr >> PAGE_SHIFT
        tlb = self.tlb
        machine = self.machine
        entry = tlb.lookup(vpn)
        if entry is not None:
            self._slots[ctr.SLOT_TLB_HIT] += 1
            self._cost.charge_event("tlb_hit")
        else:
            self._slots[ctr.SLOT_TLB_MISS] += 1
            self._cost.charge_event("tlb_miss_walk")
            if self.address_space is None:
                raise PageFault("core has no address space", vaddr)
            pte = self.address_space.walk(vaddr)
            if pte is None or not pte.present:
                raise PageFault(f"no present mapping for {vaddr:#x}", vaddr)
            decision = machine.validator.validate(self, vaddr, pte)
            if decision.action == PAGE_FAULT:
                machine.trace("PAGE_FAULT", self.core_id,
                              vaddr=hex(vaddr), reason=decision.reason)
                raise PageFault(
                    f"#PF at {vaddr:#x}: {decision.reason}", vaddr)
            if decision.action == ABORT:
                machine.trace("ACCESS_VIOLATION", self.core_id,
                              vaddr=hex(vaddr), reason=decision.reason)
                raise AccessViolation(
                    f"access violation at {vaddr:#x}: {decision.reason}",
                    vaddr)
            assert decision.action == INSERT
            entry = TlbEntry(vpn=vpn, pfn=pte.pfn, perms=decision.perms,
                             context_eid=self.current_eid)
            tlb.insert(entry)
        if not self._reference:
            self._plan_add(vpn, entry)
        needed = PERM_W if write else PERM_R
        if not entry.perms & needed:
            kind = "write" if write else "read"
            raise PageFault(f"{kind} permission denied at {vaddr:#x}", vaddr)
        return entry

    def _plan_run(self, vaddr: int, size: int, data: bytes | None):
        """Serve a contiguous multi-page access entirely from the plan.

        Returns ``None`` — caller falls back to the per-page loop —
        unless *every* page of the run is compiled with the needed
        permission: a mid-run fault or recompile must reproduce the
        reference path's partial charging and partial writes exactly,
        so runs are all-or-nothing.  Pages are promoted and their LLC
        lines touched in ascending VA order (identical to the per-page
        loop, so future capacity evictions and LLC state cannot
        diverge); the tlb_hit/LLC/MEE charges for the whole run are
        applied as one fused ``charge_run`` pair at the end.
        """
        plan = self._plan
        needed = PERM_R if data is None else PERM_W
        first = vaddr >> PAGE_SHIFT
        vpn = first
        last = (vaddr + size - 1) >> PAGE_SHIFT
        recs = []
        while vpn <= last:
            rec = plan.get(vpn)
            if rec is None or not rec[0].perms & needed:
                # Decline: no memory touched; the caller falls back to
                # the per-page slow path, which charges.
                return None  # flow: charged
            recs.append(rec)
            vpn += 1
        tlb = self.tlb
        entries = tlb._entries
        capacity = tlb.capacity
        llc_range = self._llc_range
        frames = self._frames
        machine = self.machine
        out = bytearray() if data is None else None
        hits = misses = mee = 0
        off = vaddr & (PAGE_SIZE - 1)
        pos = 0
        vpn = first
        for rec in recs:
            entry, base, prm, crypto = rec
            chunk = PAGE_SIZE - off
            if chunk > size - pos:
                chunk = size - pos
            paddr = base | off
            h, m = llc_range(paddr, chunk)
            hits += h
            if m:
                misses += m
                if prm:
                    mee += m
            entries.pop(vpn, None)
            entries[vpn] = entry
            if len(entries) > capacity:
                del entries[next(iter(entries))]
            if data is None:
                if crypto:
                    out += machine._read_prm_plaintext(paddr, chunk)
                else:
                    frame = frames.get(entry.pfn)
                    if frame is None:
                        out += bytes(chunk)
                    else:
                        out += frame[off:off + chunk]
            else:
                piece = data[pos:pos + chunk]
                if crypto:
                    machine._write_prm_plaintext(paddr, piece)
                else:
                    frame = frames.get(entry.pfn)
                    if frame is None:
                        frame = bytearray(PAGE_SIZE)
                        frames[entry.pfn] = frame
                    frame[off:off + chunk] = piece
            pos += chunk
            off = 0
            vpn += 1
        npages = len(recs)
        if data is None:
            dec, enc = mee, 0
        else:
            dec, enc = 0, mee
        machine.counters.charge_run(npages, hits, misses, dec, enc)
        self._cost.charge_run(npages, hits, misses, mee)
        return bytes(out) if data is None else True

    def read(self, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes of virtual memory with full protection."""
        return self._access(vaddr, size, None)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write ``data`` to virtual memory with full protection."""
        self._access(vaddr, len(data), data)

    def _access(self, vaddr: int, size: int, data: bytes | None):
        """The one read/write body; ``data is None`` means a read.

        A single-page access to a planned page is served inline: the
        LRU promotion ``Tlb.lookup`` would perform, one fused charge
        (FP-exact, see CostModel.charge_run) and the memside byte move.
        The pop-with-default and capacity guard keep even a broken
        model-checker mutant from crashing.  Multi-page accesses try
        ``_plan_run``; everything else takes the per-page loop.
        """
        write = data is not None
        hook = self.access_hook
        if hook is not None:
            hook(self, vaddr, write)
        off = vaddr & _PAGE_MASK
        if 0 < size <= PAGE_SIZE - off:
            tlb = self.tlb
            if self._plan_gen == tlb.content_gen:
                vpn = vaddr >> PAGE_SHIFT
                rec = self._plan.get(vpn)
                if rec is not None:
                    entry, base, prm, crypto = rec
                    if entry.perms & (PERM_W if write else PERM_R):
                        entries = tlb._entries
                        entries.pop(vpn, None)
                        entries[vpn] = entry
                        if len(entries) > tlb.capacity:
                            del entries[next(iter(entries))]
                        paddr = base | off
                        slots = self._slots
                        slots[_SLOT_TLB_HIT] += 1
                        breakdown = self._breakdown
                        clock = self._clock
                        lb = self._llc_lb
                        first = paddr - (paddr % lb)
                        if paddr + size - first <= lb:
                            # Single-line access: LLC probe and fused
                            # charge inlined (same state transitions
                            # and charge association as LlcModel.
                            # access_range + the generic branch below).
                            llc = self._llc
                            lru = self._llc_sets[
                                (first // lb) % self._llc_nsets]
                            if first in lru:
                                del lru[first]
                                lru[first] = None
                                llc.hits += 1
                                slots[_SLOT_LLC_HIT] += 1
                                breakdown["tlb_hit"] += self._tlb_hit_ns
                                breakdown["cache_hit"] += \
                                    self._cache_hit_ns
                                clock._now_ns = (clock._now_ns
                                                 + self._chg_hit)
                            else:
                                llc.misses += 1
                                if len(lru) >= self._llc_ways:
                                    del lru[next(iter(lru))]
                                    llc.evictions += 1
                                lru[first] = None
                                slots[_SLOT_LLC_MISS] += 1
                                breakdown["tlb_hit"] += self._tlb_hit_ns
                                breakdown["dram"] += \
                                    self._dram_access_ns
                                if prm:
                                    slots[_SLOT_MEE_LINE_ENC if write
                                          else _SLOT_MEE_LINE_DEC] += 1
                                    breakdown["mee"] += \
                                        self._mee_line_ns
                                    clock._now_ns = (
                                        clock._now_ns
                                        + self._chg_miss_mee)
                                else:
                                    clock._now_ns = (clock._now_ns
                                                     + self._chg_miss)
                        else:
                            total = self._tlb_hit_ns
                            breakdown["tlb_hit"] += total
                            hits, misses = self._llc_range(paddr, size)
                            if hits:
                                slots[_SLOT_LLC_HIT] += hits
                                ns = hits * self._cache_hit_ns
                                breakdown["cache_hit"] += ns
                                total += ns
                            if misses:
                                slots[_SLOT_LLC_MISS] += misses
                                ns = misses * self._dram_access_ns
                                breakdown["dram"] += ns
                                total += ns
                                if prm:
                                    slots[_SLOT_MEE_LINE_ENC if write
                                          else _SLOT_MEE_LINE_DEC] += misses
                                    ns = misses * self._mee_line_ns
                                    breakdown["mee"] += ns
                                    total += ns
                            clock._now_ns = clock._now_ns + total
                        if write:
                            if crypto:
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
                        if crypto:
                            return self.machine._read_prm_plaintext(
                                paddr, size)
                        frame = self._frames.get(entry.pfn)
                        if frame is None:
                            return bytes(size)
                        return bytes(frame[off:off + size])
        elif size > 0 and self._plan_gen == self.tlb.content_gen:
            run = self._plan_run(vaddr, size, data)
            if run is not None:
                return run
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
