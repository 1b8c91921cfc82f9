"""The simulated machine: cores + memory system + SGX state.

A :class:`Machine` owns

* the physical memory, PRM/EPC geometry and EPC allocator,
* the EPCM, the MEE and the LLC model,
* the enclave registry (EID → SECS) and TCS registry,
* one access validator (baseline Fig. 2 or nested Fig. 6),
* the simulated clock, the event counters and the cost model (which
  derives the time of every counted event from those counters),
* ``num_cores`` :class:`~repro.sgx.cpu.Core` objects.

Memory-side path
----------------
``memside_read``/``memside_write`` model the LLC→MEE→DRAM path that every
*validated* access takes after translation.  Lines resident in the LLC are
plaintext inside the CPU package and cost a cache hit; lines missing to the
PRM pass through the MEE (decrypt on fill, encrypt on writeback) and cost
DRAM + MEE time; both accessors charge through :meth:`Machine._charge_lines`
and move bytes through :class:`~repro.sgx.memory.PhysicalMemory` (or the
PRM plaintext helpers).  When ``config.mee_encrypt_bytes`` is set, the bytes in
simulated DRAM for PRM lines hold genuine ciphertext whenever anything
outside the package reads them: a writeback only records the line with
the MEE, and :class:`~repro.sgx.memory.PhysicalMemory` has the MEE encrypt
a frame's recorded lines into it before any raw access observes the
frame.  Physical-attack tests read :attr:`phys` directly and verify they
cannot see plaintext.

ISA leaves ("microcode") use the same memory-side helpers but bypass the
core's TLB/validation pipeline, exactly as microcode does on real parts.
"""

from __future__ import annotations

import hashlib
import os

from repro.errors import SgxFault
from repro.perf import counters as ctr
from repro.perf.cache import LlcModel
from repro.perf.costmodel import CostModel, CostParams, SimClock
from repro.perf.counters import Counters
from repro.sgx.access import BaselineValidator
from repro.sgx.constants import CACHELINE_SIZE, MachineConfig
from repro.sgx.cpu import Core
from repro.sgx.epcm import Epcm
from repro.sgx.mee import Mee
from repro.sgx.memory import EpcAllocator, PhysicalMemory
from repro.sgx.paging import AddressSpace
from repro.sgx.secs import Secs, Tcs
from repro.sgx.transitions import TransitionLog, register as _register_log


class Machine:
    """A whole simulated system."""

    def __init__(self, config: MachineConfig | None = None,
                 validator_cls: type[BaselineValidator] = BaselineValidator,
                 cost_params: CostParams | None = None) -> None:
        self.config = config or MachineConfig()
        # Hot-path constants (PRM bounds, MEE byte-accuracy flag) hoisted
        # out of the per-access path; MachineConfig is never mutated
        # after construction.
        self._prm_lo = self.config.prm_base
        self._prm_hi = self.config.prm_base + self.config.prm_bytes
        self._mee_bytes = self.config.mee_encrypt_bytes
        self._dram_bytes = self.config.dram_bytes
        self.phys = PhysicalMemory(self.config)
        self.epc_alloc = EpcAllocator(self.config)
        self.epcm = Epcm(self.config)
        self.mee = Mee(self.config)
        # Raw DRAM settles the MEE's stale lines before it is observed.
        self.phys.watch(self.mee.stale, self.mee.settle)
        self.llc = LlcModel(self.config.llc_bytes)
        self.clock = SimClock()
        self.counters = Counters()
        self.cost = CostModel(self.clock, cost_params, self.counters)
        # Hot-path aliases.  ``llc``/``cost``/``counters`` are never
        # rebound after construction and ``Counters.reset`` clears the
        # slot list in place, so these references stay valid for the
        # machine's lifetime.
        self._llc_range = self.llc.access_range
        self._slots = self.counters.slots
        self._cache_hit_ns = self.cost._cache_hit_ns
        self._dram_access_ns = self.cost._dram_access_ns
        self._mee_line_ns = self.cost._mee_line_ns
        self.validator = validator_cls(self)
        #: First-class transition event log (ISSUE 6): every lifecycle/
        #: transition/AEX/resume/EWB/ELDB leaf records here through
        #: :meth:`log_transition`.  Recording charges nothing and bumps
        #: no counter, so the golden machine fingerprints are untouched.
        self.transitions = TransitionLog()
        _register_log(self.transitions)
        self.cores = [Core(self, i) for i in range(self.config.num_cores)]
        self.enclaves: dict[int, Secs] = {}
        self.tcs_registry: dict[tuple[int, int], Tcs] = {}
        self._address_spaces: list[AddressSpace] = []
        # Fused per-package secret EGETKEY/EREPORT derivations hang off.
        self.root_secret = hashlib.sha256(b"repro-package-fuse").digest()
        #: Fault-injection engine (repro.faults.engine.FaultEngine); None
        #: in normal runs.  Chaos runs thread a serialized FaultPlan to
        #: worker processes through the environment, so every Machine a
        #: replayed experiment builds gets the same plan attached.
        self.fault_engine = None
        plan_json = os.environ.get("REPRO_FAULT_PLAN")
        if plan_json:
            from repro.faults.engine import attach_engine
            attach_engine(self, plan_json)

    def log_transition(self, kind: str, core_id: int | None = None, *,
                       eid: int = 0, tcs: int = 0, depth: int = 0,
                       **extra) -> None:
        """Record one transition event (the ISSUE 6 logging seam).

        Unlike :meth:`trace` this is unconditional: the log is a
        determinism observable, so it must have identical contents
        whether or not anyone is watching.  It charges no simulated
        cost.  Key material must never appear in ``extra`` — the log is
        an untrusted-observable artifact (flow rule FLOW001).
        """
        self.transitions.record(kind, core_id, eid, tcs, depth, extra)

    def encrypt_prm_bytes(self) -> None:
        """Keep byte-accurate MEE ciphertext in DRAM from now on, as if
        built with ``config.mee_encrypt_bytes``.  Every core's hot-path
        copy of the flag follows, so TLB-hit serves take the MEE too."""
        self._mee_bytes = True
        for core in self.cores:
            core._mee_bytes = True

    # -- registries -----------------------------------------------------------
    def enclave(self, eid: int) -> Secs:
        secs = self.enclaves.get(eid)
        if secs is None:
            raise SgxFault(f"no enclave with EID {eid:#x}")
        return secs

    def tcs(self, eid: int, vaddr: int) -> Tcs:
        tcs = self.tcs_registry.get((eid, vaddr))
        if tcs is None:
            raise SgxFault(f"no TCS at {vaddr:#x} for enclave {eid:#x}")
        return tcs

    def new_address_space(self, name: str = "proc") -> AddressSpace:
        space = AddressSpace(name)
        self._address_spaces.append(space)
        return space

    # -- memory-side path (post-validation, LLC + MEE) ------------------------
    def _charge_lines(self, paddr: int, size: int, *, writeback: bool) -> None:
        """Charge LLC/MEE/DRAM costs for touching [paddr, paddr+size).

        The one memory-side charge body: ``memside_read``/``memside_write``
        and cost-model-only callers (the GCM channel's modelled scratch
        traffic) all charge here; only the inline TLB-hit serve in
        ``Core._access`` inlines a copy.  Aggregated: one counter add per
        event kind and a single clock advance per access instead of per
        line.  The counters are the only record: the cost breakdown
        derives ``cache_hit``/``dram``/``mee`` from them.  The regrouping
        is bit-identical: every CostParams latency is a multiple of
        0.5 ns, so each ``count * latency`` addend and every partial sum
        is an exactly representable dyadic float, and float addition of
        such values is associative.
        """
        hits, misses = self._llc_range(paddr, size)
        slots = self._slots
        total = 0.0
        if hits:
            slots[ctr.SLOT_LLC_HIT] += hits
            total = hits * self._cache_hit_ns
        if misses:
            slots[ctr.SLOT_LLC_MISS] += misses
            total += misses * self._dram_access_ns
            if self._prm_lo <= paddr < self._prm_hi:
                which = (ctr.SLOT_MEE_LINE_ENC if writeback
                         else ctr.SLOT_MEE_LINE_DEC)
                slots[which] += misses
                total += misses * self._mee_line_ns
        clock = self.clock
        clock._now_ns = clock._now_ns + total

    def memside_read(self, paddr: int, size: int) -> bytes:
        self._charge_lines(paddr, size, writeback=False)
        if self._mee_bytes and self._prm_lo <= paddr < self._prm_hi:
            return self._read_prm_plaintext(paddr, size)
        return self.phys.read(paddr, size)

    def memside_write(self, paddr: int, data: bytes) -> None:
        self._charge_lines(paddr, len(data), writeback=True)
        if self._mee_bytes and self._prm_lo <= paddr < self._prm_hi:
            self._write_prm_plaintext(paddr, data)
            return
        self.phys.write(paddr, data)

    # PRM plaintext helpers: DRAM holds ciphertext whenever anything
    # outside the package reads it; the package-internal view is
    # plaintext.  A writeback only records its line-aligned span with the
    # MEE, and a fill reads DRAM once unless every line of it is stale.
    def _fill(self, first: int, size: int) -> bytes:
        """Plaintext of the line-aligned span ``[first, first+size)``."""
        mee = self.mee
        plain = mee.stale_plaintext(first, size)
        if plain is None:
            plain = mee.decrypt_lines(first, self.phys.read(first, size))
        return plain

    def _read_prm_plaintext(self, paddr: int, size: int) -> bytes:
        if size <= 0:
            return b""
        first = paddr & -CACHELINE_SIZE
        end = (paddr + size + CACHELINE_SIZE - 1) & -CACHELINE_SIZE
        off = paddr - first
        return self._fill(first, end - first)[off:off + size]

    def _write_prm_plaintext(self, paddr: int, data: bytes) -> None:
        """Read-modify-write at cacheline granularity: only a partial
        head or tail line is filled, and both are verified before any
        line is written back."""
        size = len(data)
        if not size:
            return
        line = CACHELINE_SIZE
        first = paddr & -line
        head_off = paddr - first
        end = paddr + size
        tail_off = end & (line - 1)
        last = end - tail_off
        head = tail = b""
        if head_off:
            plain = self._fill(first, line)
            head = plain[:head_off]
        if tail_off:
            if not head_off or last != first:
                plain = self._fill(last, line)
            tail = plain[tail_off:]
        self.mee.writeback(first, head + data + tail)

    # -- EPC helpers for microcode (no TLB, no validation) ---------------------
    def epc_read(self, paddr: int, size: int) -> bytes:
        if not self.phys.in_epc(paddr):
            raise SgxFault(f"{paddr:#x} is not in the EPC")
        return self.memside_read(paddr, size)

    def epc_write(self, paddr: int, data: bytes) -> None:
        if not self.phys.in_epc(paddr):
            raise SgxFault(f"{paddr:#x} is not in the EPC")
        self.memside_write(paddr, data)

    def dram_ciphertext(self, paddr: int, size: int) -> bytes:
        """What a physical DRAM attacker observes (no MEE, no charging)."""
        return self.phys.read(paddr, size)

    # -- global TLB operations -------------------------------------------------
    def flush_all_tlbs(self) -> None:
        """IPI broadcast + flush on every core (the 'simplified, costlier'
        shootdown of §IV-E)."""
        # flow: charged — each iteration charges one IPI; a machine with
        # zero cores has no TLBs to shoot down.
        for core in self.cores:  # flow: charged
            self.cost.charge_event("ipi")
            core.flush_tlb()

    def cores_with_pfn(self, pfn: int) -> list[Core]:
        """Cores whose TLB currently caches a translation to ``pfn``."""
        return [c for c in self.cores
                if any(e.pfn == pfn for e in c.tlb.entries())]
