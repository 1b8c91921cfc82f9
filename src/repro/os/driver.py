"""The (untrusted) SGX kernel driver.

Orchestrates the privileged half of the enclave lifecycle — allocating
virtual regions, issuing ECREATE/EADD/EEXTEND/EINIT, maintaining page
tables, executing NASSO on behalf of user space (NASSO is a kernel-
privilege instruction, paper Table I), and running the EPC eviction
protocol when the EPC fills up.

The driver is untrusted: a buggy or malicious driver can *refuse* service
(denial of service is out of scope, §III-B) but cannot break enclave
confidentiality or integrity — every claim it makes is re-validated by
the ISA leaves and the access automaton.  Tests in
``tests/os/test_malicious.py`` drive hostile variants to prove that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SgxFault
from repro.sgx import eviction, isa
from repro.sgx.constants import PAGE_SIZE, PT_REG, PT_TCS
from repro.sgx.secs import Secs

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.kernel import Kernel, Process
    from repro.sdk.builder import EnclaveImage


@dataclass
class LoadedEnclave:
    """Driver bookkeeping for one loaded enclave."""

    secs: Secs
    proc: "Process"
    image: "EnclaveImage"
    base_addr: int
    #: vaddr -> current EPC frame, for pages the driver may evict/reload.
    resident: dict[int, int]
    #: vaddr -> sealed blob, for pages currently evicted.
    evicted: dict[int, eviction.EvictedPage]


class SgxDriver:
    """Privileged enclave-management service."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.loaded: dict[int, LoadedEnclave] = {}
        #: The version array new evictions take slots from.
        self._va: eviction.VersionArray | None = None
        #: Every version array allocated, by frame: a page sealed under
        #: a retired (full) one reloads against that one.
        self._vas: dict[int, eviction.VersionArray] = {}

    # -- loading ---------------------------------------------------------------
    def load_enclave(self, proc: "Process", image: "EnclaveImage") -> Secs:
        """Create, populate, measure and initialise an enclave.

        Follows the paper's Fig. 4 steps 1–2 (per-enclave creation); the
        NASSO association (step 3) is a separate :meth:`associate` call
        once both enclaves of a pair are initialised.
        """
        base = proc.space.reserve(image.size_bytes, align=PAGE_SIZE)
        secs = isa.ecreate(self.machine, base, image.size_bytes,
                           attributes=image.attributes)
        resident: dict[int, int] = {}
        for page in image.iter_pages():
            vaddr = base + page.offset
            frame = isa.eadd(
                self.machine, secs, vaddr,
                page_type=PT_TCS if page.is_tcs else PT_REG,
                perms=page.perms, content=page.content,
                tcs_entry=page.tcs_entry)
            proc.space.map_page(vaddr, frame)
            resident[vaddr] = frame
            if page.measured:
                isa.eextend(self.machine, secs, vaddr, page.content)
        isa.einit(self.machine, secs, image.sigstruct)
        self.loaded[secs.eid] = LoadedEnclave(
            secs=secs, proc=proc, image=image, base_addr=base,
            resident=resident, evicted={})
        return secs

    def associate(self, inner: Secs, outer: Secs, *,
                  allow_lattice: bool = False) -> None:
        """Kernel-privilege NASSO wrapper (ioctl in the paper's SDK).

        Enforces the paper's §IV-A constraint that an inner enclave and
        its outer enclave live in the same process — their ELRANGEs must
        share one address space for the inner's direct loads/stores to
        outer memory to even be expressible.
        """
        inner_entry = self.loaded.get(inner.eid)
        outer_entry = self.loaded.get(outer.eid)
        if inner_entry is None or outer_entry is None:
            raise SgxFault("NASSO on enclaves not loaded by this driver")
        if inner_entry.proc is not outer_entry.proc:
            raise SgxFault(
                "NASSO requires both enclaves in the same process "
                "(paper §IV-A)")
        from repro.core.association import nasso
        nasso(self.machine, inner, outer, allow_lattice=allow_lattice)

    def unload_enclave(self, secs: Secs) -> None:
        entry = self.loaded.pop(secs.eid, None)
        if entry is None:
            raise SgxFault("enclave not loaded by this driver")
        for vaddr in entry.resident:
            entry.proc.space.unmap_page(vaddr)
        for blob in entry.evicted.values():
            # The blob goes with the enclave, so no ELDB will take the
            # page keystream its EWB kept.
            self._vas[blob.va_frame].streams.pop(blob.va_slot, None)
        isa.eremove(self.machine, secs)
        # EREMOVE every version array left holding no blob of a loaded
        # enclave: no ELDB can consume its slots any more.
        live = {blob.va_frame for loaded in self.loaded.values()
                for blob in loaded.evicted.values()}
        for frame in [f for f in self._vas if f not in live]:
            del self._vas[frame]
            self.machine.epcm.clear(frame)
            self.machine.epc_alloc.free(frame)
            if self._va is not None and self._va.frame == frame:
                self._va = None

    # -- eviction service --------------------------------------------------------
    def _version_array(self) -> eviction.VersionArray:
        if self._va is None or all(s is not None for s in self._va.slots):
            self._va = eviction.alloc_version_array(self.machine)
            self._vas[self._va.frame] = self._va
        return self._va

    def evict_page(self, secs: Secs, vaddr: int, *,
                   include_inner: bool = True) -> None:
        """Run the full EBLOCK/ETRACK/AEX/EWB protocol on one page.

        ``include_inner=False`` deliberately skips the nested tracking
        extension — used by the D2 ablation and by the security test that
        shows why unextended tracking is unsafe for outer enclaves.
        """
        entry = self.loaded[secs.eid]
        frame = entry.resident.get(vaddr)
        if frame is None:
            raise SgxFault(f"page {vaddr:#x} is not resident")
        eviction.eblock(self.machine, frame)
        epoch = eviction.etrack(self.machine, secs,
                                include_inner=include_inner)
        interrupted = self.kernel.scheduler.interrupt_enclave_cores(
            epoch.tracked_eids)
        blob = eviction.ewb(self.machine, frame, self._version_array(),
                            epoch)
        del entry.resident[vaddr]
        entry.evicted[vaddr] = blob
        entry.proc.space.mark_not_present(vaddr)
        self.machine.log_transition("EVICT", eid=secs.eid, vaddr=vaddr,
                                    interrupted=len(interrupted))
        # The interrupted threads' contexts stay parked in their TCSes;
        # the runtime resumes them via ERESUME when it next runs them.
        self._interrupted = interrupted

    def reload_page(self, secs: Secs, vaddr: int) -> None:
        """#PF handler path: bring an evicted page back with ELDB."""
        entry = self.loaded[secs.eid]
        blob = entry.evicted.pop(vaddr, None)
        if blob is None:
            raise SgxFault(f"page {vaddr:#x} was not evicted")
        va = self._vas.get(blob.va_frame)
        if va is None:
            raise SgxFault(f"no version array at frame {blob.va_frame:#x}")
        frame = eviction.eldb(self.machine, blob, va)
        entry.resident[vaddr] = frame
        entry.proc.space.mark_present(vaddr, frame)
        self.machine.log_transition("RELOAD", eid=secs.eid, vaddr=vaddr)

    def handle_page_fault(self, secs: Secs, fault_vaddr: int) -> bool:
        """OS #PF handler: reload if this is one of ours. True if fixed."""
        page = fault_vaddr & ~(PAGE_SIZE - 1)
        entry = self.loaded.get(secs.eid)
        if entry is not None and page in entry.evicted:
            self.reload_page(secs, page)
            return True
        return False

    # -- EPC pressure daemon -------------------------------------------------
    def reclaim_epc(self, target_free_pages: int) -> int:
        """Evict resident pages until ``target_free_pages`` are free.

        The policy is deliberately simple (round-robin over loaded
        enclaves, highest heap addresses first — cold pages in this
        simulator's layouts); real drivers use an LRU approximation.
        Returns the number of pages evicted.  Outer enclaves use the
        extended §IV-E tracking automatically.
        """
        evicted = 0
        victims = sorted(self.loaded.values(),
                         key=lambda e: -len(e.resident))
        for entry in victims:
            if self.machine.epc_alloc.free_pages >= target_free_pages:
                break
            # Never evict TCS-backing or code pages in this simple
            # policy: stick to the heap region (data-only, no live
            # entry points).
            heap_base = entry.base_addr + entry.image.heap_offset
            heap_end = heap_base + entry.image.heap_bytes
            candidates = sorted(
                (v for v in entry.resident
                 if heap_base <= v < heap_end), reverse=True)
            for vaddr in candidates:
                if self.machine.epc_alloc.free_pages \
                        >= target_free_pages:
                    break
                self.evict_page(entry.secs, vaddr)
                evicted += 1
        return evicted
