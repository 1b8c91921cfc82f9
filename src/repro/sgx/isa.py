"""Baseline SGX instruction leaves.

Each leaf is a module-level function taking the :class:`Machine` (the
"microcode" view: full physical access, no TLB) plus its architectural
operands.  Enclave *code* in this simulator is ordinary Python registered
as entry points; the ISA manages only the security state machine —
lifecycle (ECREATE → EADD/EEXTEND → EINIT), transitions (EENTER/EEXIT,
AEX/ERESUME) and attestation (EREPORT/EGETKEY).  The nested leaves
(NASSO/NEENTER/NEEXIT/NEREPORT) live in :mod:`repro.core.nested_isa`.

Faults follow the paper: invalid transition invocations raise
:class:`~repro.errors.GeneralProtectionFault` ("Any invalid invocation
results in a general protection fault (GP)", §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import hkdf, mac, mac_verify
from repro.errors import (EnclaveStateError, GeneralProtectionFault,
                          SigstructInvalid, TcsBusy)
from repro.sgx.constants import (PAGE_SIZE, PERM_RWX, PT_REG, PT_SECS,
                                 PT_TCS, ST_DESTROYED, ST_INITIALIZED,
                                 ST_UNINITIALIZED, TCS_ACTIVE, TCS_IDLE)
from repro.sgx.cpu import Core
from repro.sgx.machine import Machine
from repro.sgx.measure import MeasurementLog
from repro.sgx.secs import Secs, Tcs
from repro.sgx.sigstruct import Sigstruct


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def ecreate(machine: Machine, base_addr: int, size: int,
            attributes: int = 0) -> Secs:
    """Create an enclave: allocate its SECS page, fix its ELRANGE.

    The ELRANGE must be page aligned and contiguous (paper §II-B); it is
    immutable for the life of the enclave.
    """
    if base_addr % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
        raise GeneralProtectionFault("ELRANGE must be page aligned")
    secs_paddr = machine.epc_alloc.alloc()
    machine.epcm.set(secs_paddr, eid=0, page_type=PT_SECS, vaddr=0)
    secs = Secs(eid=secs_paddr, base_addr=base_addr, size=size,
                attributes=attributes)
    machine.enclaves[secs_paddr] = secs
    # Measurement uses ELRANGE-relative offsets (as real SGX does), so an
    # image's expected MRENCLAVE is independent of where the OS maps it.
    secs.measurement_log.ecreate(0, size)
    machine.cost.charge_event("ecreate")
    machine.log_transition("ECREATE", eid=secs.eid)
    return secs


def eadd(machine: Machine, secs: Secs, vaddr: int, *,
         page_type: str = PT_REG, perms: int = PERM_RWX,
         content: bytes = b"", tcs_entry: str | None = None) -> int:
    """Add one page to an enclave; returns the EPC frame address.

    The caller (the OS driver) must separately map ``vaddr → frame`` in the
    host page table — the hardware does not touch page tables.
    """
    if secs.state != ST_UNINITIALIZED:
        raise EnclaveStateError("EADD after EINIT (no SGX2 in this model)")
    if vaddr % PAGE_SIZE:
        raise GeneralProtectionFault("EADD target must be page aligned")
    if not secs.contains_vaddr(vaddr):
        raise GeneralProtectionFault(
            f"EADD target {vaddr:#x} outside ELRANGE")
    if len(content) > PAGE_SIZE:
        raise GeneralProtectionFault("page content exceeds a page")
    if page_type not in (PT_REG, PT_TCS):
        raise GeneralProtectionFault(f"EADD cannot add {page_type} pages")
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=secs.eid, page_type=page_type,
                     vaddr=vaddr, perms=perms)
    if content:
        machine.epc_write(frame, content.ljust(PAGE_SIZE, b"\x00"))
    secs.measurement_log.eadd(vaddr - secs.base_addr, page_type, perms)
    if page_type == PT_TCS:
        if tcs_entry is None:
            raise GeneralProtectionFault("TCS page needs an entry point")
        tcs = Tcs(vaddr=vaddr, eid=secs.eid, entry=tcs_entry)
        machine.tcs_registry[(secs.eid, vaddr)] = tcs
        secs.tcs_vaddrs.append(vaddr)
    machine.cost.charge_event("eadd_page")
    return frame


def eextend(machine: Machine, secs: Secs, vaddr: int,
            content: bytes) -> None:
    """Measure a previously added page's contents into MRENCLAVE."""
    if secs.state != ST_UNINITIALIZED:
        raise EnclaveStateError("EEXTEND after EINIT")
    secs.measurement_log.eextend(vaddr - secs.base_addr, content)
    machine.cost.charge_event("eextend_page")


def einit(machine: Machine, secs: Secs, sigstruct: Sigstruct) -> None:
    """Finalise the enclave: verify the author signature and measurement.

    On success the enclave becomes enterable, MRENCLAVE/MRSIGNER freeze,
    and the SIGSTRUCT's expected-peer digests (nested extension) are
    copied into the SECS for later NASSO validation.
    """
    if secs.state != ST_UNINITIALIZED:
        raise EnclaveStateError("enclave already initialised")
    if not sigstruct.verify_signature():
        raise SigstructInvalid("author signature does not verify")
    actual = secs.measurement_log.digest()
    if actual != sigstruct.expected_mrenclave:
        raise SigstructInvalid(
            "measured enclave does not match the signed expectation")
    secs.mrenclave = actual
    secs.mrsigner = sigstruct.mrsigner
    secs.isv_prod_id = sigstruct.isv_prod_id
    secs.isv_svn = sigstruct.isv_svn
    secs.expected_peer_digests = list(sigstruct.expected_peer_digests)
    secs.state = ST_INITIALIZED
    machine.cost.charge_event("einit")
    machine.log_transition("EINIT", eid=secs.eid)


def eremove(machine: Machine, secs: Secs) -> None:
    """Tear an enclave down: free every EPC page including the SECS."""
    if any(machine.enclave(i).state != ST_DESTROYED
           for i in secs.inner_eids):
        raise EnclaveStateError(
            "cannot remove an outer enclave with live inner enclaves")
    for frame in machine.epcm.pages_of(secs.eid):
        machine.epcm.clear(frame)
        machine.epc_alloc.free(frame)
        machine.mee.forget_page(frame)
        machine.phys.drop_frame(frame >> 12)
    machine.epcm.clear(secs.eid)
    machine.epc_alloc.free(secs.eid)
    secs.state = ST_DESTROYED
    if secs.outer_eid:
        outer = machine.enclaves.get(secs.outer_eid)
        if outer and secs.eid in outer.inner_eids:
            outer.inner_eids.remove(secs.eid)
    machine.log_transition("EREMOVE", eid=secs.eid)


# ---------------------------------------------------------------------------
# Synchronous transitions
# ---------------------------------------------------------------------------

def eenter(machine: Machine, core: Core, secs: Secs,
           tcs_vaddr: int) -> Tcs:
    """Enter an enclave from non-enclave mode."""
    if core.in_enclave_mode:
        raise GeneralProtectionFault(
            "EENTER while already in enclave mode (use NEENTER)")
    if secs.state != ST_INITIALIZED:
        raise EnclaveStateError("EENTER into an uninitialised enclave")
    tcs = machine.tcs(secs.eid, tcs_vaddr)
    if tcs.state != TCS_IDLE:
        raise TcsBusy(f"TCS {tcs_vaddr:#x} busy")
    core.flush_tlb()
    tcs.state = TCS_ACTIVE
    core.enclave_stack.append(secs.eid)
    core.tcs_stack.append(tcs_vaddr)
    machine.log_transition("EENTER", core.core_id, eid=secs.eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack))
    # Call-level cost/counters (Table II calibration) are charged by the
    # SDK runtime, which knows whether this EENTER begins an ecall or
    # completes an ocall round trip.
    return tcs


def eexit(machine: Machine, core: Core) -> None:
    """Exit the current enclave to non-enclave mode."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("EEXIT outside enclave mode")
    if len(core.enclave_stack) != 1:
        raise GeneralProtectionFault(
            "EEXIT from a nested frame (use NEEXIT)")
    eid = core.enclave_stack.pop()
    tcs_vaddr = core.tcs_stack.pop()
    machine.tcs(eid, tcs_vaddr).state = TCS_IDLE
    core.flush_tlb()
    core.scrub_registers()
    machine.log_transition("EEXIT", core.core_id, eid=eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack))


# ---------------------------------------------------------------------------
# Asynchronous exit / resume
# ---------------------------------------------------------------------------

def aex(machine: Machine, core: Core) -> None:
    """Asynchronous Enclave Exit: interrupt/exception while in enclave mode.

    Saves the full (possibly nested) context into the *bottom* TCS's state
    area, scrubs, flushes, and leaves the core in non-enclave mode ready
    to run the OS exception handler (paper §IV-B: "the processor exits the
    enclave mode and jumps to the exception handler").
    """
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("AEX outside enclave mode")
    root_eid = core.enclave_stack[0]
    root_tcs_vaddr = core.tcs_stack[0]
    root_tcs = machine.tcs(root_eid, root_tcs_vaddr)
    parked = len(core.enclave_stack)
    root_tcs.saved_context = {
        "enclave_stack": list(core.enclave_stack),
        "tcs_stack": list(core.tcs_stack),
        "registers": dict(core.registers),
    }
    root_tcs.aex_count += 1
    core.enclave_stack.clear()
    core.tcs_stack.clear()
    core.scrub_registers()
    core.flush_tlb()
    machine.cost.charge_event("aex")
    machine.log_transition("AEX", core.core_id, eid=root_eid,
                           tcs=root_tcs_vaddr, depth=0, parked=parked)


def eresume(machine: Machine, core: Core, secs: Secs,
            tcs_vaddr: int) -> None:
    """Resume an enclave thread previously suspended by AEX."""
    if core.in_enclave_mode:
        raise GeneralProtectionFault("ERESUME while in enclave mode")
    tcs = machine.tcs(secs.eid, tcs_vaddr)
    if tcs.saved_context is None:
        raise GeneralProtectionFault("ERESUME without a saved context")
    saved = tcs.saved_context
    tcs.saved_context = None
    core.flush_tlb()
    core.enclave_stack.extend(saved["enclave_stack"])
    core.tcs_stack.extend(saved["tcs_stack"])
    core.registers.update(saved["registers"])
    machine.cost.charge_event("eresume")
    machine.log_transition("ERESUME", core.core_id, eid=secs.eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack))


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """Local-attestation REPORT (EREPORT output)."""

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    report_data: bytes
    mac_tag: bytes

    def body(self) -> bytes:
        return (self.mrenclave + self.mrsigner
                + self.isv_prod_id.to_bytes(2, "little")
                + self.isv_svn.to_bytes(2, "little") + self.report_data)


def _report_key(machine: Machine, target_mrenclave: bytes) -> bytes:
    return hkdf(machine.root_secret, b"report-key", target_mrenclave)


def ereport(machine: Machine, core: Core, target_mrenclave: bytes,
            report_data: bytes = b"") -> Report:
    """Produce a REPORT about the currently executing enclave, MAC'd so
    that only the *target* enclave (on the same machine) can verify it."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("EREPORT outside enclave mode")
    secs = machine.enclave(core.current_eid)
    machine.log_transition("EREPORT", core.core_id, eid=secs.eid,
                           depth=len(core.enclave_stack))
    key = _report_key(machine, target_mrenclave)
    partial = Report(secs.mrenclave, secs.mrsigner, secs.isv_prod_id,
                     secs.isv_svn, report_data, b"")
    return Report(secs.mrenclave, secs.mrsigner, secs.isv_prod_id,
                  secs.isv_svn, report_data, mac(key, partial.body()))


def egetkey(machine: Machine, core: Core, key_type: str) -> bytes:
    """Derive an enclave key (EGETKEY).  Supported: 'report', 'seal'."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("EGETKEY outside enclave mode")
    secs = machine.enclave(core.current_eid)
    machine.log_transition("EGETKEY", core.core_id, eid=secs.eid,
                           depth=len(core.enclave_stack))
    if key_type == "report":
        return _report_key(machine, secs.mrenclave)
    if key_type == "seal":
        # Seal keys are per-signer so upgraded enclaves can unseal.
        return hkdf(machine.root_secret, b"seal-key", secs.mrsigner,
                    secs.isv_prod_id.to_bytes(2, "little"))
    raise GeneralProtectionFault(f"unknown key type {key_type!r}")


def verify_report(machine: Machine, core: Core, report: Report) -> bool:
    """Target-side REPORT verification with the core's own report key."""
    key = egetkey(machine, core, "report")
    return mac_verify(key, report.body(), report.mac_tag)


def measurement_log(secs: Secs) -> MeasurementLog:
    """Expose the running measurement (builder/tests)."""
    return secs.measurement_log
