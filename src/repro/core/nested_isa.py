"""NEENTER / NEEXIT / NEREPORT — the nested transition and attestation
leaves (paper Table I and §IV-B).

``NEENTER`` moves a core from an outer enclave directly into one of its
inner enclaves without ever leaving enclave mode — the whole point of the
design: no round-trip through the untrusted world, no software encryption
of arguments.  Its validity checks mirror the paper's list: the
destination enclave must exist, its TCS must be idle, the core must be in
enclave mode of the *outer* enclave, and the destination TCS must belong
to an inner enclave of the current enclave.  Any violation raises
:class:`~repro.errors.GeneralProtectionFault` ("Any invalid invocation
results in a general protection fault (GP)").

``NEEXIT`` returns from the inner enclave to its outer, scrubbing: flush
the TLB (the inner's validated translations must not survive into outer
execution) and zero the registers/flags so no inner-enclave values leak
through the architectural state.

``NEREPORT`` extends EREPORT with the *association relationship*: the
report of an enclave additionally carries the measurements of its outer
enclave and of every inner enclave sharing it, so a remote challenger can
attest the whole nested constellation (§IV-E "Remote attestation").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import mac, mac_verify
from repro.errors import EnclaveStateError, GeneralProtectionFault, TcsBusy
from repro.sgx.constants import ST_INITIALIZED, TCS_ACTIVE, TCS_IDLE
from repro.sgx.cpu import Core
from repro.sgx.isa import _report_key
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs, Tcs


def neenter(machine: Machine, core: Core, inner: Secs,
            tcs_vaddr: int) -> Tcs:
    """Transition outer → inner enclave (stays in enclave mode)."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault(
            "NEENTER outside enclave mode (use EENTER)")
    if inner.state != ST_INITIALIZED:
        raise EnclaveStateError("NEENTER into an uninitialised enclave")
    current_eid = core.current_eid
    # "the destination TCS must belong to the inner enclave of the
    # current enclave" — the current enclave must be one of the
    # destination's outer enclaves.
    if current_eid not in inner.outer_eids:
        raise GeneralProtectionFault(
            "destination is not an inner enclave of the current enclave")
    tcs = machine.tcs(inner.eid, tcs_vaddr)
    if tcs.state != TCS_IDLE:
        raise TcsBusy(f"inner TCS {tcs_vaddr:#x} busy")
    # Valid: flush the TLB, mark the TCS busy, transfer control.
    core.flush_tlb()
    tcs.state = TCS_ACTIVE
    core.enclave_stack.append(inner.eid)
    core.tcs_stack.append(tcs_vaddr)
    machine.log_transition("NEENTER", core.core_id, eid=inner.eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack),
                           outer=current_eid)
    # Call-level cost/counters (Table II) are charged by the SDK runtime.
    return tcs


def neexit(machine: Machine, core: Core) -> None:
    """Transition inner → outer enclave, scrubbing inner state.

    This is the *return* form: the outer context this resumes is the one
    suspended by the NEENTER that created the current frame.  For an
    inner enclave that was EENTERed directly from untrusted code (legal
    per Fig. 5), the *call* form :func:`neexit_call` is used instead.
    """
    if len(core.enclave_stack) < 2:
        raise GeneralProtectionFault(
            "NEEXIT without a nested frame (use EEXIT)")
    inner_eid = core.enclave_stack.pop()
    tcs_vaddr = core.tcs_stack.pop()
    machine.tcs(inner_eid, tcs_vaddr).state = TCS_IDLE
    # "It clears all the information of the inner enclave by flushing the
    # TLB and setting 0s for all registers."
    core.flush_tlb()
    core.scrub_registers()
    machine.log_transition("NEEXIT", core.core_id, eid=inner_eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack))


def neexit_call(machine: Machine, core: Core, outer: Secs,
                tcs_vaddr: int) -> Tcs:
    """NEEXIT's call form: transition inner → outer by occupying an
    outer-enclave TCS (paper §IV-B: NEEXIT "checks and updates TCS
    states as it does for NEENTER").

    Used when the inner enclave was entered directly from untrusted
    code, so there is no suspended outer context to resume — an n_ocall
    must instead *start* outer execution at a registered entry.  The
    inner frame stays suspended below; :func:`neexit_return` unwinds.
    The callee runs with the OUTER enclave's (lower) privileges.
    """
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("NEEXIT outside enclave mode")
    inner = machine.enclave(core.current_eid)
    if outer.eid not in inner.outer_eids:
        raise GeneralProtectionFault(
            "target is not an outer enclave of the current enclave")
    tcs = machine.tcs(outer.eid, tcs_vaddr)
    if tcs.state != TCS_IDLE:
        raise TcsBusy(f"outer TCS {tcs_vaddr:#x} busy")
    core.flush_tlb()
    # No register scrub inner→outer is architecturally required for
    # confidentiality (the inner may expose anything to its outer), but
    # the ABI zeroes non-argument registers anyway.
    tcs.state = TCS_ACTIVE
    core.enclave_stack.append(outer.eid)
    core.tcs_stack.append(tcs_vaddr)
    machine.log_transition("NEEXIT_CALL", core.core_id, eid=outer.eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack),
                           caller=inner.eid)
    return tcs


def neexit_return(machine: Machine, core: Core) -> None:
    """Unwind a :func:`neexit_call` frame: outer returns to its caller
    inner enclave.  Scrubs nothing extra beyond the TLB flush — the
    inner can read all outer state anyway."""
    if len(core.enclave_stack) < 2:
        raise GeneralProtectionFault("no outer call frame to return from")
    outer_eid = core.enclave_stack[-1]
    caller_eid = core.enclave_stack[-2]
    caller = machine.enclave(caller_eid)
    if outer_eid not in caller.outer_eids:
        raise GeneralProtectionFault(
            "top frame is not an outer of its caller (use NEEXIT)")
    core.enclave_stack.pop()
    tcs_vaddr = core.tcs_stack.pop()
    machine.tcs(outer_eid, tcs_vaddr).state = TCS_IDLE
    core.flush_tlb()
    machine.log_transition("NEEXIT_RETURN", core.core_id, eid=outer_eid,
                           tcs=tcs_vaddr, depth=len(core.enclave_stack))


@dataclass(frozen=True)
class NestedReport:
    """NEREPORT output: an EREPORT plus the association topology."""

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    report_data: bytes
    #: Measurements (mrenclave, mrsigner) of this enclave's outer
    #: enclave(s), nearest first; empty for a non-nested enclave.
    outer_measurements: tuple[tuple[bytes, bytes], ...]
    #: Measurements of every inner enclave currently associated.
    inner_measurements: tuple[tuple[bytes, bytes], ...]
    mac_tag: bytes

    def body(self) -> bytes:
        parts = [self.mrenclave, self.mrsigner,
                 self.isv_prod_id.to_bytes(2, "little"),
                 self.isv_svn.to_bytes(2, "little"), self.report_data]
        for label, pairs in ((b"outer", self.outer_measurements),
                             (b"inner", self.inner_measurements)):
            for mre, mrs in pairs:
                parts += [label, mre, mrs]
        return b"".join(parts)


def nereport(machine: Machine, core: Core, target_mrenclave: bytes,
             report_data: bytes = b"") -> NestedReport:
    """Report the current enclave's measurement *and* its inner/outer
    relations, MAC'd for the target enclave."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("NEREPORT outside enclave mode")
    secs = machine.enclave(core.current_eid)
    machine.log_transition("NEREPORT", core.core_id, eid=secs.eid,
                           depth=len(core.enclave_stack))
    outers = tuple(
        (machine.enclave(eid).mrenclave, machine.enclave(eid).mrsigner)
        for eid in secs.outer_eids)
    inners = tuple(
        (machine.enclave(eid).mrenclave, machine.enclave(eid).mrsigner)
        for eid in secs.inner_eids)
    key = _report_key(machine, target_mrenclave)
    partial = NestedReport(secs.mrenclave, secs.mrsigner, secs.isv_prod_id,
                           secs.isv_svn, report_data, outers, inners, b"")
    return NestedReport(secs.mrenclave, secs.mrsigner, secs.isv_prod_id,
                        secs.isv_svn, report_data, outers, inners,
                        mac(key, partial.body()))


def verify_nested_report(machine: Machine, core: Core,
                         report: NestedReport) -> bool:
    """Verify a NestedReport with the current enclave's report key."""
    if not core.in_enclave_mode:
        raise GeneralProtectionFault("verification requires enclave mode")
    secs = machine.enclave(core.current_eid)
    key = _report_key(machine, secs.mrenclave)
    return mac_verify(key, report.body(), report.mac_tag)
