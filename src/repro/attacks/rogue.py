"""Rogue-enclave and hostile-OS attack drivers (§VII-B, Table VII).

Each function attempts one concrete attack end to end and reports
whether the protection held, so security tests and the Table VII
harness read as a checklist:

* :func:`attempt_unauthorized_join` — a malicious inner enclave (signed
  by an attacker) tries to NASSO onto a victim outer enclave.
* :func:`attempt_cross_inner_read` — a peer inner enclave tries to read
  a sibling's memory directly.
* :func:`attempt_outer_read_inner` — outer-enclave code tries to read
  an inner enclave's memory.
* :func:`attempt_os_read_ring` — the OS maps the outer enclave's ring
  pages into its own address space and reads.
* :func:`attempt_fake_edl_call` — the OS fabricates an EDL declaring a
  direct inner→inner call and drives the runtime with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.association import nasso
from repro.errors import (AccessViolation, GeneralProtectionFault,
                          MeasurementMismatch, SgxFault)
from repro.sdk import EnclaveBuilder, parse_edl
from repro.sdk.builder import developer_key
from repro.sdk.edl import EdlFunction


@dataclass
class AttackResult:
    attack: str
    blocked: bool
    mechanism: str   # what stopped it (or "NOT BLOCKED")


def attempt_unauthorized_join(host, outer_handle) -> AttackResult:
    """Attacker-authored inner enclave tries to bind the victim outer."""
    evil_edl = parse_edl(
        "enclave { trusted { public int evil(void); }; };", name="evil")
    builder = EnclaveBuilder("evil-inner", evil_edl,
                             signing_key=developer_key("attacker"))
    builder.add_entry("evil", lambda ctx: 0)
    # The attacker *does* name the victim outer as its expected peer —
    # it wants in; the outer's expectations are what must stop it.
    builder.expect_peer(outer_handle.image.sigstruct.expected_mrenclave,
                        outer_handle.image.sigstruct.mrsigner)
    evil = host.load(builder.build())
    try:
        nasso(host.machine, evil.secs, outer_handle.secs)
    except MeasurementMismatch:
        joined = False
    else:
        joined = True
    # Belt and braces: even after the attempt, the SECS must be clean.
    clean = evil.secs.outer_eid == 0 and not evil.secs.outer_eids
    return AttackResult(
        attack="unauthorized inner-enclave join (NASSO)",
        blocked=not joined and clean,
        mechanism="NASSO mutual measurement validation"
        if not joined else "NOT BLOCKED")


def attempt_cross_inner_read(machine, core, attacker_inner,
                             victim_addr: int) -> AttackResult:
    """From inside one inner enclave, read a sibling inner's memory."""
    from repro.sgx import isa
    tcs = attacker_inner.idle_tcs()
    isa.eenter(machine, core, attacker_inner.secs, tcs)
    try:
        core.read(victim_addr, 16)
        blocked = False
    except AccessViolation:
        blocked = True
    finally:
        isa.eexit(machine, core)
    return AttackResult(
        attack="peer inner enclave reads sibling memory",
        blocked=blocked,
        mechanism="EPCM owner check (peer is not in the outer chain)"
        if blocked else "NOT BLOCKED")


def attempt_outer_read_inner(machine, core, outer_handle,
                             inner_addr: int) -> AttackResult:
    from repro.sgx import isa
    tcs = outer_handle.idle_tcs()
    isa.eenter(machine, core, outer_handle.secs, tcs)
    try:
        core.read(inner_addr, 16)
        blocked = False
    except AccessViolation:
        blocked = True
    finally:
        isa.eexit(machine, core)
    return AttackResult(
        attack="outer enclave reads inner enclave memory",
        blocked=blocked,
        mechanism="asymmetric MLS permission (no inner fallback for "
        "outer)" if blocked else "NOT BLOCKED")


def attempt_os_read_ring(machine, kernel, outer_handle,
                         ring_vaddr: int) -> AttackResult:
    """The OS aliases the ring page into a fresh mapping and reads it
    from non-enclave mode."""
    frame = None
    for candidate in machine.epcm.pages_of(outer_handle.eid):
        if machine.epcm.entry(candidate).vaddr == (ring_vaddr & ~0xFFF):
            frame = candidate
            break
    if frame is None:
        raise SgxFault("ring page not found")
    snoop_proc = kernel.spawn("snooper")
    snoop_proc.space.map_page(0x60000000, frame)
    core = machine.cores[-1]
    core.address_space = snoop_proc.space
    core.enclave_stack = []
    try:
        core.read(0x60000000, 64)
        blocked = False
    except AccessViolation:
        blocked = True
    return AttackResult(
        attack="OS maps and reads the shared-channel EPC page",
        blocked=blocked,
        mechanism="non-enclave access to PRM aborted"
        if blocked else "NOT BLOCKED")


def attempt_fake_edl_call(ctx_host, inner_a, inner_b) -> AttackResult:
    """'OS may create a fake EDL file describing interfaces between
    inner enclaves' — fabricate the declaration and try the call."""
    # The OS scribbles a nested_trusted declaration into B's EDL and a
    # matching nested_untrusted into A's, then asks A to call B.
    inner_b.image.edl.nested_trusted["steal"] = EdlFunction(
        name="steal", return_type="bytes", params=(), public=True)
    inner_b.image.entries["steal"] = lambda ctx: b"loot"
    from repro.core import nested_isa
    from repro.sgx import isa
    machine = ctx_host.machine
    core = ctx_host.core
    isa.eenter(machine, core, inner_a.secs, inner_a.idle_tcs())
    try:
        # The runtime would call neenter(B) from inside A; the hardware
        # must #GP because A is not an outer enclave of B.
        nested_isa.neenter(machine, core, inner_b.secs,
                           inner_b.idle_tcs())
        blocked = False
        nested_isa.neexit(machine, core)
    except GeneralProtectionFault:
        blocked = True
    finally:
        isa.eexit(machine, core)
    return AttackResult(
        attack="fake EDL enabling direct inner-to-inner call",
        blocked=blocked,
        mechanism="NEENTER #GP: destination is not an inner of the "
        "current enclave" if blocked else "NOT BLOCKED")
