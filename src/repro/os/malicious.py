"""Active-attacker OS variants.

Each helper realises one capability of the §III-B threat model so that
security tests and the Table VII matrix can exercise a *specific* attack
and assert the *specific* defence that stops it.  IPC attacks need no
helper here: the OS *is* the router, so dropping, replaying or forging
a message is setting ``kernel.ipc.policy`` (see
:func:`repro.faults.ipc.dropping_policy`) or calling
``kernel.ipc.deliver(port, raw)`` directly.

* the ``remap_*`` helpers — rewire page tables to alias enclave
  virtual addresses onto attacker frames or other enclaves' EPC pages;
  defeated by the EPCM VA check in the access automaton.
* :func:`dram_tamper` — flip bits in raw DRAM under an EPC page;
  detected by the MEE integrity tree.
"""

from __future__ import annotations

from repro.os.kernel import Kernel, Process
from repro.sgx.machine import Machine


# ---------------------------------------------------------------------------
# Page-table attacks
# ---------------------------------------------------------------------------

def remap_to_attacker_frame(kernel: Kernel, proc: Process,
                            vaddr: int) -> int:
    """Point an enclave VA at a fresh attacker-controlled frame.

    Returns the attacker frame so the test can plant data in it.  The
    access automaton must refuse to insert this translation when the VA
    is inside an ELRANGE (invariant 3/4): the frame is not EPC.
    """
    frame = kernel.alloc_phys_page()
    proc.space.map_page(vaddr & ~0xFFF, frame)
    return frame


def remap_to_foreign_epc(proc: Process, vaddr: int,
                         victim_frame: int) -> None:
    """Alias a VA onto *another enclave's* EPC frame.

    Must be blocked by the EPCM owner check (or, for an inner enclave
    aliasing a non-outer enclave, by the nested fallback's owner check).
    """
    proc.space.map_page(vaddr & ~0xFFF, victim_frame)


def remap_epc_at_wrong_va(proc: Process, wrong_vaddr: int,
                          epc_frame: int) -> None:
    """Map an enclave's own EPC frame at a *different* VA than the EPCM
    records — the classic address-translation attack EPCM.vaddr defeats."""
    proc.space.map_page(wrong_vaddr & ~0xFFF, epc_frame)


def dram_tamper(machine: Machine, paddr: int, flip_mask: int = 0x01) -> None:
    """Flip bits in physical DRAM (a cold-boot / interposer attacker).

    The direct ``phys`` access is the point: this attacker sits on the
    memory bus, below the CPU's validation automaton, which is why the
    MEE — not the automaton — must defeat it.
    """
    raw = bytearray(machine.phys.read(paddr, 64))   # simlint: disable=SIM001
    raw[0] ^= flip_mask
    machine.phys.write(paddr, bytes(raw))           # simlint: disable=SIM001
