"""Baseline (Fig. 2) access-validation automaton tests.

These drive the validator through a real Machine but with hand-built
EPCM/page-table state, checking every arm of the flowchart in isolation
from the SDK.
"""

import pytest

from repro.errors import AccessViolation, PageFault
from repro.sgx.constants import (PERM_RW, PT_REG, PT_SECS,
                                 SmallMachineConfig, ST_INITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


def make_enclave(machine, base=0x100000, size=0x10000):
    """Hand-register an initialised enclave (no SDK)."""
    secs_frame = machine.epc_alloc.alloc()
    machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
    secs = Secs(eid=secs_frame, base_addr=base, size=size,
                state=ST_INITIALIZED)
    machine.enclaves[secs_frame] = secs
    return secs


def give_page(machine, secs, vaddr, perms=PERM_RW):
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=secs.eid, page_type=PT_REG, vaddr=vaddr,
                     perms=perms)
    return frame


def enter(core, secs):
    core.enclave_stack.append(secs.eid)


@pytest.fixture
def world(machine):
    """A process space wired to core 0 plus one enclave with one page."""
    space = machine.new_address_space()
    core = machine.cores[0]
    core.address_space = space
    secs = make_enclave(machine)
    frame = give_page(machine, secs, 0x100000)
    space.map_page(0x100000, frame)
    return machine, core, space, secs, frame


class TestNonEnclaveMode:
    def test_normal_memory_allowed(self, world):
        machine, core, space, secs, frame = world
        plain = machine.config.prm_base - 0x10000
        space.map_page(0x200000, plain)
        core.write(0x200000, b"hi")
        assert core.read(0x200000, 2) == b"hi"

    def test_prm_access_aborted(self, world):
        machine, core, space, secs, frame = world
        # OS maps a normal VA straight at an EPC frame.
        space.map_page(0x300000, frame)
        with pytest.raises(AccessViolation):
            core.read(0x300000, 8)

    def test_secs_page_never_accessible(self, world):
        machine, core, space, secs, frame = world
        space.map_page(0x300000, secs.eid)  # the SECS frame itself
        with pytest.raises(AccessViolation):
            core.read(0x300000, 8)


class TestEnclaveModeEpcTarget:
    def test_owner_access_allowed(self, world):
        machine, core, space, secs, frame = world
        enter(core, secs)
        core.write(0x100000, b"enclave data")
        assert core.read(0x100000, 12) == b"enclave data"

    def test_non_owner_epc_aborted(self, world):
        machine, core, space, secs, frame = world
        other = make_enclave(machine, base=0x500000)
        other_frame = give_page(machine, other, 0x500000)
        # Victim's frame aliased into our ELRANGE-external VA.
        space.map_page(0x700000, other_frame)
        enter(core, secs)
        with pytest.raises(AccessViolation):
            core.read(0x700000, 8)

    def test_va_mismatch_aborted(self, world):
        """EPCM records the author-fixed VA; aliasing the page at any
        other VA inside ELRANGE must abort (remap attack)."""
        machine, core, space, secs, frame = world
        space.map_page(0x104000, frame)  # same frame, wrong VA
        enter(core, secs)
        with pytest.raises(AccessViolation):
            core.read(0x104000, 8)

    def test_invalid_epcm_entry_aborted(self, world):
        machine, core, space, secs, frame = world
        free_frame = machine.epc_alloc.alloc()  # valid=False in EPCM
        space.map_page(0x100000, free_frame)
        enter(core, secs)
        with pytest.raises(AccessViolation):
            core.read(0x100000, 8)

    def test_blocked_page_faults_not_aborts(self, world):
        machine, core, space, secs, frame = world
        machine.epcm.entry(frame).blocked = True
        enter(core, secs)
        with pytest.raises(PageFault) as excinfo:
            core.read(0x100000, 8)
        assert not isinstance(excinfo.value, AccessViolation)


class TestEnclaveModeNonEpcTarget:
    def test_elrange_va_backed_by_normal_memory_faults(self, world):
        """OS points an ELRANGE VA at attacker DRAM: #PF, never data."""
        machine, core, space, secs, frame = world
        attacker_frame = machine.config.prm_base - 0x20000
        machine.phys.write(attacker_frame, b"forged")
        space.map_page(0x101000, attacker_frame)
        enter(core, secs)
        with pytest.raises(PageFault):
            core.read(0x101000, 6)

    def test_unsecure_access_allowed_but_nx(self, world):
        machine, core, space, secs, frame = world
        plain = machine.config.prm_base - 0x30000
        space.map_page(0x800000, plain)
        enter(core, secs)
        core.write(0x800000, b"ocall buffer")
        assert core.read(0x800000, 12) == b"ocall buffer"
        from repro.sgx.constants import PERM_X
        vpn = 0x800000 >> 12
        assert not core.tlb.lookup(vpn).perms & PERM_X


class TestPermissions:
    def test_write_to_readonly_page_denied(self, world):
        machine, core, space, secs, frame = world
        from repro.sgx.constants import PERM_R
        ro_frame = give_page(machine, secs, 0x102000, perms=PERM_R)
        space.map_page(0x102000, ro_frame)
        enter(core, secs)
        assert core.read(0x102000, 4) == bytes(4)
        with pytest.raises(PageFault):
            core.write(0x102000, b"x")

    def test_no_mapping_page_faults(self, world):
        machine, core, space, secs, frame = world
        with pytest.raises(PageFault):
            core.read(0xDEAD000, 4)


class TestTlbFillDiscipline:
    def test_validated_entry_cached(self, world):
        machine, core, space, secs, frame = world
        enter(core, secs)
        core.read(0x100000, 4)
        snap = machine.counters.snapshot()
        core.read(0x100008, 4)  # same page: must hit
        delta = machine.counters.delta_since(snap)
        assert delta.get("tlb_hit") == 1
        assert "tlb_miss" not in delta

    def test_flush_forces_revalidation(self, world):
        machine, core, space, secs, frame = world
        enter(core, secs)
        core.read(0x100000, 4)
        core.flush_tlb()
        snap = machine.counters.snapshot()
        core.read(0x100000, 4)
        assert machine.counters.delta_since(snap).get("tlb_miss") == 1
