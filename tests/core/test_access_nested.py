"""Nested access-validation (Fig. 6) tests — the asymmetric MLS matrix.

The central claim of the paper: inner→outer allowed, outer→inner blocked,
peer-inner↔peer-inner blocked, all enforced at TLB-fill time with no EPCM
changes.  These tests build the topology by hand (no SDK) so each arm of
the automaton is exercised in isolation.
"""

import pytest

from repro.core.access import NestedValidator
from repro.errors import AccessViolation, PageFault
from repro.sgx.constants import (PERM_RW, PT_REG, PT_SECS,
                                 SmallMachineConfig, ST_INITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig(), validator_cls=NestedValidator)


def make_enclave(machine, base, size=0x10000):
    secs_frame = machine.epc_alloc.alloc()
    machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
    secs = Secs(eid=secs_frame, base_addr=base, size=size,
                state=ST_INITIALIZED)
    machine.enclaves[secs_frame] = secs
    return secs


def give_page(machine, space, secs, vaddr, perms=PERM_RW):
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=secs.eid, page_type=PT_REG, vaddr=vaddr,
                     perms=perms)
    space.map_page(vaddr, frame)
    return frame


def associate(inner, outer):
    """Raw SECS wiring (NASSO's effect) — NASSO itself is tested in
    test_association.py; here we test the *validator* given the state."""
    inner.outer_eids.append(outer.eid)
    inner.outer_eid = outer.eid
    outer.inner_eids.append(inner.eid)


@pytest.fixture
def topology(machine):
    """outer + two peer inners, one page each, all in one process."""
    space = machine.new_address_space()
    core = machine.cores[0]
    core.address_space = space
    outer = make_enclave(machine, 0x100000)
    inner_a = make_enclave(machine, 0x200000)
    inner_b = make_enclave(machine, 0x300000)
    pages = {
        "outer": give_page(machine, space, outer, 0x100000),
        "inner_a": give_page(machine, space, inner_a, 0x200000),
        "inner_b": give_page(machine, space, inner_b, 0x300000),
    }
    associate(inner_a, outer)
    associate(inner_b, outer)
    return machine, core, space, outer, inner_a, inner_b, pages


def run_as(core, secs):
    core.enclave_stack = [secs.eid]
    core.tlb.flush()


class TestMlsAccessMatrix:
    def test_inner_reads_own_memory(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, inner_a)
        core.write(0x200000, b"inner A data")
        assert core.read(0x200000, 12) == b"inner A data"

    def test_inner_reads_outer_memory(self, topology):
        """The nested fallback: EID mismatch resolved via OuterEID."""
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, outer)
        core.write(0x100000, b"outer shared")
        run_as(core, inner_a)
        assert core.read(0x100000, 12) == b"outer shared"

    def test_inner_writes_outer_memory(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, inner_a)
        core.write(0x100000, b"from inner")
        run_as(core, outer)
        assert core.read(0x100000, 10) == b"from inner"

    def test_outer_cannot_read_inner(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, outer)
        with pytest.raises(AccessViolation):
            core.read(0x200000, 8)

    def test_outer_cannot_write_inner(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, outer)
        with pytest.raises(AccessViolation):
            core.write(0x200000, b"overwrite")

    def test_peer_inner_isolation(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, inner_a)
        with pytest.raises(AccessViolation):
            core.read(0x300000, 8)
        run_as(core, inner_b)
        with pytest.raises(AccessViolation):
            core.read(0x200000, 8)

    def test_untrusted_cannot_read_anyone(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        core.enclave_stack = []
        core.tlb.flush()
        for vaddr in (0x100000, 0x200000, 0x300000):
            with pytest.raises(AccessViolation):
                core.read(vaddr, 8)

    def test_unassociated_inner_cannot_read_outer(self, machine):
        """Without the NASSO state, the fallback must not fire."""
        space = machine.new_address_space()
        core = machine.cores[0]
        core.address_space = space
        outer = make_enclave(machine, 0x100000)
        loner = make_enclave(machine, 0x400000)
        give_page(machine, space, outer, 0x100000)
        give_page(machine, space, loner, 0x400000)
        run_as(core, loner)
        with pytest.raises(AccessViolation):
            core.read(0x100000, 8)


class TestShadedSteps:
    def test_outer_page_aliased_at_wrong_va_aborts(self, topology):
        """Shaded step 5: VA must match the EPCM record even for the
        inner→outer fallback (remap attack on the shared region)."""
        machine, core, space, outer, inner_a, inner_b, pages = topology
        space.map_page(0x101000, pages["outer"])  # wrong VA alias
        run_as(core, inner_a)
        with pytest.raises(AccessViolation):
            core.read(0x101000, 8)

    def test_outer_elrange_not_backed_page_faults(self, topology):
        """Shaded steps 1-2: outer-ELRANGE VA whose translation leaves
        the EPC is an evicted page -> #PF, not a pass to unsecure RAM."""
        machine, core, space, outer, inner_a, inner_b, pages = topology
        attacker_frame = machine.config.prm_base - 0x20000
        machine.phys.write(attacker_frame, b"forged outer contents")
        space.map_page(0x102000, attacker_frame)  # inside outer ELRANGE
        run_as(core, inner_a)
        with pytest.raises(PageFault):
            core.read(0x102000, 8)

    def test_blocked_outer_page_faults_for_inner(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        machine.epcm.entry(pages["outer"]).blocked = True
        run_as(core, inner_a)
        with pytest.raises(PageFault) as excinfo:
            core.read(0x100000, 8)
        assert not isinstance(excinfo.value, AccessViolation)

    def test_truly_unsecure_access_still_works_nested(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        plain = machine.config.prm_base - 0x40000
        space.map_page(0x900000, plain)
        run_as(core, inner_a)
        core.write(0x900000, b"untrusted buf")
        assert core.read(0x900000, 13) == b"untrusted buf"

    def test_nested_check_counted_and_charged(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, inner_a)
        snap = machine.counters.snapshot()
        t0 = machine.clock.now_ns
        core.read(0x100000, 8)  # inner -> outer: one fallback check
        delta = machine.counters.delta_since(snap)
        assert delta.get("nested_check") == 1
        assert machine.clock.now_ns > t0

    def test_own_page_takes_fast_path_no_nested_check(self, topology):
        machine, core, space, outer, inner_a, inner_b, pages = topology
        run_as(core, inner_a)
        snap = machine.counters.snapshot()
        core.read(0x200000, 8)
        assert "nested_check" not in machine.counters.delta_since(snap)


class TestMultiLevelNesting:
    def test_three_level_chain(self, machine):
        """§VIII: level-2 inner reads both its outer and its outer's
        outer; the reverse directions all abort."""
        space = machine.new_address_space()
        core = machine.cores[0]
        core.address_space = space
        l0 = make_enclave(machine, 0x100000)   # outermost
        l1 = make_enclave(machine, 0x200000)
        l2 = make_enclave(machine, 0x300000)   # innermost
        give_page(machine, space, l0, 0x100000)
        give_page(machine, space, l1, 0x200000)
        give_page(machine, space, l2, 0x300000)
        associate(l1, l0)
        associate(l2, l1)

        run_as(core, l2)
        core.read(0x200000, 8)   # parent: ok
        core.read(0x100000, 8)   # grandparent: ok (chain walk)
        run_as(core, l1)
        core.read(0x100000, 8)   # parent: ok
        with pytest.raises(AccessViolation):
            core.read(0x300000, 8)  # child: blocked
        run_as(core, l0)
        for vaddr in (0x200000, 0x300000):
            with pytest.raises(AccessViolation):
                core.read(vaddr, 8)

    def test_chain_walk_cost_grows_with_depth(self, machine):
        """D4 ablation property: grandparent access runs 2 checks."""
        space = machine.new_address_space()
        core = machine.cores[0]
        core.address_space = space
        l0 = make_enclave(machine, 0x100000)
        l1 = make_enclave(machine, 0x200000)
        l2 = make_enclave(machine, 0x300000)
        give_page(machine, space, l0, 0x100000)
        associate(l1, l0)
        associate(l2, l1)
        run_as(core, l2)
        snap = machine.counters.snapshot()
        core.read(0x100000, 8)
        assert machine.counters.delta_since(snap)["nested_check"] == 2


class TestLatticeExtension:
    def test_inner_with_two_outers(self, machine):
        """§VIII: an inner enclave bound to two outers reads both."""
        space = machine.new_address_space()
        core = machine.cores[0]
        core.address_space = space
        out_a = make_enclave(machine, 0x100000)
        out_b = make_enclave(machine, 0x200000)
        inner = make_enclave(machine, 0x300000)
        give_page(machine, space, out_a, 0x100000)
        give_page(machine, space, out_b, 0x200000)
        give_page(machine, space, inner, 0x300000)
        associate(inner, out_a)
        inner.outer_eids.append(out_b.eid)
        out_b.inner_eids.append(inner.eid)

        run_as(core, inner)
        core.read(0x100000, 8)
        core.read(0x200000, 8)
        # The two outers cannot read each other through the shared inner.
        run_as(core, out_a)
        with pytest.raises(AccessViolation):
            core.read(0x200000, 8)
