"""Property-based security-invariant tests (§VII-A).

A hypothesis-driven stateful exerciser performs random sequences of
operations — enclave entries/exits, nested transitions, reads/writes at
random addresses (legal and illegal), OS page-table remaps, TLB-pressure
loops — and after every step audits all four invariants over every core.
Illegal operations are expected to fault; the point is that *even their
attempts* never leave a forbidden translation cached.
"""

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.access import NestedValidator
from repro.core.invariants import assert_invariants, audit_machine
from repro.errors import SgxFault
from repro.sgx.constants import (PAGE_SIZE, PERM_RW, PT_REG, PT_SECS,
                                 SmallMachineConfig, ST_INITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs


def build_world():
    """outer(4 pages) + 2 inners(2 pages each) + unsecure region."""
    machine = Machine(SmallMachineConfig(), validator_cls=NestedValidator)
    space = machine.new_address_space()

    def enclave(base, npages):
        secs_frame = machine.epc_alloc.alloc()
        machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
        secs = Secs(eid=secs_frame, base_addr=base,
                    size=npages * PAGE_SIZE, state=ST_INITIALIZED)
        machine.enclaves[secs_frame] = secs
        for i in range(npages):
            frame = machine.epc_alloc.alloc()
            machine.epcm.set(frame, eid=secs.eid, page_type=PT_REG,
                             vaddr=base + i * PAGE_SIZE, perms=PERM_RW)
            space.map_page(base + i * PAGE_SIZE, frame)
        return secs

    outer = enclave(0x100000, 4)
    inner_a = enclave(0x200000, 2)
    inner_b = enclave(0x300000, 2)
    for inner in (inner_a, inner_b):
        inner.outer_eids.append(outer.eid)
        inner.outer_eid = outer.eid
        outer.inner_eids.append(inner.eid)
    # Unsecure scratch.
    plain = machine.config.prm_base - 0x40000
    for i in range(4):
        space.map_page(0x800000 + i * PAGE_SIZE, plain + i * PAGE_SIZE)
    return machine, space, outer, inner_a, inner_b


ADDRESSES = [0x100000, 0x102000, 0x200000, 0x201000, 0x300000,
             0x301000, 0x800000, 0x802000, 0x104000 - 8]


class InvariantMachine(RuleBasedStateMachine):
    """Random op sequences; invariants audited after every rule."""

    def __init__(self):
        super().__init__()
        self.machine, self.space, self.outer, self.inner_a, self.inner_b \
            = build_world()
        self.contexts = [None, self.outer, self.inner_a, self.inner_b]

    @rule(ctx_idx=st.integers(0, 3), core_idx=st.integers(0, 3))
    def switch_context(self, ctx_idx, core_idx):
        core = self.machine.cores[core_idx]
        core.address_space = self.space
        ctx = self.contexts[ctx_idx]
        if ctx is None:
            core.enclave_stack = []
        elif ctx is self.outer:
            core.enclave_stack = [self.outer.eid]
        else:
            core.enclave_stack = [self.outer.eid, ctx.eid]
        core.flush_tlb()

    @rule(addr=st.sampled_from(ADDRESSES), core_idx=st.integers(0, 3),
          write=st.booleans())
    def access(self, addr, core_idx, write):
        core = self.machine.cores[core_idx]
        if core.address_space is None:
            core.address_space = self.space
        try:
            if write:
                core.write(addr, b"\xAB" * 8)
            else:
                core.read(addr, 8)
        except SgxFault:
            pass  # faults are fine; leaked translations are not

    @rule(addr=st.sampled_from([0x100000, 0x200000, 0x300000]),
          mode=st.sampled_from(["attacker", "swap"]))
    def os_remap(self, addr, mode):
        """The hostile OS rewires a page-table entry."""
        if mode == "attacker":
            frame = self.machine.config.prm_base - 0x50000
            self.space.map_page(addr, frame)
        else:
            # Swap the mappings of an outer and an inner page.
            a, b = 0x100000, 0x200000
            pa, pb = self.space.translate(a), self.space.translate(b)
            if pa is not None and pb is not None:
                self.space.map_page(a, pb & ~(PAGE_SIZE - 1))
                self.space.map_page(b, pa & ~(PAGE_SIZE - 1))

    @rule(addr=st.sampled_from([0x100000, 0x200000, 0x300000]))
    def os_restore_mapping(self, addr):
        """Put the honest mapping back so later accesses can succeed."""
        secs = {0x100000: self.outer, 0x200000: self.inner_a,
                0x300000: self.inner_b}[addr]
        frames = self.machine.epcm.pages_of(secs.eid)
        for frame in frames:
            if self.machine.epcm.entry(frame).vaddr == addr:
                self.space.map_page(addr, frame)
                return

    @invariant()
    def all_invariants_hold(self):
        violations = audit_machine(self.machine)
        assert not violations, violations


InvariantMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestInvariantStateMachine = InvariantMachine.TestCase


class TestAuditDetectsViolations:
    """The auditor itself must be able to see planted violations —
    otherwise the property tests above prove nothing."""

    def test_detects_prm_entry_in_non_enclave_tlb(self):
        machine, space, outer, inner_a, inner_b = build_world()
        core = machine.cores[0]
        core.address_space = space
        from repro.sgx.tlb import TlbEntry
        frame = machine.epcm.pages_of(outer.eid)[0]
        core.tlb.insert(TlbEntry(vpn=0x900000 >> 12, pfn=frame >> 12,
                                 perms=PERM_RW, context_eid=0))
        assert audit_machine(machine)

    def test_detects_outer_holding_inner_translation(self):
        machine, space, outer, inner_a, inner_b = build_world()
        core = machine.cores[0]
        core.address_space = space
        core.enclave_stack = [outer.eid]
        from repro.sgx.tlb import TlbEntry
        inner_frame = machine.epcm.pages_of(inner_a.eid)[0]
        core.tlb.insert(TlbEntry(vpn=0x200000 >> 12,
                                 pfn=inner_frame >> 12,
                                 perms=PERM_RW, context_eid=outer.eid))
        # The VA 0x200000 is outside outer's ELRANGE and maps into PRM.
        assert audit_machine(machine)

    def test_detects_wrong_va_alias(self):
        machine, space, outer, inner_a, inner_b = build_world()
        core = machine.cores[0]
        core.address_space = space
        core.enclave_stack = [outer.eid]
        from repro.sgx.tlb import TlbEntry
        page0, page1 = machine.epcm.pages_of(outer.eid)[:2]
        # ELRANGE VA 0x100000 mapped at the frame EPCM records for
        # 0x101000: invariant 3's VA-match clause must flag it.
        core.tlb.insert(TlbEntry(vpn=0x100000 >> 12, pfn=page1 >> 12,
                                 perms=PERM_RW, context_eid=outer.eid))
        assert audit_machine(machine)

    def test_clean_machine_audits_empty(self):
        machine, *_ = build_world()
        assert_invariants(machine)  # must not raise

    def test_assert_invariants_raises_on_dirty(self):
        machine, space, outer, inner_a, inner_b = build_world()
        core = machine.cores[0]
        from repro.sgx.tlb import TlbEntry
        frame = machine.epcm.pages_of(outer.eid)[0]
        core.tlb.insert(TlbEntry(vpn=1, pfn=frame >> 12, perms=PERM_RW,
                                 context_eid=0))
        with pytest.raises(AssertionError):
            assert_invariants(machine)
