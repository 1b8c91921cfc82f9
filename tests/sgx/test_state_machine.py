"""Fig. 5 (nested enclave state transitions) as a property test.

A hypothesis state machine fires random transition instructions —
EENTER, EEXIT, NEENTER, NEEXIT, AEX, ERESUME — at random cores and
enclaves.  Legal calls must keep the architectural state consistent;
illegal ones must raise and leave the state untouched.  Consistency
means, after every step and on every core:

* ``enclave_stack`` and ``tcs_stack`` have equal depth;
* every stacked TCS is ACTIVE and owned by the stacked EID;
* no TCS is ACTIVE unless some core stacks it (or holds it suspended
  in an AEX save area);
* adjacent stack frames respect the nesting relation (frame k+1 is an
  inner, or a call-form outer, of frame k);
* the §VII-A memory invariants hold.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import nested_isa
from repro.core.invariants import audit_machine
from repro.errors import SgxFault
from repro.sgx import isa
from repro.sgx.constants import (PAGE_SIZE, PERM_RW, PT_SECS, PT_TCS,
                                 SmallMachineConfig, ST_INITIALIZED,
                                 TCS_ACTIVE)
from repro.core.access import NestedValidator
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs, Tcs


def _build_world():
    machine = Machine(SmallMachineConfig(num_cores=3),
                      validator_cls=NestedValidator)
    space = machine.new_address_space()

    def enclave(base):
        secs_frame = machine.epc_alloc.alloc()
        machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
        secs = Secs(eid=secs_frame, base_addr=base, size=4 * PAGE_SIZE,
                    state=ST_INITIALIZED)
        machine.enclaves[secs_frame] = secs
        for i in range(2):   # two TCSes each
            vaddr = base + i * PAGE_SIZE
            frame = machine.epc_alloc.alloc()
            machine.epcm.set(frame, eid=secs.eid, page_type=PT_TCS,
                             vaddr=vaddr, perms=PERM_RW)
            machine.tcs_registry[(secs.eid, vaddr)] = Tcs(
                vaddr=vaddr, eid=secs.eid, entry="main")
            secs.tcs_vaddrs.append(vaddr)
            space.map_page(vaddr, frame)
        return secs

    outer = enclave(0x100000)
    inner_a = enclave(0x200000)
    inner_b = enclave(0x300000)
    for inner in (inner_a, inner_b):
        inner.outer_eids.append(outer.eid)
        inner.outer_eid = outer.eid
        outer.inner_eids.append(inner.eid)
    for core in machine.cores:
        core.address_space = space
    return machine, [outer, inner_a, inner_b]


class TransitionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine, self.enclaves = _build_world()

    def _core(self, idx):
        return self.machine.cores[idx % len(self.machine.cores)]

    def _secs(self, idx):
        return self.enclaves[idx % len(self.enclaves)]

    def _tcs_vaddr(self, secs, idx):
        return secs.tcs_vaddrs[idx % len(secs.tcs_vaddrs)]

    @rule(c=st.integers(0, 2), e=st.integers(0, 2), t=st.integers(0, 1))
    def try_eenter(self, c, e, t):
        core, secs = self._core(c), self._secs(e)
        try:
            isa.eenter(self.machine, core, secs,
                       self._tcs_vaddr(secs, t))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2))
    def try_eexit(self, c):
        try:
            isa.eexit(self.machine, self._core(c))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2), e=st.integers(0, 2), t=st.integers(0, 1))
    def try_neenter(self, c, e, t):
        core, secs = self._core(c), self._secs(e)
        try:
            nested_isa.neenter(self.machine, core, secs,
                               self._tcs_vaddr(secs, t))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2))
    def try_neexit(self, c):
        try:
            nested_isa.neexit(self.machine, self._core(c))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2), t=st.integers(0, 1))
    def try_neexit_call(self, c, t):
        core = self._core(c)
        outer = self.enclaves[0]
        try:
            nested_isa.neexit_call(self.machine, core, outer,
                                   self._tcs_vaddr(outer, t))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2))
    def try_neexit_return(self, c):
        try:
            nested_isa.neexit_return(self.machine, self._core(c))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2))
    def try_aex(self, c):
        try:
            isa.aex(self.machine, self._core(c))
        except SgxFault:
            pass

    @rule(c=st.integers(0, 2), e=st.integers(0, 2), t=st.integers(0, 1))
    def try_eresume(self, c, e, t):
        core, secs = self._core(c), self._secs(e)
        try:
            isa.eresume(self.machine, core, secs,
                        self._tcs_vaddr(secs, t))
        except SgxFault:
            pass

    # ------------------------------------------------------------ checks
    @invariant()
    def stacks_consistent(self):
        for core in self.machine.cores:
            assert len(core.enclave_stack) == len(core.tcs_stack)
            for eid, tcs_vaddr in zip(core.enclave_stack,
                                      core.tcs_stack):
                tcs = self.machine.tcs(eid, tcs_vaddr)
                assert tcs.state == TCS_ACTIVE
                assert tcs.eid == eid

    @invariant()
    def active_tcs_accounted_for(self):
        stacked = set()
        for core in self.machine.cores:
            stacked.update(zip(core.enclave_stack, core.tcs_stack))
        suspended = set()
        for (eid, vaddr), tcs in self.machine.tcs_registry.items():
            if tcs.saved_context is not None:
                for seid, svaddr in zip(
                        tcs.saved_context["enclave_stack"],
                        tcs.saved_context["tcs_stack"]):
                    suspended.add((seid, svaddr))
        for (eid, vaddr), tcs in self.machine.tcs_registry.items():
            if tcs.state == TCS_ACTIVE:
                assert (eid, vaddr) in stacked | suspended

    @invariant()
    def adjacent_frames_respect_nesting(self):
        for core in self.machine.cores:
            stack = core.enclave_stack
            for below, above in zip(stack, stack[1:]):
                above_secs = self.machine.enclave(above)
                below_secs = self.machine.enclave(below)
                # above is an inner of below (NEENTER) or an outer of
                # below (NEEXIT call form).
                assert below in above_secs.outer_eids \
                    or above in below_secs.outer_eids

    @invariant()
    def memory_invariants_hold(self):
        assert audit_machine(self.machine) == []


TransitionMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestTransitionStateMachine = TransitionMachine.TestCase
