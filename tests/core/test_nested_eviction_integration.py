"""Integration: EPC eviction of outer-enclave pages while inner-enclave
threads are live, through the full OS-driver protocol (§IV-E)."""

import pytest

from repro.core import NestedValidator, audit_machine
from repro.errors import EvictionConflict, PageFault
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine
from repro.sgx import isa
from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig

OUTER_EDL = """
enclave {
    trusted {
        public int write_heap(int offset, int value);
        public int read_heap(int offset);
    };
};
"""

INNER_EDL = """
enclave {
    trusted {
        public int touch_outer(int addr);
    };
};
"""


def write_heap(ctx, offset, value):
    ctx.write(ctx.handle.heap.base + offset, value.to_bytes(8, "little"))
    return 0


def read_heap(ctx, offset):
    return int.from_bytes(ctx.read(ctx.handle.heap.base + offset, 8),
                          "little")


def touch_outer(ctx, addr):
    """Inner enclave reads an outer-enclave address directly."""
    return int.from_bytes(ctx.read(addr, 8), "little")


@pytest.fixture
def world():
    machine = Machine(SmallMachineConfig(num_cores=4),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("evict-int")
    outer_builder = EnclaveBuilder("outer", parse_edl(OUTER_EDL),
                                   signing_key=key,
                                   heap_bytes=4 * PAGE_SIZE)
    outer_builder.add_entry("write_heap", write_heap)
    outer_builder.add_entry("read_heap", read_heap)
    outer_probe = outer_builder.build()
    inner_builder = EnclaveBuilder("inner", parse_edl(INNER_EDL),
                                   signing_key=key)
    inner_builder.add_entry("touch_outer", touch_outer)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)
    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    return machine, host, outer, inner


class TestOuterEvictionWithInnerThreads:
    def test_inner_translation_tracked_and_page_survives(self, world):
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        offset = target - outer.heap.base
        outer.ecall("write_heap", offset, 0xFEED)

        # An inner thread on another core touches the OUTER page and
        # stays resident in enclave mode (its TLB holds the mapping).
        inner_core = machine.cores[1]
        inner_core.address_space = host.proc.space
        isa.eenter(machine, inner_core, inner.secs, inner.idle_tcs())
        assert inner.image.entries  # (the read goes via raw core access)
        inner_core.read(target, 8)

        # Evict with the extended protocol: the driver must AEX the
        # inner thread before EWB can proceed.
        host.kernel.driver.evict_page(outer.secs, target,
                                      include_inner=True)
        assert not inner_core.in_enclave_mode  # it got interrupted
        # The evicted page faults inside the ecall; the SDK retry loop
        # unwinds, has the OS reload it (ELDB) and re-runs the entry —
        # recovery is transparent to the caller and keeps the contents.
        assert outer.ecall("read_heap", offset) == 0xFEED
        # The retry already reloaded the page: nothing left to fix.
        assert not host.kernel.driver.handle_page_fault(outer.secs, target)

    def test_unextended_tracking_blocks_at_defence_in_depth(self, world):
        """Without include_inner the OS never interrupts the inner
        thread, and EWB refuses because the stale translation is real."""
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        inner_core = machine.cores[1]
        inner_core.address_space = host.proc.space
        isa.eenter(machine, inner_core, inner.secs, inner.idle_tcs())
        inner_core.read(target, 8)
        with pytest.raises(EvictionConflict):
            host.kernel.driver.evict_page(outer.secs, target,
                                          include_inner=False)
        isa.aex(machine, inner_core)  # clean up

    def test_interrupted_inner_thread_resumes(self, world):
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE
        inner_core = machine.cores[1]
        inner_core.address_space = host.proc.space
        tcs = inner.idle_tcs()
        isa.eenter(machine, inner_core, inner.secs, tcs)
        inner_core.read(target, 8)
        host.kernel.driver.evict_page(outer.secs, target)
        # ERESUME puts the thread back where it was...
        isa.eresume(machine, inner_core, inner.secs, tcs)
        assert inner_core.current_eid == inner.secs.eid
        # ...and its next access to the evicted page faults cleanly,
        # to be fixed by the OS #PF handler.
        with pytest.raises(PageFault):
            inner_core.read(target, 8)
        assert host.kernel.driver.handle_page_fault(outer.secs, target)
        inner_core.read(target, 8)
        isa.aex(machine, inner_core)
        assert audit_machine(machine) == []

    def test_inner_page_eviction_unaffected_by_extension(self, world):
        """Evicting an *inner* page uses plain tracking (no inners of
        an inner in the 2-level model)."""
        machine, host, outer, inner = world
        target = inner.heap.base & ~(PAGE_SIZE - 1)
        host.kernel.driver.evict_page(inner.secs, target)
        assert host.kernel.driver.handle_page_fault(inner.secs, target)
