"""Kernel, scheduler, and SGX-driver tests (honest OS behaviour)."""

import pytest

from repro.core.access import NestedValidator
from repro.errors import SgxFault
from repro.experiments.common import nested_host
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx.constants import (PAGE_SIZE, SmallMachineConfig,
                                 ST_INITIALIZED)
from repro.sgx.eviction import VA_SLOTS_PER_PAGE
from repro.sgx.machine import Machine

SIMPLE_EDL = """
enclave {
    trusted {
        public int touch_all(void);
        public int read_u64(int addr);
        public int write_u64(int addr, int value);
    };
};
"""


def touch_all(ctx):
    """Touch every heap page so evictions have cached translations."""
    heap = ctx.handle.heap
    for off in range(0, heap.size, PAGE_SIZE):
        ctx.read(heap.base + off, 8)
    return 0


def read_u64(ctx, addr):
    return int.from_bytes(ctx.read(addr, 8), "little")


def write_u64(ctx, addr, value):
    ctx.write(addr, value.to_bytes(8, "little"))
    return 0


def _svc_image(heap_pages):
    builder = EnclaveBuilder("svc", parse_edl(SIMPLE_EDL),
                             signing_key=developer_key("svc"),
                             heap_bytes=heap_pages * PAGE_SIZE)
    builder.add_entry("touch_all", touch_all)
    builder.add_entry("read_u64", read_u64)
    builder.add_entry("write_u64", write_u64)
    return builder.build()


@pytest.fixture
def world():
    machine = Machine(SmallMachineConfig(num_cores=4),
                      validator_cls=NestedValidator)
    kernel = Kernel(machine)
    host = EnclaveHost(machine, kernel)
    handle = host.load(_svc_image(8))
    return machine, kernel, host, handle


class TestKernel:
    def test_spawn_assigns_unique_pids(self, world):
        machine, kernel, host, handle = world
        a, b = kernel.spawn("a"), kernel.spawn("b")
        assert a.pid != b.pid

    def test_mmap_gives_usable_untrusted_memory(self, world):
        machine, kernel, host, handle = world
        base = kernel.mmap(host.proc, 2 * PAGE_SIZE)
        host.core.write(base, b"user data")
        assert host.core.read(base, 9) == b"user data"

    def test_mmap_never_hands_out_prm(self, world):
        machine, kernel, host, handle = world
        for _ in range(8):
            base = kernel.mmap(host.proc, PAGE_SIZE)
            paddr = host.proc.space.translate(base)
            assert not machine.phys.in_prm(paddr)


class TestScheduler:
    def test_acquire_release_cycle(self, world):
        machine, kernel, host, handle = world
        sched = kernel.scheduler
        free0 = sched.free_count
        core = sched.acquire()
        assert sched.free_count == free0 - 1
        sched.release(core)
        assert sched.free_count == free0

    def test_exhaustion_raises(self, world):
        machine, kernel, host, handle = world
        sched = kernel.scheduler
        cores = [sched.acquire() for _ in range(sched.free_count)]
        with pytest.raises(SgxFault):
            sched.acquire()
        for core in cores:
            sched.release(core)

    def test_double_release_rejected(self, world):
        machine, kernel, host, handle = world
        core = kernel.scheduler.acquire()
        kernel.scheduler.release(core)
        with pytest.raises(SgxFault):
            kernel.scheduler.release(core)


class TestDriverLoading:
    def test_load_initialises_enclave(self, world):
        machine, kernel, host, handle = world
        assert handle.secs.state == ST_INITIALIZED
        assert handle.secs.mrenclave \
            == handle.image.sigstruct.expected_mrenclave

    def test_loaded_pages_mapped_and_owned(self, world):
        machine, kernel, host, handle = world
        entry = kernel.driver.loaded[handle.eid]
        for vaddr, frame in entry.resident.items():
            assert host.proc.space.translate(vaddr) == frame
            epcm = machine.epcm.entry(frame)
            assert epcm.valid and epcm.eid == handle.eid

    def test_unload_frees_epc(self, world):
        machine, kernel, host, handle = world
        used_before = machine.epc_alloc.used_pages
        pages = len(handle.image.pages) + 1  # + SECS
        host.unload(handle)
        assert machine.epc_alloc.used_pages == used_before - pages

    def test_unload_unknown_enclave_rejected(self, world):
        machine, kernel, host, handle = world
        host.unload(handle)
        with pytest.raises(SgxFault):
            kernel.driver.unload_enclave(handle.secs)


class TestDriverEviction:
    def test_evict_and_transparent_reload(self, world):
        machine, kernel, host, handle = world
        heap_page = handle.heap.base & ~(PAGE_SIZE - 1)
        target = heap_page + PAGE_SIZE  # a heap page with no live TLB
        handle.ecall("write_u64", target, 0xC0FFEE)
        machine.flush_all_tlbs()
        kernel.driver.evict_page(handle.secs, target)
        # The access faults inside the ecall; the SDK retry loop lets
        # the OS #PF handler reload the page and re-runs the entry, so
        # the caller sees the data survive the round trip transparently.
        assert handle.ecall("read_u64", target) == 0xC0FFEE
        # The retry consumed the evicted blob: nothing left to reload.
        assert not kernel.driver.handle_page_fault(handle.secs, target)

    def test_pf_handler_ignores_foreign_faults(self, world):
        machine, kernel, host, handle = world
        assert not kernel.driver.handle_page_fault(handle.secs, 0xDEAD000)

    def test_evict_nonresident_rejected(self, world):
        machine, kernel, host, handle = world
        with pytest.raises(SgxFault):
            kernel.driver.evict_page(handle.secs, 0xDEAD000)

    def test_evicting_many_pages_under_pressure(self, world):
        """Evict every heap page, then touch them all again."""
        machine, kernel, host, handle = world
        handle.ecall("touch_all")
        machine.flush_all_tlbs()
        heap_base = handle.heap.base & ~(PAGE_SIZE - 1)
        npages = handle.image.heap_bytes // PAGE_SIZE
        for i in range(npages):
            kernel.driver.evict_page(handle.secs, heap_base + i * PAGE_SIZE)
        for i in range(npages):
            assert kernel.driver.handle_page_fault(
                handle.secs, heap_base + i * PAGE_SIZE)
        assert handle.ecall("touch_all") == 0

    def test_reload_under_a_retired_version_array(self):
        """More evictions than one VA page has slots: the driver moves
        to a fresh VA, and pages sealed under the full one still reload
        against it."""
        host = nested_host(epc_bytes=8 << 20, mee_bytes=True)
        handle = host.load(_svc_image(600))
        driver = host.kernel.driver
        heap = handle.base_addr + handle.image.heap_offset
        pages = [heap + i * PAGE_SIZE for i in range(VA_SLOTS_PER_PAGE + 1)]
        for i, page in enumerate(pages):
            handle.ecall("write_u64", page, 0xA000 + i)
        host.machine.flush_all_tlbs()
        for page in pages:
            driver.evict_page(handle.secs, page)
        first = driver.loaded[handle.eid].evicted[pages[0]]
        last = driver.loaded[handle.eid].evicted[pages[-1]]
        assert first.va_frame != last.va_frame
        driver.reload_page(handle.secs, pages[0])
        driver.reload_page(handle.secs, pages[-1])
        assert handle.ecall("read_u64", pages[0]) == 0xA000
        assert handle.ecall("read_u64", pages[-1]) == \
            0xA000 + VA_SLOTS_PER_PAGE
