"""EPC eviction protocol tests: EBLOCK/ETRACK/EWB/ELDB, anti-replay,
and the §IV-E nested thread-tracking extension."""

import hashlib

import pytest

from repro.core.access import NestedValidator
from repro.errors import EvictionConflict, IntegrityViolation, SgxFault
from repro.sgx import eviction
from repro.sgx.constants import (PAGE_SIZE, PERM_RW, PT_REG, PT_SECS,
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


def give_page(machine, space, secs, vaddr):
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=secs.eid, page_type=PT_REG, vaddr=vaddr,
                     perms=PERM_RW)
    space.map_page(vaddr, frame)
    return frame


@pytest.fixture
def world(machine):
    space = machine.new_address_space()
    core = machine.cores[0]
    core.address_space = space
    secs = make_enclave(machine, 0x100000)
    frame = give_page(machine, space, secs, 0x100000)
    va = eviction.alloc_version_array(machine)
    return machine, core, space, secs, frame, va


def idle_evict(machine, secs, frame, va):
    """Evict when no core is running the enclave (trivially clean)."""
    eviction.eblock(machine, frame)
    epoch = eviction.etrack(machine, secs)
    return eviction.ewb(machine, frame, va, epoch)


class TestBasicProtocol:
    def test_evict_reload_roundtrip(self, world):
        machine, core, space, secs, frame, va = world
        core.enclave_stack = [secs.eid]
        core.write(0x100000, b"precious enclave state")
        core.enclave_stack = []
        core.flush_tlb()

        blob = idle_evict(machine, secs, frame, va)
        assert not machine.epcm.entry(frame).valid
        new_frame = eviction.eldb(machine, blob, va)
        entry = machine.epcm.entry(new_frame)
        assert entry.valid and entry.eid == secs.eid \
            and entry.vaddr == 0x100000
        assert machine.epc_read(new_frame, 22) == b"precious enclave state"

    def test_blob_is_ciphertext(self, world):
        machine, core, space, secs, frame, va = world
        machine.epc_write(frame, b"SECRET-PAGE-CONTENT" + bytes(45))
        blob = idle_evict(machine, secs, frame, va)
        assert b"SECRET-PAGE-CONTENT" not in blob.ciphertext

    def test_ewb_requires_block(self, world):
        machine, core, space, secs, frame, va = world
        epoch = eviction.etrack(machine, secs)
        with pytest.raises(SgxFault):
            eviction.ewb(machine, frame, va, epoch)

    def test_tampered_blob_rejected(self, world):
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        bad = type(blob)(**{**blob.__dict__,
                            "ciphertext": bytes(PAGE_SIZE)})
        with pytest.raises(SgxFault):
            eviction.eldb(machine, bad, va)

    def test_replay_rejected(self, world):
        """Reloading the same blob twice must fail: the VA slot is
        consumed on first ELDB."""
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        eviction.eldb(machine, blob, va)
        with pytest.raises(SgxFault):
            eviction.eldb(machine, blob, va)

    def test_stale_blob_after_reevict_rejected(self, world):
        """Evict, reload, evict again: the *first* blob must not load."""
        machine, core, space, secs, frame, va = world
        machine.epc_write(frame, b"v1" + bytes(62))
        blob1 = idle_evict(machine, secs, frame, va)
        frame2 = eviction.eldb(machine, blob1, va)
        machine.epc_write(frame2, b"v2" + bytes(62))
        blob2 = idle_evict(machine, secs, frame2, va)
        with pytest.raises(SgxFault):
            eviction.eldb(machine, blob1, va)
        frame3 = eviction.eldb(machine, blob2, va)
        assert machine.epc_read(frame3, 2) == b"v2"

    def test_wrong_version_array_rejected(self, world):
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        other_va = eviction.alloc_version_array(machine)
        with pytest.raises(SgxFault):
            eviction.eldb(machine, blob, other_va)


class TestThreadTracking:
    def test_dirty_core_blocks_ewb(self, world):
        """A core running the enclave with unflushed TLB → conflict."""
        machine, core, space, secs, frame, va = world
        core.enclave_stack = [secs.eid]
        core.read(0x100000, 8)  # TLB now caches the translation
        eviction.eblock(machine, frame)
        epoch = eviction.etrack(machine, secs)
        with pytest.raises(EvictionConflict):
            eviction.ewb(machine, frame, va, epoch)

    def test_flush_after_etrack_unblocks(self, world):
        machine, core, space, secs, frame, va = world
        core.enclave_stack = [secs.eid]
        core.read(0x100000, 8)
        eviction.eblock(machine, frame)
        epoch = eviction.etrack(machine, secs)
        core.flush_tlb()            # the AEX-path flush
        core.enclave_stack = []
        blob = eviction.ewb(machine, frame, va, epoch)
        assert blob.vaddr == 0x100000

    def test_nested_tracking_covers_inner_threads(self, world):
        """§IV-E extension: a core running an *inner* enclave holds
        translations for the outer's pages; extended tracking sees it."""
        machine, core, space, secs, frame, va = world
        inner = make_enclave(machine, 0x200000)
        give_page(machine, space, inner, 0x200000)
        inner.outer_eids.append(secs.eid)
        inner.outer_eid = secs.eid
        secs.inner_eids.append(inner.eid)

        core.enclave_stack = [secs.eid, inner.eid]
        core.read(0x100000, 8)      # inner touches OUTER page
        eviction.eblock(machine, frame)
        epoch = eviction.etrack(machine, secs, include_inner=True)
        assert inner.eid in epoch.tracked_eids
        with pytest.raises(EvictionConflict):
            eviction.ewb(machine, frame, va, epoch)

    def test_unextended_tracking_misses_inner_threads(self, world):
        """Ablation/negative result: without the extension the epoch
        looks clean even though the inner thread's TLB is stale —
        the *defence in depth* frame check still refuses, proving the
        hazard is real."""
        machine, core, space, secs, frame, va = world
        inner = make_enclave(machine, 0x200000)
        inner.outer_eids.append(secs.eid)
        inner.outer_eid = secs.eid
        secs.inner_eids.append(inner.eid)

        core.enclave_stack = [inner.eid]   # running ONLY the inner
        core.read(0x100000, 8)             # caches outer translation
        eviction.eblock(machine, frame)
        epoch = eviction.etrack(machine, secs, include_inner=False)
        # Unextended tracking believes no thread needs interrupting...
        assert not epoch.dirty_cores
        assert eviction.epoch_clean(machine, epoch)
        # ...but the stale translation really is there, which the
        # model's defence-in-depth frame scan catches.
        with pytest.raises(EvictionConflict):
            eviction.ewb(machine, frame, va, epoch)

    def test_global_flush_variant(self, world):
        """The 'simplified, costlier' §IV-E alternative: IPI every core."""
        machine, core, space, secs, frame, va = world
        core.enclave_stack = [secs.eid]
        core.read(0x100000, 8)
        core.enclave_stack = []
        snap = machine.counters.snapshot()
        blob = eviction.evict_with_global_flush(machine, frame, va, secs)
        delta = machine.counters.delta_since(snap)
        assert blob.eid == secs.eid
        assert delta.get("ipi") == machine.config.num_cores
        assert delta.get("ewb") == 1


def test_sealed_blob_known_answer():
    """The EWB page cipher pinned byte for byte on a fixed machine.  A
    keystream that is wrong but the same in EWB and ELDB still
    round-trips, so only a known answer catches it."""
    from repro.perf.fingerprint import bulk_pair
    host, outer, _inner = bulk_pair()
    outer.ecall("fill", 0, 2 * PAGE_SIZE, 0x5A)
    page = outer.heap.base & ~(PAGE_SIZE - 1)
    driver = host.kernel.driver
    driver.evict_page(outer.secs, page)
    blob = driver.loaded[outer.secs.eid].evicted[page]
    assert hashlib.sha256(blob.ciphertext + blob.mac_tag).hexdigest() == (
        "88a0cc7934a1df89186d7cea751c5a85"
        "ed60c504463bfe4c072f9bf6bdfa7f1d")
    driver.reload_page(outer.secs, page)
    assert outer.ecall("checksum", 0, 2 * PAGE_SIZE) == sum(
        (0x5A + i) & 0xFF for i in range(2 * PAGE_SIZE))


class TestVersionArray:
    def test_slots_allocated_and_consumed(self, world):
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        assert va.slots[blob.va_slot] is not None
        eviction.eldb(machine, blob, va)
        assert va.slots[blob.va_slot] is None

    def test_many_evictions_use_distinct_slots(self, machine):
        space = machine.new_address_space()
        secs = make_enclave(machine, 0x100000, size=0x40000)
        va = eviction.alloc_version_array(machine)
        slots = set()
        for i in range(8):
            vaddr = 0x100000 + i * PAGE_SIZE
            frame = give_page(machine, space, secs, vaddr)
            blob = idle_evict(machine, secs, frame, va)
            slots.add(blob.va_slot)
        assert len(slots) == 8


class TestPageStreamHandoff:
    """EWB keeps the page keystream on the version array for the ELDB
    that consumes the slot; without it ELDB derives the stream again."""

    def test_eldb_takes_the_kept_stream(self, world):
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        version, stream = va.streams[blob.va_slot]
        assert version == va.slots[blob.va_slot]
        assert len(stream) == PAGE_SIZE
        eviction.eldb(machine, blob, va)
        assert va.streams == {}

    def test_eldb_without_the_kept_stream_reloads_the_same_page(self,
                                                               world):
        machine, core, space, secs, frame, va = world
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        machine.epc_write(frame, page)
        blob = idle_evict(machine, secs, frame, va)
        va.streams.clear()
        new_frame = eviction.eldb(machine, blob, va)
        assert machine.epc_read(new_frame, PAGE_SIZE) == page

    def test_restored_slot_does_not_take_another_versions_stream(
            self, world):
        """The model checker restores ``va.slots`` in place: the slot
        holds the first blob's version again while the stream kept for
        it belongs to a later EWB into the same slot.  ELDB derives the
        first blob's stream instead of using the kept one."""
        machine, core, space, secs, frame, va = world
        first = b"\x11" * PAGE_SIZE
        machine.epc_write(frame, first)
        blob1 = idle_evict(machine, secs, frame, va)
        saved = list(va.slots)
        frame2 = eviction.eldb(machine, blob1, va)
        machine.epc_write(frame2, b"\x22" * PAGE_SIZE)
        blob2 = idle_evict(machine, secs, frame2, va)
        assert blob2.va_slot == blob1.va_slot
        va.slots[:] = saved
        frame3 = eviction.eldb(machine, blob1, va)
        assert machine.epc_read(frame3, PAGE_SIZE) == first
        assert va.streams == {}

    def test_failed_eldb_keeps_the_stream_for_the_real_blob(self, world):
        machine, core, space, secs, frame, va = world
        blob = idle_evict(machine, secs, frame, va)
        bad = type(blob)(**{**blob.__dict__,
                            "ciphertext": bytes(PAGE_SIZE)})
        with pytest.raises(SgxFault):
            eviction.eldb(machine, bad, va)
        assert blob.va_slot in va.streams
        eviction.eldb(machine, blob, va)
        assert va.streams == {}

    def test_evict_reload_cycles_keep_at_most_one_stream(self, world):
        machine, core, space, secs, frame, va = world
        machine.epc_write(frame, b"cycle" + bytes(59))
        for _ in range(1000):
            blob = idle_evict(machine, secs, frame, va)
            assert len(va.streams) == 1
            frame = eviction.eldb(machine, blob, va)
        assert va.streams == {}
        assert machine.epc_read(frame, 5) == b"cycle"


def test_unload_drops_per_page_state():
    """EREMOVE (through the driver's unload) leaves no MEE line record
    for the enclave's frames: each of their lines reads as never
    written, so a zero fill passes and the frame's last ciphertext is
    refused.  The keystreams kept for its evicted pages go with their
    blobs."""
    from repro.perf.fingerprint import nested_pair
    host, outer, inner = nested_pair()
    machine, driver = host.machine, host.kernel.driver
    outer.ecall("storm", 2)
    heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
    driver.evict_page(outer.secs, heap_page + PAGE_SIZE)
    assert any(va.streams for va in driver._vas.values())
    mee = machine.mee
    for handle in (inner, outer):
        frames = set(machine.epcm.pages_of(handle.secs.eid))
        frames.add(handle.secs.eid)
        dram = {frame: machine.dram_ciphertext(frame, PAGE_SIZE)
                for frame in frames}
        host.unload(handle)
        for frame, cipher in dram.items():
            assert mee.decrypt_lines(frame, bytes(PAGE_SIZE)) \
                == bytes(PAGE_SIZE)
            if any(cipher):
                with pytest.raises(IntegrityViolation,
                                   match="before first MEE write"):
                    mee.decrypt_lines(frame, cipher)
    assert not any(va.streams for va in driver._vas.values())


class TestUnloadFreesVersionArrays:
    """Unloading the last enclave with a blob in a version array
    EREMOVEs the array: its EPCM entry and frame go back."""

    def _paged_out_pair(self):
        from repro.perf.fingerprint import nested_pair
        from repro.sgx.constants import MachineConfig
        machine = Machine(MachineConfig(mee_encrypt_bytes=True),
                          validator_cls=NestedValidator)
        free_before = machine.epc_alloc.free_pages
        host, outer, inner = nested_pair(machine)
        outer.ecall("poke", 64, 0x5EED)
        heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
        host.kernel.driver.evict_page(outer.secs, heap_page)
        return host, outer, inner, free_before

    def test_epc_free_count_returns_to_its_pre_load_value(self):
        host, outer, inner, free_before = self._paged_out_pair()
        driver = host.kernel.driver
        (frame,) = driver._vas
        host.unload(inner)
        host.unload(outer)
        assert host.machine.epc_alloc.free_pages == free_before
        assert driver._vas == {} and driver._va is None
        assert not host.machine.epcm.entry(frame).valid

    def test_array_with_a_live_blob_stays(self):
        """Unloading the inner leaves the outer's blob reloadable."""
        host, outer, inner, _free = self._paged_out_pair()
        driver = host.kernel.driver
        host.unload(inner)
        (va,) = driver._vas.values()
        assert host.machine.epcm.entry(va.frame).valid
        heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
        driver.reload_page(outer.secs, heap_page)
        assert outer.ecall("peek", 64) == 0x5EED

    def test_next_eviction_after_the_array_is_gone_allocates_anew(self):
        host, outer, inner, _free = self._paged_out_pair()
        driver = host.kernel.driver
        host.unload(inner)
        host.unload(outer)
        free = host.machine.epc_alloc.free_pages
        va = driver._version_array()
        assert driver._vas == {va.frame: va}
        assert host.machine.epc_alloc.free_pages == free - 1
