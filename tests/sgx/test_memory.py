"""Physical memory, PRM/EPC geometry, and the EPC allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SgxFault
from repro.sgx.constants import MachineConfig, PAGE_SIZE, SmallMachineConfig
from repro.sgx.memory import EpcAllocator, PhysicalMemory


@pytest.fixture
def config():
    return SmallMachineConfig()


@pytest.fixture
def mem(config):
    return PhysicalMemory(config)


class TestPhysicalMemory:
    def test_read_untouched_memory_is_zero(self, mem):
        assert mem.read(0x1000, 32) == bytes(32)

    def test_write_read_roundtrip(self, mem):
        mem.write(0x1234, b"hello world")
        assert mem.read(0x1234, 11) == b"hello world"

    def test_cross_page_write(self, mem):
        data = bytes(range(256)) * 40  # 10240 bytes: spans 3+ pages
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data

    def test_out_of_range_read_faults(self, mem, config):
        with pytest.raises(SgxFault):
            mem.read(config.dram_bytes - 4, 8)

    def test_negative_address_faults(self, mem):
        with pytest.raises(SgxFault):
            mem.read(-8, 8)

    def test_zero_page(self, mem):
        mem.write(0x2000, b"\xff" * 64)
        mem.zero_page(0x2000)
        assert mem.read(0x2000, 64) == bytes(64)

    def test_zero_page_requires_alignment(self, mem):
        with pytest.raises(ValueError):
            mem.zero_page(0x2001)

    def test_prm_membership(self, mem, config):
        assert mem.in_prm(config.prm_base)
        assert mem.in_prm(config.prm_base + config.prm_bytes - 1)
        assert not mem.in_prm(config.prm_base - 1)
        assert not mem.in_prm(config.prm_base + config.prm_bytes)

    def test_epc_subset_of_prm(self, mem, config):
        assert mem.in_epc(config.epc_base)
        assert mem.in_prm(config.epc_base)
        assert not mem.in_epc(config.epc_base + config.epc_bytes)

    def test_drop_frame_forgets_contents(self, mem):
        mem.write(0x3000, b"secret")
        mem.drop_frame(0x3)
        assert mem.read(0x3000, 6) == bytes(6)

    @given(st.integers(min_value=0, max_value=2**20 - 64),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_write_then_read_property(self, addr, data):
        mem = PhysicalMemory(SmallMachineConfig())
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data


class TestConfigValidation:
    def test_misaligned_prm_base_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(prm_base=0x1001)

    def test_epc_larger_than_prm_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(prm_bytes=1 << 20, epc_bytes=2 << 20)

    def test_prm_outside_dram_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(dram_bytes=1 << 20, prm_base=1 << 20,
                          prm_bytes=1 << 20, epc_bytes=1 << 19)


class EagerEpcAllocator:
    """The allocator the watermark version replaced, kept as the oracle:
    every frame materialised up front in a hand-out list (popped from
    the end, so ascending) plus a free set; ``alloc_specific`` leaves a
    stale list entry that ``alloc`` skips."""

    def __init__(self, config) -> None:
        self._order = [config.epc_base + i * PAGE_SIZE
                       for i in range(config.epc_pages)]
        self._order.reverse()
        self._free_set = set(self._order)
        self._used: set[int] = set()

    def alloc(self) -> int:
        while self._order:
            paddr = self._order.pop()
            if paddr in self._free_set:
                self._free_set.remove(paddr)
                self._used.add(paddr)
                return paddr
        raise SgxFault("EPC exhausted")

    def alloc_specific(self, paddr: int) -> int:
        if paddr not in self._free_set:
            raise SgxFault("not free")
        self._free_set.remove(paddr)
        self._used.add(paddr)
        return paddr

    def free(self, paddr: int) -> None:
        if paddr not in self._used:
            raise SgxFault("not allocated")
        self._used.remove(paddr)
        self._free_set.add(paddr)
        self._order.append(paddr)

    def capture(self) -> tuple:
        return (tuple(self._order), frozenset(self._free_set),
                frozenset(self._used))

    def restore(self, snapshot: tuple) -> None:
        order, free_set, used = snapshot
        self._order[:] = order
        self._free_set = set(free_set)
        self._used = set(used)

    @property
    def free_pages(self) -> int:
        return len(self._free_set)

    @property
    def used_pages(self) -> int:
        return len(self._used)


_ALLOC_PAGES = 6
# Frame indices -1 and _ALLOC_PAGES are just outside the EPC; the
# fractional one is a misaligned address.
_alloc_ops = st.lists(st.one_of(
    st.just(("alloc", 0)),
    st.tuples(st.sampled_from(["free", "alloc_specific"]),
              st.sampled_from([-1, 0, 1, 2, 3, 4, 5, _ALLOC_PAGES, 2.5])),
    st.just(("capture", 0)),
    st.tuples(st.just("restore"), st.integers(0, 7))), max_size=40)


class TestEpcAllocatorMatchesEager:
    @given(_alloc_ops)
    @settings(max_examples=200, deadline=None)
    def test_same_hand_out_order_and_snapshots(self, ops):
        """Random alloc/free/alloc_specific/capture/restore sequences:
        the same frames, the same faults and the same counts; two
        snapshots are equal exactly when the eager ones are."""
        config = SmallMachineConfig(epc_bytes=_ALLOC_PAGES * PAGE_SIZE)
        lazy, eager = EpcAllocator(config), EagerEpcAllocator(config)
        snapshots = []
        for op, arg in ops:
            if op == "capture":
                snapshots.append((lazy.capture(), eager.capture()))
                continue
            if op == "restore":
                if snapshots:
                    lazy_snap, eager_snap = snapshots[arg % len(snapshots)]
                    lazy.restore(lazy_snap)
                    eager.restore(eager_snap)
                continue
            args = () if op == "alloc" else (
                config.epc_base + int(arg * PAGE_SIZE),)
            outcomes = []
            for allocator in (lazy, eager):
                try:
                    outcomes.append(getattr(allocator, op)(*args))
                except SgxFault:
                    outcomes.append(SgxFault)
            assert outcomes[0] == outcomes[1]
            assert (lazy.free_pages, lazy.used_pages) \
                == (eager.free_pages, eager.used_pages)
        for (lazy_a, eager_a) in snapshots:
            for (lazy_b, eager_b) in snapshots:
                assert (lazy_a == lazy_b) == (eager_a == eager_b)
        # Draining both hands out the rest in the same order.
        drained = []
        for allocator in (lazy, eager):
            frames = []
            while allocator.free_pages:
                frames.append(allocator.alloc())
            drained.append(frames)
        assert drained[0] == drained[1]


class TestEpcAllocator:
    def test_alloc_returns_epc_frames(self, config):
        alloc = EpcAllocator(config)
        frame = alloc.alloc()
        assert config.epc_base <= frame < config.epc_base + config.epc_bytes
        assert frame % PAGE_SIZE == 0

    def test_alloc_unique_until_exhaustion(self, config):
        alloc = EpcAllocator(config)
        frames = {alloc.alloc() for _ in range(config.epc_pages)}
        assert len(frames) == config.epc_pages
        with pytest.raises(SgxFault):
            alloc.alloc()

    def test_free_recycles(self, config):
        alloc = EpcAllocator(config)
        frame = alloc.alloc()
        alloc.free(frame)
        assert alloc.free_pages == config.epc_pages

    def test_double_free_rejected(self, config):
        alloc = EpcAllocator(config)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(SgxFault):
            alloc.free(frame)

    def test_alloc_specific(self, config):
        alloc = EpcAllocator(config)
        target = config.epc_base + 3 * PAGE_SIZE
        assert alloc.alloc_specific(target) == target
        with pytest.raises(SgxFault):
            alloc.alloc_specific(target)

    def test_counts(self, config):
        alloc = EpcAllocator(config)
        alloc.alloc()
        alloc.alloc()
        assert alloc.used_pages == 2
        assert alloc.free_pages == config.epc_pages - 2
