"""TLB model and untrusted page-table tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sgx.constants import PAGE_SIZE, PERM_RWX
from repro.sgx.paging import AddressSpace
from repro.sgx.tlb import Tlb, TlbEntry


def entry(vpn, pfn=0, perms=PERM_RWX, ctx=0):
    return TlbEntry(vpn=vpn, pfn=pfn, perms=perms, context_eid=ctx)


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(4)
        assert tlb.lookup(5) is None
        tlb.insert(entry(5, pfn=9))
        hit = tlb.lookup(5)
        assert hit is not None and hit.pfn == 9

    def test_capacity_evicts_lru(self):
        tlb = Tlb(2)
        tlb.insert(entry(1))
        tlb.insert(entry(2))
        tlb.lookup(1)          # 1 becomes MRU
        tlb.insert(entry(3))   # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_flush_clears_and_counts(self):
        tlb = Tlb(4)
        tlb.insert(entry(1))
        tlb.insert(entry(2))
        before = tlb.flush_count
        tlb.flush()
        assert len(tlb) == 0
        assert tlb.flush_count == before + 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tlb(0)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, vpns):
        tlb = Tlb(8)
        for vpn in vpns:
            tlb.insert(entry(vpn))
        assert len(tlb) <= 8
        # The most recently inserted entry is always present.
        assert vpns[-1] in tlb


class TestAddressSpace:
    def test_map_walk_translate(self):
        space = AddressSpace()
        space.map_page(0x10000, 0x5000)
        assert space.translate(0x10123) == 0x5123
        pte = space.walk(0x10000)
        assert pte is not None and pte.pfn == 5

    def test_unmapped_returns_none(self):
        space = AddressSpace()
        assert space.walk(0x4000) is None
        assert space.translate(0x4000) is None

    def test_unmap(self):
        space = AddressSpace()
        space.map_page(0x10000, 0x5000)
        space.unmap_page(0x10000)
        assert space.walk(0x10000) is None

    def test_not_present_translation_none(self):
        space = AddressSpace()
        space.map_page(0x10000, 0x5000)
        space.mark_not_present(0x10000)
        assert space.translate(0x10000) is None
        space.mark_present(0x10000, 0x6000)
        assert space.translate(0x10000) == 0x6000

    def test_misaligned_map_rejected(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_page(0x10001, 0x5000)
        with pytest.raises(ValueError):
            space.map_page(0x10000, 0x5001)

    def test_reserve_is_disjoint_and_aligned(self):
        space = AddressSpace()
        a = space.reserve(3 * PAGE_SIZE)
        b = space.reserve(PAGE_SIZE)
        assert a % PAGE_SIZE == 0 and b % PAGE_SIZE == 0
        assert b >= a + 3 * PAGE_SIZE

    def test_reserve_honours_alignment(self):
        space = AddressSpace()
        space.reserve(PAGE_SIZE)
        base = space.reserve(PAGE_SIZE, align=1 << 20)
        assert base % (1 << 20) == 0

    def test_os_can_remap_at_will(self):
        """The page table is untrusted: remapping must be *possible*
        (the protection lives in the access automaton, not here)."""
        space = AddressSpace()
        space.map_page(0x10000, 0x5000)
        space.map_page(0x10000, 0x9000)
        assert space.translate(0x10000) == 0x9123 - 0x123
