"""Cost model, simulated clock, LLC model, and counter tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.cache import LlcModel
from repro.perf.costmodel import CostModel, CostParams, SimClock
from repro.perf.counters import Counters


class TestClock:
    def test_monotone(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(0.0)
        assert clock.now_ns == 5.0

    def test_no_time_travel(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestCostModel:
    def test_charge_event_uses_params(self):
        model = CostModel(params=CostParams(ecall_ns=123.0))
        model.charge_event("ecall")
        assert model.clock.now_ns == 123.0
        assert model.snapshot()["ecall"] == 123.0

    def test_charge_gcm_includes_setup(self):
        model = CostModel(params=CostParams(gcm_byte_ns=2.0,
                                            gcm_setup_ns=100.0))
        model.charge_gcm(50)
        assert model.clock.now_ns == 200.0

    def test_breakdown_accumulates(self):
        model = CostModel()
        model.charge("x", 1.0)
        model.charge("x", 2.0)
        model.charge("y", 5.0)
        assert model.snapshot() == {"x": 3.0, "y": 5.0}
        assert model.clock.now_ns == 8.0

    def test_counted_event_books_the_counter(self):
        """A counted event lives in its counter slot alone; the
        breakdown derives its time as count x latency."""
        model = CostModel(params=CostParams(ecall_ns=123.0))
        model.charge_event("ecall")
        assert model.counters.get("ecall") == 1
        assert "ecall" not in model.breakdown
        assert model.snapshot()["ecall"] == 123.0

    def test_unknown_event_raises(self):
        with pytest.raises(AttributeError):
            CostModel().charge_event("warp_drive")

    def test_table2_calibration_defaults(self):
        params = CostParams()
        assert params.ecall_ns == 1250.0      # paper Table II
        assert params.n_ecall_ns == 1110.0
        assert params.n_ocall_ns == 1060.0
        assert params.hw_ecall_ns == 3450.0


class TestLlc:
    def test_miss_then_hit(self):
        llc = LlcModel(size_bytes=1024, ways=2)
        assert llc.access_range(0x100, 1) == (0, 1)
        assert llc.access_range(0x100, 1) == (1, 0)
        assert llc.access_range(0x13F, 1) == (1, 0)  # same line
        assert llc.contains(0x100)

    def test_set_conflict_eviction(self):
        llc = LlcModel(size_bytes=256, ways=2)
        # num_sets = 2; lines mapping to set 0: addresses 0, 128, 256...
        llc.access_range(0, 1)
        llc.access_range(128, 1)
        llc.access_range(256, 1)   # evicts line 0 (LRU)
        assert not llc.contains(0)
        assert llc.contains(128) and llc.contains(256)
        assert llc.access_range(0, 1) == (0, 1)

    def test_lru_order(self):
        llc = LlcModel(size_bytes=256, ways=2)
        llc.access_range(0, 1)
        llc.access_range(128, 1)
        llc.access_range(0, 1)     # 0 becomes MRU
        llc.access_range(256, 1)   # evicts 128, not 0
        assert llc.contains(0)
        assert not llc.contains(128)

    def test_access_range_counts(self):
        llc = LlcModel(size_bytes=4096, ways=4)
        hits, misses = llc.access_range(0, 256)      # 4 lines
        assert (hits, misses) == (0, 4)
        hits, misses = llc.access_range(0, 256)
        assert (hits, misses) == (4, 0)

    def test_unaligned_range(self):
        llc = LlcModel(size_bytes=4096, ways=4)
        hits, misses = llc.access_range(60, 8)       # straddles 2 lines
        assert misses == 2

    def test_empty_range(self):
        llc = LlcModel(size_bytes=4096, ways=4)
        assert llc.access_range(0, 0) == (0, 0)

    def test_flush(self):
        llc = LlcModel(size_bytes=4096, ways=4)
        llc.access_range(0, 1)
        llc.flush()
        assert not llc.contains(0)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            LlcModel(size_bytes=1000, ways=3)

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_capacity_bound_property(self, addrs):
        llc = LlcModel(size_bytes=1024, ways=2)
        touched = 0
        for addr in addrs:
            hits, misses = llc.access_range(addr, 1)
            touched += hits + misses
            assert llc.contains(addr)
        resident = sum(len(s) for s in llc._sets)
        assert resident <= llc.capacity_lines
        assert touched == len(addrs)


class TestCounters:
    def test_bump_get(self):
        counters = Counters()
        counters.bump("ecall")
        counters.bump("ecall", 4)
        assert counters.get("ecall") == 5
        assert counters.get("ocall") == 0

    def test_non_canonical_name_raises(self):
        with pytest.raises(KeyError):
            Counters().bump("x")

    def test_delta_since(self):
        counters = Counters()
        counters.bump("ecall", 2)
        snap = counters.snapshot()
        counters.bump("ecall")
        counters.bump("ocall", 3)
        assert counters.delta_since(snap) == {"ecall": 1, "ocall": 3}

    def test_delta_omits_zeros(self):
        counters = Counters()
        counters.bump("ecall")
        snap = counters.snapshot()
        assert counters.delta_since(snap) == {}

    def test_reset(self):
        counters = Counters()
        counters.bump("ecall")
        counters.reset()
        assert counters.snapshot() == {}


class TestDerivedBreakdown:
    def test_counted_buckets_are_derived_not_stored(self):
        """After a real nested workload the breakdown dict holds none of
        the derived buckets, and the snapshot reports each non-zero one
        as its count x latency."""
        from repro.perf.costmodel import COUNTED_EVENTS, LINE_BUCKETS
        from repro.perf.fingerprint import nested_pair

        host, outer, _inner = nested_pair()
        outer.ecall("poke", 0, 7)
        outer.ecall("storm", 3)
        outer.ecall("interrupted", 0)
        machine = host.machine
        cost = machine.cost
        derived = set(COUNTED_EVENTS) | {b for b, _, _ in LINE_BUCKETS}
        assert len(derived) == 15
        assert not derived & set(cost.breakdown)
        snapshot = cost.snapshot()
        slots = machine.counters.slots
        expected = {}
        for event, slot in COUNTED_EVENTS.items():
            expected[event] = slots[slot] * getattr(cost.params,
                                                    event + "_ns")
        for bucket, field, bucket_slots in LINE_BUCKETS:
            expected[bucket] = (sum(slots[i] for i in bucket_slots)
                                * getattr(cost.params, field))
        assert {k: v for k, v in snapshot.items() if k in derived} == \
            {k: v for k, v in expected.items() if v}
        for bucket in ("ecall", "ocall", "n_ecall", "n_ocall", "aex",
                       "tlb_hit", "cache_hit", "dram", "mee"):
            assert snapshot[bucket] > 0, bucket
