"""Run-boundary equivalence of the memory path.

Runs crossing cache-line and page boundaries must return
per-byte-identical data, with the LLC warm and cold and with MEE byte
encryption on and off, and runs crossing into an EWB'd page must fault,
recharge, and reload exactly like the reference replay
(``MachineConfig.reference_paths``, no inline TLB-hit serve).
"""

import pytest

from repro.core import NestedValidator, audit_machine
from repro.errors import PageFault
from repro.os import Kernel
from repro.perf.fingerprint import machine_fingerprint
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine, isa
from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig

EDL = """
enclave {
    trusted {
        public int bump(int addr);
    };
};
"""


def _bump(ctx, addr):
    value = int.from_bytes(ctx.read(addr, 8), "little") + 1
    ctx.write(addr, value.to_bytes(8, "little"))
    return value


def _cold_llc(machine) -> None:
    """Drop every LLC line in place (the cores alias the set list)."""
    for lru in machine.llc._sets:
        lru.clear()


def _build_world(**config_overrides):
    machine = Machine(SmallMachineConfig(num_cores=2, **config_overrides),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("plancache")
    outer_builder = EnclaveBuilder("pc-outer", parse_edl(EDL),
                                   signing_key=key, num_tcs=4,
                                   heap_bytes=8 * PAGE_SIZE)
    outer_builder.add_entry("bump", _bump)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder("pc-inner", parse_edl(EDL),
                                   signing_key=key, num_tcs=4)
    inner_builder.add_entry("bump", _bump)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)

    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    for core in machine.cores:
        core.address_space = host.proc.space
    return machine, host, outer, inner


@pytest.fixture
def world():
    return _build_world()


#: Spans (offset into the heap, size) crossing every boundary the memory
#: path must charge exactly: inside one line, across a cache line,
#: across a page, multi-page unaligned, multi-page aligned.
BOUNDARY_SPANS = (
    (3, 5),
    (64 - 3, 6),
    (PAGE_SIZE - 5, 10),
    (17, 2 * PAGE_SIZE + 31),
    (0, 4 * PAGE_SIZE),
)

#: TLB capacity for the reference comparison: below the sequence's
#: five-page working set, so it capacity-evicts, but large enough for
#: the warm passes over pages 0-3 to hit and be served inline.
TINY_TLB = 4


class TestRunBoundaryEquivalence:
    def _sequence(self, machine, core, outer):
        """The fixed boundary-crossing access sequence both paths run.

        The LLC-cold passes drop every line (both machines alike), so
        the inline-served single-page accesses miss to PRM: reads through
        the MEE decrypt, the write-back of the same bytes through its
        encrypt.  Returns the data read and the final TLB contents, LRU
        order included."""
        heap = outer.heap.base
        pattern = bytes(i & 0xFF for i in range(5 * PAGE_SIZE))
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        core.write(heap, pattern)
        out = []
        for offset, size in BOUNDARY_SPANS:
            out.append(core.read(heap + offset, size))
        core.flush_tlb()              # force refills mid-sequence
        for _ in range(2):            # the second pass runs warm
            for offset, size in BOUNDARY_SPANS:
                out.append(core.read(heap + offset, size))
        _cold_llc(machine)
        cold = [core.read(heap + offset, size)
                for offset, size in BOUNDARY_SPANS]
        out += cold
        _cold_llc(machine)
        for (offset, _size), data in zip(BOUNDARY_SPANS, cold):
            core.write(heap + offset, data)
        out.append(core.read(heap + 8, 8))     # promote page 0 from LRU
        out.append(core.read(heap + 4 * PAGE_SIZE, 8))  # evicts the LRU
        tlb = core.tlb.capture()
        isa.eexit(machine, core)
        return out, tlb

    def test_bulk_reads_equal_per_byte_reads(self, world):
        machine, host, outer, inner = world
        core = machine.cores[0]
        heap = outer.heap.base
        runs, _tlb = self._sequence(machine, core, outer)
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        for (offset, size), data in zip(BOUNDARY_SPANS, runs):
            per_byte = b"".join(core.read(heap + offset + i, 1)
                                for i in range(size))
            assert per_byte == data
        isa.eexit(machine, core)
        assert audit_machine(machine) == []

    def _assert_matches_reference(self, mee_bytes):
        fast_m, _h, fast_outer, _i = _build_world(
            tlb_entries=TINY_TLB, mee_encrypt_bytes=mee_bytes)
        ref_m, _h2, ref_outer, _i2 = _build_world(
            tlb_entries=TINY_TLB, mee_encrypt_bytes=mee_bytes,
            reference_paths=True)
        fast, fast_tlb = self._sequence(fast_m, fast_m.cores[0],
                                        fast_outer)
        ref, ref_tlb = self._sequence(ref_m, ref_m.cores[0], ref_outer)
        assert fast == ref
        assert fast_tlb == ref_tlb
        assert len(fast_tlb) == TINY_TLB
        assert fast_m.counters.get("mee_line_encrypt") > 0
        assert fast_m.counters.get("mee_line_decrypt") > 0
        assert machine_fingerprint(fast_m) == machine_fingerprint(ref_m)

    def test_boundary_runs_match_reference_bit_for_bit(self):
        """Same sequence, inline serve vs ``reference_paths``: data, clock,
        counters, breakdown, ciphertext, MEE root, and TLB contents in
        LRU order all identical.  The TLB is small enough that the
        sequence capacity-evicts, so an inline hit that skipped (or
        misordered) its LRU promotion would evict a different page."""
        self._assert_matches_reference(mee_bytes=True)

    def test_boundary_runs_match_reference_with_mee_bytes_off(self):
        """The same comparison with ``mee_encrypt_bytes=False``, the
        configuration every performance experiment runs: MEE time is
        charged, DRAM holds plaintext."""
        self._assert_matches_reference(mee_bytes=False)

    def test_run_into_an_ewbed_page_matches_reference(self):
        """EPC-section boundary: a run whose tail page was EWB'd must
        abort with the same #PF, charge the same partial work, and
        complete identically after ELDB — on both paths."""
        outcomes = []
        for overrides in ({}, {"reference_paths": True}):
            machine, host, outer, _inner = _build_world(**overrides)
            core = machine.cores[0]
            heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
            target = heap_page + PAGE_SIZE          # second heap page
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            core.write(outer.heap.base, bytes(range(256)) * 32)
            isa.eexit(machine, core)

            host.kernel.driver.evict_page(outer.secs, target)
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            with pytest.raises(PageFault) as excinfo:
                core.read(outer.heap.base, 2 * PAGE_SIZE)
            assert host.kernel.driver.handle_page_fault(outer.secs,
                                                        target)
            data = core.read(outer.heap.base, 2 * PAGE_SIZE)
            isa.eexit(machine, core)
            outcomes.append((excinfo.value.vaddr, data,
                             machine_fingerprint(machine)))
        assert outcomes[0] == outcomes[1]
