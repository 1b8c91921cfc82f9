"""Machine memory-side path tests: MEE RMW at odd granularities, the
PRM-but-not-EPC region, and cost charging symmetry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AccessViolation, IntegrityViolation, SgxFault
from repro.sgx.constants import (CACHELINE_SIZE, PAGE_SIZE, PERM_RW,
                                 PT_REG, SmallMachineConfig)
from repro.sgx.machine import Machine
from repro.sgx.memory import PhysicalMemory
from tests.sgx.test_mee import ReferenceMee


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


def owned_frame(machine, eid=1):
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=eid, page_type=PT_REG, vaddr=0x100000,
                     perms=PERM_RW)
    return frame


class TestPartialLineRmw:
    def test_unaligned_write_preserves_neighbours(self, machine):
        frame = owned_frame(machine)
        machine.epc_write(frame, bytes(range(128)))
        # Overwrite 10 bytes straddling the line boundary at +64.
        machine.epc_write(frame + 59, b"XXXXXXXXXX")
        data = machine.epc_read(frame, 128)
        assert data[:59] == bytes(range(59))
        assert data[59:69] == b"XXXXXXXXXX"
        assert data[69:] == bytes(range(69, 128))

    def test_single_byte_updates(self, machine):
        frame = owned_frame(machine)
        for i in range(0, CACHELINE_SIZE * 2, 7):
            machine.epc_write(frame + i, bytes([i & 0xFF]))
        for i in range(0, CACHELINE_SIZE * 2, 7):
            assert machine.epc_read(frame + i, 1) == bytes([i & 0xFF])

    @given(st.integers(0, PAGE_SIZE - 64), st.binary(min_size=1,
                                                     max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_rmw_roundtrip_property(self, offset, data):
        machine = Machine(SmallMachineConfig())
        frame = owned_frame(machine)
        machine.epc_write(frame + offset, data)
        assert machine.epc_read(frame + offset, len(data)) == data

    def test_ciphertext_differs_across_rewrites(self, machine):
        """CTR versions: same plaintext rewritten to the same line gives
        different DRAM bytes (no two-time pad)."""
        frame = owned_frame(machine)
        machine.epc_write(frame, b"A" * 64)
        first = machine.dram_ciphertext(frame, 64)
        machine.epc_write(frame, b"A" * 64)
        second = machine.dram_ciphertext(frame, 64)
        assert first != second


class ReferencePrm:
    """The per-line PRM path the span path replaced, kept as the
    oracle: one DRAM read and one MEE call per line filled, one MEE call
    and one DRAM write per line written back.  As on the span path, a
    write fills its partial head line, then its partial tail line,
    before it writes any line back."""

    def __init__(self, phys, mee) -> None:
        self.phys = phys
        self.mee = mee

    def read(self, paddr: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            line_addr = paddr - paddr % CACHELINE_SIZE
            off = paddr - line_addr
            chunk = min(size, CACHELINE_SIZE - off)
            plain = self.mee.decrypt_line(
                line_addr, self.phys.read(line_addr, CACHELINE_SIZE))
            out += plain[off:off + chunk]
            paddr += chunk
            size -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        if not data:
            return
        line = CACHELINE_SIZE
        first = paddr - paddr % line
        end = paddr + len(data) + (-(paddr + len(data))) % line
        kept = {}
        for line_addr in (first, end - line):
            if line_addr not in kept and (
                    line_addr < paddr
                    or line_addr + line > paddr + len(data)):
                kept[line_addr] = self.read(line_addr, line)
        span = bytearray(b"".join(kept.get(line_addr, bytes(line))
                                  for line_addr in range(first, end, line)))
        span[paddr - first:paddr - first + len(data)] = data
        for off in range(0, end - first, line):
            self.phys.write(first + off, self.mee.encrypt_line(
                first + off, bytes(span[off:off + line])))


#: Span starts: a line index in the first two frames (62-63 end the
#: first frame, so long spans cross into the second) and an offset.
_spans = st.tuples(st.sampled_from([0, 1, 31, 62, 63, 64]),
                   st.sampled_from([0, 1, 63]),
                   st.sampled_from([0, 1, 63, 64, 65, 4097]))


class TestSpanPathMatchesPerLineOracle:
    """``_read_prm_plaintext``/``_write_prm_plaintext`` against the
    per-line oracle: DRAM bytes, ``root_mac()`` and plaintext."""

    @given(st.lists(st.tuples(st.booleans(), _spans), min_size=1,
                    max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_spans(self, ops, rng):
        machine = Machine(SmallMachineConfig())
        oracle = ReferencePrm(PhysicalMemory(machine.config),
                              ReferenceMee())
        base = machine.config.epc_base
        for is_write, (line, off, size) in ops:
            paddr = base + line * CACHELINE_SIZE + off
            if is_write:
                data = rng.randbytes(size)
                machine._write_prm_plaintext(paddr, data)
                oracle.write(paddr, data)
            else:
                # Reads cover never-written lines too: they are zeros.
                assert machine._read_prm_plaintext(paddr, size) \
                    == oracle.read(paddr, size)
        assert machine.phys.digest() == oracle.phys.digest()
        assert machine.mee.root_mac() == oracle.mee.root_mac()
        region = 3 * PAGE_SIZE
        assert machine._read_prm_plaintext(base, region) \
            == oracle.read(base, region)

    def test_never_written_span_reads_zero(self, machine):
        base = machine.config.epc_base
        assert machine._read_prm_plaintext(base + 1, 4097) == bytes(4097)
        assert not machine.phys._frames


class TestSpanTamper:
    LINES = 5

    def _written(self, machine):
        """A five-line span crossing a frame boundary."""
        base = machine.config.epc_base + PAGE_SIZE - 2 * CACHELINE_SIZE
        machine._write_prm_plaintext(
            base, bytes(i & 0xFF
                        for i in range(self.LINES * CACHELINE_SIZE)))
        return base

    @staticmethod
    def _tamper(machine, paddr):
        machine.phys.write(paddr,
                           bytes([machine.phys.read(paddr, 1)[0] ^ 0x80]))

    @pytest.mark.parametrize("line", [0, 2, 4])
    def test_tampered_line_in_span_detected(self, machine, line):
        """First, middle and last line of the span."""
        base = self._written(machine)
        self._tamper(machine, base + line * CACHELINE_SIZE + 9)
        with pytest.raises(IntegrityViolation):
            machine._read_prm_plaintext(base + 1,
                                        self.LINES * CACHELINE_SIZE - 2)

    @pytest.mark.parametrize("line", [0, 4])
    def test_partial_write_over_tampered_line_changes_nothing(self,
                                                              machine,
                                                              line):
        """The head and tail lines are verified before any line is
        re-encrypted or written back."""
        base = self._written(machine)
        self._tamper(machine, base + line * CACHELINE_SIZE + 9)
        dram = machine.phys.digest()
        root = machine.mee.root_mac()
        with pytest.raises(IntegrityViolation):
            machine._write_prm_plaintext(
                base + 3, b"Z" * (self.LINES * CACHELINE_SIZE - 6))
        assert machine.phys.digest() == dram
        assert machine.mee.root_mac() == root


class TestPrmNonEpcRegion:
    def test_geometry_exists(self, machine):
        cfg = machine.config
        meta_addr = cfg.epc_base + cfg.epc_bytes
        assert machine.phys.in_prm(meta_addr)
        assert not machine.phys.in_epc(meta_addr)

    def test_enclave_access_to_mee_metadata_aborts(self, machine):
        """Path B's 'PRM but not EPC' arm: even enclave mode may not
        touch the MEE metadata region."""
        from repro.sgx.constants import ST_INITIALIZED
        from repro.sgx.secs import Secs
        cfg = machine.config
        meta_page = cfg.epc_base + cfg.epc_bytes
        secs_frame = machine.epc_alloc.alloc()
        from repro.sgx.constants import PT_SECS
        machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
        secs = Secs(eid=secs_frame, base_addr=0x100000,
                    size=PAGE_SIZE, state=ST_INITIALIZED)
        machine.enclaves[secs_frame] = secs
        space = machine.new_address_space()
        space.map_page(0x500000, meta_page)
        core = machine.cores[0]
        core.address_space = space
        core.enclave_stack = [secs.eid]
        with pytest.raises(AccessViolation, match="MEE metadata"):
            core.read(0x500000, 8)

    def test_epc_helpers_reject_non_epc(self, machine):
        cfg = machine.config
        meta_addr = cfg.epc_base + cfg.epc_bytes
        with pytest.raises(SgxFault):
            machine.epc_read(meta_addr, 8)
        with pytest.raises(SgxFault):
            machine.epc_write(meta_addr, b"x")


class TestCostSymmetry:
    def test_read_and_write_charge_same_lines(self, machine):
        frame = owned_frame(machine)
        machine.llc.flush()
        snap = machine.counters.snapshot()
        machine.epc_write(frame, bytes(256))       # 4 lines
        write_delta = machine.counters.delta_since(snap)
        machine.llc.flush()
        snap = machine.counters.snapshot()
        machine.epc_read(frame, 256)
        read_delta = machine.counters.delta_since(snap)
        assert write_delta["llc_miss"] == read_delta["llc_miss"] == 4
        assert write_delta["mee_line_encrypt"] == 4
        assert read_delta["mee_line_decrypt"] == 4

    def test_mee_bytes_flag_off_still_charges(self):
        machine = Machine(SmallMachineConfig(mee_encrypt_bytes=False))
        frame = owned_frame(machine)
        snap = machine.counters.snapshot()
        machine.epc_write(frame, bytes(64))
        delta = machine.counters.delta_since(snap)
        assert delta["mee_line_encrypt"] == 1
        # ...but DRAM then holds plaintext (cost-model-only mode).
        machine.epc_write(frame, b"Y" * 64)
        assert machine.dram_ciphertext(frame, 64) == b"Y" * 64
