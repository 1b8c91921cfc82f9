"""The settled MEE against a write-through oracle.

The MEE records a writeback's plaintext and encrypts a line only when
something outside the package observes DRAM.  The oracle is a machine
whose PRM path encrypts every line on writeback and checks every fill by
MAC, one line at a time (:class:`~tests.sgx.test_mee.WriteThroughMee`).
Driven through the same random operations, the two machines must return
the same values, raise the same exceptions with the same texts, and show
the same DRAM bytes and integrity-tree root."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvictionConflict, IntegrityViolation, SgxFault
from repro.os.malicious import dram_tamper
from repro.sgx import eviction
from repro.sgx.constants import (CACHELINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
                                 PERM_RW, PT_REG, PT_SECS,
                                 SmallMachineConfig, ST_INITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs
from tests.sgx.test_machine_memside import ReferencePrm
from tests.sgx.test_mee import WriteThroughMee

LINE = CACHELINE_SIZE


class WriteThroughMachine(Machine):
    """A machine whose PRM path is the per-line oracle's: each line is
    encrypted straight into DRAM on writeback and MAC-checked on fill."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.mee = WriteThroughMee()
        self.phys.watch({}, None)
        prm = ReferencePrm(self.phys, self.mee)
        self._read_prm_plaintext = prm.read
        self._write_prm_plaintext = prm.write


#: The three EPC pages the operations run on.  Line indices cluster at
#: the page ends so that spans cross frames and ops keep meeting lines
#: earlier ops wrote, tampered with, settled or forgot.
PAGES = 3
_lines = st.sampled_from((0, 1, 2, 62, 63, 64, 65, 127, 128, 190, 191))
_offsets = st.sampled_from((0, 1, 63))
_sizes = st.sampled_from((1, 63, 64, 65, 128, 300, PAGE_SIZE))
_pages = st.integers(0, PAGES - 1)
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _lines, _offsets, _sizes,
              st.integers(0, 255)),
    st.tuples(st.just("read"), _lines, _offsets, _sizes),
    st.tuples(st.just("tamper"), _lines, st.integers(1, 255)),
    st.tuples(st.just("untamper")),
    st.tuples(st.just("raw_read"), _lines, _sizes),
    st.tuples(st.just("raw_write"), _lines, _sizes, st.integers(0, 255)),
    st.tuples(st.just("copy"), _lines, _lines),
    st.tuples(st.just("exists"), _pages),
    st.tuples(st.just("zero"), _pages),
    st.tuples(st.just("forget"), _pages),
    st.tuples(st.just("evict"), _pages),
    st.tuples(st.just("reload"), _pages),
    st.tuples(st.just("root")),
    st.tuples(st.just("digest"))), min_size=8, max_size=40)


class World:
    """One machine with an enclave owning ``PAGES`` contiguous EPC
    pages and a version array to page them out to."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        secs_frame = machine.epc_alloc.alloc()
        machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
        self.secs = Secs(eid=secs_frame, base_addr=0x100000,
                         size=PAGES * PAGE_SIZE, state=ST_INITIALIZED)
        machine.enclaves[secs_frame] = self.secs
        self.frames = []
        for page in range(PAGES):
            frame = machine.epc_alloc.alloc()
            machine.epcm.set(frame, eid=self.secs.eid, page_type=PT_REG,
                             vaddr=0x100000 + page * PAGE_SIZE,
                             perms=PERM_RW)
            self.frames.append(frame)
        self.base = self.frames[0]
        assert self.frames[-1] == self.base + (PAGES - 1) * PAGE_SIZE
        self.va = eviction.alloc_version_array(machine)
        self.blobs = {}
        self.tampers = []

    def _clamp(self, line: int, size: int) -> tuple:
        paddr = self.base + line * LINE
        return paddr, min(size, self.base + PAGES * PAGE_SIZE - paddr)

    def step(self, op):
        """Run ``op``; its value, or the type and text it raised."""
        try:
            return self._step(op)
        except (IntegrityViolation, SgxFault, EvictionConflict) as exc:
            return type(exc).__name__, str(exc)

    def _step(self, op):
        machine = self.machine
        phys = machine.phys
        kind = op[0]
        if kind == "write":
            _kind, line, off, size, seed = op
            paddr, size = self._clamp(line, off + size)
            data = bytes((seed + i) & 0xFF for i in range(size - off))
            return machine.epc_write(paddr + off, data)
        if kind == "read":
            _kind, line, off, size = op
            paddr, size = self._clamp(line, off + size)
            return machine.epc_read(paddr + off, size - off)
        if kind == "tamper":
            _kind, line, mask = op
            self.tampers.append((self.base + line * LINE, mask))
            return dram_tamper(machine, *self.tampers[-1])
        if kind == "untamper":
            if self.tampers:
                return dram_tamper(machine, *self.tampers.pop())
            return None
        if kind == "raw_read":
            _kind, line, size = op
            return phys.read(*self._clamp(line, size))
        if kind == "raw_write":
            _kind, line, size, seed = op
            paddr, size = self._clamp(line, size)
            return phys.write(paddr, bytes([seed]) * size)
        if kind == "copy":
            # One line's DRAM bytes copied over another's.
            _kind, src, dst = op
            return phys.write(self.base + dst * LINE,
                              phys.read(self.base + src * LINE, LINE))
        frame = self.frames[op[1]] if len(op) > 1 else None
        if kind == "exists":
            return phys.frame_exists(frame >> PAGE_SHIFT)
        if kind == "zero":
            return phys.zero_page(frame)
        if kind == "forget":
            machine.mee.forget_page(frame)
            return phys.drop_frame(frame >> PAGE_SHIFT)
        if kind == "evict":
            if op[1] in self.blobs:
                return None
            eviction.eblock(machine, frame)
            epoch = eviction.etrack(machine, self.secs)
            self.blobs[op[1]] = eviction.ewb(machine, frame, self.va,
                                             epoch)
            return self.blobs[op[1]].ciphertext
        if kind == "reload":
            blob = self.blobs.pop(op[1], None)
            if blob is None:
                return None
            self.frames[op[1]] = eviction.eldb(machine, blob, self.va)
            return self.frames[op[1]]
        if kind == "root":
            return machine.mee.root_mac()
        return phys.digest()


def _replay(ops, check_every_step):
    config = SmallMachineConfig()
    settled, oracle = World(Machine(config)), World(
        WriteThroughMachine(config))
    for op in ops:
        assert settled.step(op) == oracle.step(op), op
        if check_every_step:
            assert settled.step(("root",)) == oracle.step(("root",))
            assert settled.step(("digest",)) == oracle.step(("digest",))
    for world in (settled, oracle):
        assert world.step(("root",)) == world.step(("root",))
    span = ("read", 0, 0, PAGES * PAGE_SIZE)
    assert settled.step(span) == oracle.step(span)
    assert settled.step(("root",)) == oracle.step(("root",))
    assert settled.step(("digest",)) == oracle.step(("digest",))
    assert settled.machine.clock.now_ns == oracle.machine.clock.now_ns


class TestSettledMatchesWriteThrough:
    @given(_ops)
    @settings(max_examples=80, deadline=None)
    def test_checked_after_every_step(self, ops):
        _replay(ops, check_every_step=True)

    @given(_ops)
    @settings(max_examples=120, deadline=None)
    def test_checked_rarely(self, ops):
        """Root and DRAM digest only when an op asks: lines stay stale
        across many ops, so fills, raw accesses and forgets meet them."""
        _replay(ops, check_every_step=False)

    @pytest.mark.parametrize("ops", [
        # A raw write lands on a frame whose lines are all stale.
        [("write", 0, 0, 128, 7), ("tamper", 1, 4), ("read", 0, 0, 128)],
        [("write", 0, 0, 128, 7), ("raw_write", 1, 1, 0),
         ("read", 0, 0, 128)],
        # A line copied over a stale one in another frame.
        [("write", 0, 0, 128, 7), ("write", 64, 0, 64, 7),
         ("copy", 0, 64), ("read", 64, 0, 64)],
        # ... and is undone byte for byte before the fill.
        [("write", 0, 0, 128, 7), ("tamper", 1, 4), ("untamper",),
         ("read", 0, 0, 128)],
        # A frame holding only stale lines exists.
        [("write", 64, 1, 63, 3), ("exists", 1), ("exists", 2)],
        # A forgotten page is dropped without its stale lines settling.
        [("write", 0, 0, PAGE_SIZE, 9), ("forget", 0), ("exists", 0),
         ("read", 0, 0, 64)],
        # EWB reads stale lines; ELDB writes the page back stale.
        [("write", 62, 0, 300, 5), ("evict", 0), ("evict", 1),
         ("reload", 1), ("reload", 0), ("raw_read", 60, 300)],
        # zero_page over stale lines, then the fill refuses them.
        [("write", 127, 0, 128, 1), ("zero", 1), ("read", 127, 0, 128)],
    ])
    def test_cases(self, ops):
        _replay(ops, check_every_step=False)


def test_steady_state_epc_churn_derives_no_keystream():
    """Written pages paged out and back in, again and again.  After the
    first round, EWB reads only the stale lines that ELDB and the writes
    left, and drops them unsettled, so no line keystream is derived
    until DRAM is observed.  (The first EWB of a partly written page
    reads DRAM, which settles its written lines.)"""
    config = SmallMachineConfig()
    settled, oracle = World(Machine(config)), World(
        WriteThroughMachine(config))
    mee = settled.machine.mee
    derived = []
    ciphertext = mee._ciphertext

    def counting(addr):
        if mee._lines[addr][1] is None:
            derived.append(addr)
        return ciphertext(addr)

    mee._ciphertext = counting
    for rounds in range(4):
        ops = [("write", page * 64, 1, 300, rounds) for page in range(PAGES)]
        ops += [(kind, page) for kind in ("evict", "reload")
                for page in range(PAGES)]
        for op in ops:
            assert settled.step(op) == oracle.step(op)
        if not rounds:
            assert derived
            derived.clear()
    assert derived == []
    assert settled.step(("digest",)) == oracle.step(("digest",))
    assert len(derived) == PAGES * PAGE_SIZE // LINE
