"""MEE tests: physical confidentiality, integrity, and cost asymmetry."""

import gc
import hashlib
import hmac
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityViolation
from repro.sgx.constants import CACHELINE_SIZE, PAGE_SIZE, SmallMachineConfig
from repro.sgx.machine import Machine
from repro.sgx.mee import Mee
from repro.os.malicious import dram_tamper


class ReferenceMee:
    """The per-line MEE the span implementation replaced, kept as the
    oracle: one ``hmac.new`` per line, the keystream built block by
    block, and a byte-at-a-time XOR."""

    def __init__(self) -> None:
        self.key = hashlib.sha256(b"repro-mee-boot-key").digest()
        self._mac_key = hashlib.sha256(self.key + b"mac").digest()
        self._line_macs: dict[int, bytes] = {}
        self._versions: dict[int, int] = {}

    def _keystream(self, line_addr: int, version: int) -> bytes:
        block = hashlib.sha256(
            self.key + line_addr.to_bytes(8, "little")
            + version.to_bytes(8, "little")).digest()
        out = block
        while len(out) < CACHELINE_SIZE:
            block = hashlib.sha256(block).digest()
            out += block
        return out[:CACHELINE_SIZE]

    @staticmethod
    def _xor(a: bytes, b: bytes) -> bytes:
        return bytes(x ^ y for x, y in zip(a, b))

    def _mac(self, line_addr: int, ciphertext: bytes) -> bytes:
        return hmac.new(self._mac_key,
                        line_addr.to_bytes(8, "little") + ciphertext,
                        hashlib.sha256).digest()

    def encrypt_line(self, line_addr: int, plaintext: bytes) -> bytes:
        assert len(plaintext) == CACHELINE_SIZE
        version = self._versions.get(line_addr, 0) + 1
        self._versions[line_addr] = version
        ciphertext = self._xor(plaintext,
                               self._keystream(line_addr, version))
        self._line_macs[line_addr] = self._mac(line_addr, ciphertext)
        return ciphertext

    def decrypt_line(self, line_addr: int, ciphertext: bytes) -> bytes:
        assert len(ciphertext) == CACHELINE_SIZE
        expected = self._line_macs.get(line_addr)
        if expected is None:
            if any(ciphertext):
                raise IntegrityViolation("tampered before first write")
            return bytes(CACHELINE_SIZE)
        if not hmac.compare_digest(expected,
                                   self._mac(line_addr, ciphertext)):
            raise IntegrityViolation("tampered")
        return self._xor(ciphertext, self._keystream(
            line_addr, self._versions.get(line_addr, 0)))

    def root_mac(self) -> bytes:
        h = hmac.new(self._mac_key, digestmod=hashlib.sha256)
        for addr in sorted(self._line_macs):
            h.update(addr.to_bytes(8, "little"))
            h.update(self._line_macs[addr])
        return h.digest()

    def forget_page(self, page_addr: int) -> None:
        for addr in range(page_addr, page_addr + PAGE_SIZE, CACHELINE_SIZE):
            self._line_macs.pop(addr, None)
            self._versions.pop(addr, None)


class WriteThroughMee(ReferenceMee):
    """The per-line oracle, raising the MEE's error texts."""

    def decrypt_line(self, line_addr: int, ciphertext: bytes) -> bytes:
        try:
            return super().decrypt_line(line_addr, ciphertext)
        except IntegrityViolation:
            if line_addr in self._line_macs:
                raise IntegrityViolation(
                    f"DRAM tampering detected on line {line_addr:#x}"
                ) from None
            raise IntegrityViolation(
                f"DRAM tampering: line {line_addr:#x} modified before "
                f"first MEE write") from None


def oracle_encrypt(oracle: ReferenceMee, base: int, plain: bytes) -> bytes:
    """The oracle's writeback of a line-aligned span, line by line."""
    return b"".join(
        oracle.encrypt_line(base + off, plain[off:off + CACHELINE_SIZE])
        for off in range(0, len(plain), CACHELINE_SIZE))


def oracle_decrypt(oracle: ReferenceMee, base: int, span: bytes) -> bytes:
    """The oracle's fill of a line-aligned span, line by line."""
    return b"".join(
        oracle.decrypt_line(base + off, span[off:off + CACHELINE_SIZE])
        for off in range(0, len(span), CACHELINE_SIZE))


class MeeDram:
    """A machine's MEE and DRAM, wired as :class:`Machine` wires them
    (raw DRAM settles the MEE's stale lines before it is read), with the
    machine's fill of line-aligned spans."""

    def __init__(self) -> None:
        machine = Machine(SmallMachineConfig())
        self.mee = machine.mee
        self.phys = machine.phys
        self.fill = machine._fill

    def encrypt(self, base: int, plain: bytes) -> bytes:
        """Write a line-aligned span back and return the ciphertext a
        DRAM read then sees."""
        self.mee.writeback(base, plain)
        return self.phys.read(base, len(plain))


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


class TestLineCipher:
    """One-line spans: the cipher's per-line properties."""

    def test_roundtrip(self):
        dram = MeeDram()
        plain = bytes(range(64))
        cipher = dram.encrypt(0x1000, plain)
        assert cipher != plain
        assert dram.mee.decrypt_lines(0x1000, cipher) == plain

    def test_same_plaintext_different_lines_differ(self):
        dram = MeeDram()
        plain = b"A" * 64
        assert dram.encrypt(0x1000, plain) != dram.encrypt(0x1040, plain)

    def test_rewriting_line_changes_ciphertext(self):
        """CTR versioning: re-encrypting the same data at the same line
        must not repeat the keystream."""
        dram = MeeDram()
        plain = b"B" * 64
        first = dram.encrypt(0x1000, plain)
        second = dram.encrypt(0x1000, plain)
        assert first != second
        assert dram.mee.decrypt_lines(0x1000, second) == plain

    def test_tampered_ciphertext_detected(self):
        dram = MeeDram()
        cipher = bytearray(dram.encrypt(0x1000, bytes(64)))
        cipher[5] ^= 0xFF
        with pytest.raises(IntegrityViolation):
            dram.mee.decrypt_lines(0x1000, bytes(cipher))

    def test_untouched_line_reads_zero(self):
        mee = Mee(SmallMachineConfig())
        assert mee.decrypt_lines(0x2000, bytes(64)) == bytes(64)

    def test_tamper_before_first_write_detected(self):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(IntegrityViolation):
            mee.decrypt_lines(0x2000, b"\x01" + bytes(63))

    def test_partial_line_rejected(self):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.writeback(0, bytes(32))

    def test_root_mac_changes_with_writes(self):
        mee = Mee(SmallMachineConfig())
        r0 = mee.root_mac()
        mee.writeback(0x1000, bytes(64))
        assert mee.root_mac() != r0

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plain):
        dram = MeeDram()
        assert dram.mee.decrypt_lines(0, dram.encrypt(0, plain)) == plain


class TestSpanCipher:
    """Record-only writebacks, settled into DRAM, against the per-line
    write-through oracle: the same ciphertext, fills and root, byte for
    byte."""

    @given(st.integers(0, 63), st.integers(0, 6), st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_spans_match_per_line_oracle(self, first_line, nlines,
                                         rounds, rng):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        base = first_line * CACHELINE_SIZE
        size = nlines * CACHELINE_SIZE
        for _ in range(rounds):
            plain = rng.randbytes(size)
            mee.writeback(base, plain)
            assert dram.fill(base, size) == plain
            expected = oracle_encrypt(oracle, base, plain)
            assert mee.root_mac() == oracle.root_mac()
            cipher = dram.phys.read(base, size)
            assert cipher == expected
            assert mee.decrypt_lines(base, cipher) == plain

    @pytest.mark.parametrize("size", [1, 63, 65])
    def test_partial_span_rejected(self, size):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.writeback(0, bytes(size))
        with pytest.raises(ValueError):
            mee.decrypt_lines(0, bytes(size))

    @pytest.mark.parametrize("line", [0, 2, 3])
    def test_tampered_span_line_changes_nothing(self, line):
        """A flipped byte in the first, a middle or the last line of a
        span raises, naming that line, before any plaintext is returned,
        and leaves the MEE as it was: the untouched span still reads
        back, the root still matches the per-line oracle's, and the next
        writeback bumps the versions the oracle bumps."""
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        base = 0x4000
        plain = bytes(range(256))
        cipher = dram.encrypt(base, plain)
        assert cipher == oracle_encrypt(oracle, base, plain)
        root = mee.root_mac()
        tampered = bytearray(cipher)
        tampered[line * CACHELINE_SIZE + 17] ^= 0x01
        with pytest.raises(IntegrityViolation, match=(
                f"DRAM tampering detected on line "
                f"{base + line * CACHELINE_SIZE:#x}$")):
            mee.decrypt_lines(base, bytes(tampered))
        assert mee.root_mac() == root == oracle.root_mac()
        assert mee.decrypt_lines(base, cipher) == plain
        assert dram.encrypt(base, plain) \
            == oracle_encrypt(oracle, base, plain)
        assert mee.root_mac() == oracle.root_mac()


class TestStaleLines:
    """A writeback only records its lines and marks them stale; the
    ciphertext is derived when DRAM is observed or the root is read."""

    BASE = 0x1000

    def test_writeback_derives_no_keystream(self):
        """With the keystream state gone, writebacks and fills of stale
        lines still work; DRAM is never read for them."""
        dram = MeeDram()
        mee = dram.mee
        mee._stream_base = None
        plain = bytes(range(192))
        mee.writeback(self.BASE, plain)
        mee.writeback(self.BASE + 64, b"N" * 64)
        assert dram.fill(self.BASE, 192) \
            == plain[:64] + b"N" * 64 + plain[128:]
        assert mee.stale == {self.BASE >> 12: 0b111}
        assert not dram.phys._frames

    def test_stale_plaintext_needs_every_line_stale(self):
        dram = MeeDram()
        mee = dram.mee
        mee.writeback(self.BASE, b"S" * 128)
        assert mee.stale_plaintext(self.BASE, 128) == b"S" * 128
        # A never-written line, or one a raw read settled, is not stale.
        assert mee.stale_plaintext(self.BASE, 192) is None
        assert mee.stale_plaintext(self.BASE - 64, 128) is None
        # A raw read of another frame leaves this one stale.
        dram.phys.read(self.BASE + PAGE_SIZE, 1)
        assert mee.stale_plaintext(self.BASE, 64) == b"S" * 64
        dram.phys.read(self.BASE + 100, 1)
        assert mee.stale == {}
        assert mee.stale_plaintext(self.BASE, 64) is None
        assert dram.fill(self.BASE, 128) == b"S" * 128

    def test_spans_across_frames(self):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        base = 2 * PAGE_SIZE - 2 * CACHELINE_SIZE
        plain = bytes(range(256)) * 2
        mee.writeback(base, plain)
        expected = oracle_encrypt(oracle, base, plain)
        assert mee.stale == {1: 0b11 << 62, 2: 0b111111}
        assert mee.stale_plaintext(base, len(plain)) == plain
        assert mee.stale_plaintext(base, len(plain) + 64) is None
        assert dram.phys.read(base, len(plain)) == expected
        assert mee.stale == {}

    def test_root_derives_each_ciphertext_once(self):
        """The root reads the ciphertext of stale lines and keeps it in
        the record: the settle that follows derives nothing."""
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        mee.writeback(self.BASE, bytes(range(128)))
        expected = oracle_encrypt(oracle, self.BASE, bytes(range(128)))
        assert mee.root_mac() == oracle.root_mac()
        assert mee.stale == {self.BASE >> 12: 0b11}
        mee._stream_base = None
        assert dram.phys.read(self.BASE, 128) == expected

    def test_write_settles_before_it_lands(self):
        """A raw write to a frame settles its stale lines first: the
        bytes it does not overwrite hold ciphertext, and the next fill
        of a stale-then-overwritten line is refused."""
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        mee.writeback(self.BASE, b"W" * 128)
        expected = oracle_encrypt(oracle, self.BASE, b"W" * 128)
        dram.phys.write(self.BASE + 64, b"\x00")
        assert dram.phys.read(self.BASE, 64) == expected[:64]
        assert dram.fill(self.BASE, 64) == b"W" * 64
        with pytest.raises(IntegrityViolation, match=(
                f"detected on line {self.BASE + 64:#x}$")):
            dram.fill(self.BASE, 128)


class TestFillCompare:
    """A fill compares DRAM with the ciphertext the line's writeback
    recorded.  Every case the per-line oracle's MAC check refuses is
    refused, with the same error text as the MAC check gave, and every
    case it accepts reads back the written plaintext."""

    BASE = 0x1000

    def test_replayed_older_ciphertext_detected(self):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        old = dram.encrypt(self.BASE, b"A" * 64)
        oracle.encrypt_line(self.BASE, b"A" * 64)
        new = dram.encrypt(self.BASE, b"A" * 64)
        oracle.encrypt_line(self.BASE, b"A" * 64)
        with pytest.raises(IntegrityViolation):
            oracle.decrypt_line(self.BASE, old)
        with pytest.raises(IntegrityViolation, match=(
                f"DRAM tampering detected on line {self.BASE:#x}$")):
            mee.decrypt_lines(self.BASE, old)
        assert mee.decrypt_lines(self.BASE, new) == b"A" * 64

    def test_ciphertext_copied_from_another_line_detected(self):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        other = self.BASE + CACHELINE_SIZE
        span = dram.encrypt(self.BASE, b"S" * 128)
        oracle_encrypt(oracle, self.BASE, b"S" * 128)
        copied = span[CACHELINE_SIZE:] * 2
        with pytest.raises(IntegrityViolation):
            oracle.decrypt_line(self.BASE, copied[:CACHELINE_SIZE])
        with pytest.raises(IntegrityViolation, match=(
                f"DRAM tampering detected on line {self.BASE:#x}$")):
            mee.decrypt_lines(self.BASE, copied)
        # A written line copied over a never-written one.
        with pytest.raises(IntegrityViolation, match=(
                f"line {other + CACHELINE_SIZE:#x} modified before "
                f"first MEE write$")):
            mee.decrypt_lines(other, span[CACHELINE_SIZE:] * 2)

    def test_tamper_undone_byte_for_byte_reads_back(self):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        plain = bytes(range(128))
        raw = bytearray(dram.encrypt(self.BASE, plain))
        oracle_encrypt(oracle, self.BASE, plain)
        raw[70] ^= 0x5A
        with pytest.raises(IntegrityViolation):
            mee.decrypt_lines(self.BASE, bytes(raw))
        raw[70] ^= 0x5A
        assert mee.decrypt_lines(self.BASE, bytes(raw)) == plain \
            == oracle_decrypt(oracle, self.BASE, bytes(raw))

    def test_root_after_a_rewrite_matches_oracle(self):
        """The root's MAC for a line is recomputed after the line's next
        writeback, not taken from the previous root read."""
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        for plain in (b"1" * 128, b"2" * 128, b"2" * 128):
            mee.writeback(self.BASE, plain)
            oracle_encrypt(oracle, self.BASE, plain)
            assert mee.root_mac() == oracle.root_mac()
        mee.writeback(self.BASE + CACHELINE_SIZE, b"3" * 64)
        oracle.encrypt_line(self.BASE + CACHELINE_SIZE, b"3" * 64)
        assert mee.root_mac() == oracle.root_mac()

    def test_fill_and_writeback_compute_no_mac(self):
        """Only the root reads line MACs: with the MAC pad states gone,
        writebacks, settles and fills still work."""
        dram = MeeDram()
        mee = dram.mee
        mee._mac_inner = mee._mac_outer = None
        cipher = dram.encrypt(self.BASE, bytes(range(192)))
        assert mee.decrypt_lines(self.BASE, cipher) == bytes(range(192))
        with pytest.raises(IntegrityViolation):
            mee.decrypt_lines(self.BASE, bytes(192))


#: Two pages of lines: ``forget_page`` drops one and keeps the other.
#: Ops start at a few lines around the ends of both pages, so that they
#: keep landing on lines that earlier ops wrote, tampered or forgot.
_RECORD_LINES = 2 * PAGE_SIZE // CACHELINE_SIZE
_line_index = st.sampled_from((0, 1, 2, 61, 62, 63, 64, 65, 66, 127))
_record_ops = st.lists(st.one_of(
    st.tuples(st.just("encrypt"), _line_index, st.integers(1, 8),
              st.integers(0, 255)),
    st.tuples(st.just("decrypt"), _line_index, st.integers(1, 8)),
    st.tuples(st.just("tamper"), _line_index, st.integers(1, 255)),
    st.tuples(st.just("untamper")),
    st.tuples(st.just("replay"), _line_index, st.integers(0, 7)),
    st.tuples(st.just("copy"), _line_index, _line_index),
    st.tuples(st.just("root")),
    st.tuples(st.just("forget"), st.integers(0, 1))), max_size=40)


class TestLineRecords:
    """The MEE keeps one record per line from the writeback that set its
    version, derives its ciphertext only when DRAM or the root needs it,
    and computes line MACs only for the root.  Against the per-line
    write-through oracle, which derives every keystream and MAC afresh
    and checks fills by MAC: the same DRAM bytes, fill outcome and root,
    with the root read after every step or only now and then (so that a
    line can be written twice between two root reads).  A forgotten
    page's frame is dropped with it, as EWB and EREMOVE do."""

    @staticmethod
    def _outcome(fill, base, size):
        try:
            return fill(base, size)
        except IntegrityViolation as exc:
            return str(exc)

    def _replay(self, ops, root_every_step):
        dram, oracle = MeeDram(), WriteThroughMee()
        mee, phys = dram.mee, dram.phys
        span = _RECORD_LINES * CACHELINE_SIZE
        oracle_dram = bytearray(span)

        def oracle_fill(base, size):
            return oracle_decrypt(oracle, base,
                                  bytes(oracle_dram[base:base + size]))

        written = {}     # line -> every ciphertext written to it
        tampers = []     # (offset, mask), to undo byte for byte
        for op in ops:
            kind = op[0]
            if kind == "encrypt":
                _kind, first, nlines, seed = op
                nlines = min(nlines, _RECORD_LINES - first)
                base = first * CACHELINE_SIZE
                plain = bytes((seed + i) & 0xFF
                              for i in range(nlines * CACHELINE_SIZE))
                mee.writeback(base, plain)
                cipher = oracle_encrypt(oracle, base, plain)
                oracle_dram[base:base + len(cipher)] = cipher
                for i in range(nlines):
                    written.setdefault(first + i, []).append(
                        cipher[i * CACHELINE_SIZE:(i + 1) * CACHELINE_SIZE])
            elif kind == "decrypt":
                _kind, first, nlines = op
                nlines = min(nlines, _RECORD_LINES - first)
                base = first * CACHELINE_SIZE
                size = nlines * CACHELINE_SIZE
                assert self._outcome(dram.fill, base, size) \
                    == self._outcome(oracle_fill, base, size)
            elif kind == "tamper":
                _kind, line, mask = op
                tampers.append((line * CACHELINE_SIZE
                                + line % CACHELINE_SIZE, mask))
                offset = tampers[-1][0]
                phys.write(offset, bytes([phys.read(offset, 1)[0] ^ mask]))
                oracle_dram[offset] ^= mask
            elif kind == "untamper":
                if tampers:
                    offset, mask = tampers.pop()
                    phys.write(offset,
                               bytes([phys.read(offset, 1)[0] ^ mask]))
                    oracle_dram[offset] ^= mask
            elif kind == "replay":
                _kind, line, age = op
                history = written.get(line)
                if history:
                    base = line * CACHELINE_SIZE
                    old = history[-1 - age % len(history)]
                    phys.write(base, old)
                    oracle_dram[base:base + CACHELINE_SIZE] = old
            elif kind == "copy":
                _kind, src, dst = op
                line = phys.read(src * CACHELINE_SIZE, CACHELINE_SIZE)
                phys.write(dst * CACHELINE_SIZE, line)
                oracle_dram[dst * CACHELINE_SIZE:
                            (dst + 1) * CACHELINE_SIZE] = line
            elif kind == "root":
                assert mee.root_mac() == oracle.root_mac()
            else:
                page = op[1] * PAGE_SIZE
                mee.forget_page(page)
                phys.drop_frame(op[1])
                oracle.forget_page(page)
                oracle_dram[page:page + PAGE_SIZE] = bytes(PAGE_SIZE)
            if root_every_step:
                assert mee.root_mac() == oracle.root_mac()
        assert mee.root_mac() == oracle.root_mac()
        assert phys.read(0, span) == oracle_dram

    @given(_record_ops)
    @settings(max_examples=60, deadline=None)
    def test_recorded_mee_matches_per_line_oracle(self, ops):
        self._replay(ops, root_every_step=True)

    @given(_record_ops)
    @settings(max_examples=60, deadline=None)
    def test_root_read_rarely_matches_per_line_oracle(self, ops):
        self._replay(ops, root_every_step=False)

    def test_forget_page_drops_the_records(self):
        dram, oracle = MeeDram(), ReferenceMee()
        mee = dram.mee
        plain = bytes(range(256)) * (2 * PAGE_SIZE // 256)
        cipher = dram.encrypt(0, plain)
        oracle_encrypt(oracle, 0, plain)
        assert mee.root_mac() == oracle.root_mac()
        mee.forget_page(PAGE_SIZE)
        oracle.forget_page(PAGE_SIZE)
        assert mee.root_mac() == oracle.root_mac()
        assert mee.decrypt_lines(0, cipher[:PAGE_SIZE]) == plain[:PAGE_SIZE]
        # A forgotten line reads as never written: zeros fill, and its
        # old ciphertext is tampering before the first write.
        assert mee.decrypt_lines(PAGE_SIZE, bytes(PAGE_SIZE)) \
            == bytes(PAGE_SIZE)
        with pytest.raises(IntegrityViolation, match=(
                f"line {PAGE_SIZE:#x} modified before first MEE write$")):
            mee.decrypt_lines(PAGE_SIZE, cipher[PAGE_SIZE:])
        # The next writeback derives its keystream afresh (version 1).
        dram.phys.drop_frame(1)
        cipher = dram.encrypt(PAGE_SIZE, b"C" * 64)
        assert cipher == ReferenceMee().encrypt_line(PAGE_SIZE, b"C" * 64)
        assert mee.decrypt_lines(PAGE_SIZE, cipher) == b"C" * 64

    def test_forget_page_drops_the_stale_marks(self):
        """A page forgotten before anything observed it is never
        encrypted: its frame is dropped with no keystream derived."""
        dram = MeeDram()
        mee = dram.mee
        mee.writeback(0, b"K" * (PAGE_SIZE + 64))
        mee._stream_base = None
        mee.forget_page(0)
        assert mee.stale == {1: 1}
        dram.phys.drop_frame(0)
        assert not dram.phys.frame_exists(0)
        assert mee.decrypt_lines(0, bytes(PAGE_SIZE)) == bytes(PAGE_SIZE)


#: What the three per-line tables the record replaced (MAC, version,
#: keystream) held per line on CPython 3.11, measured the same way: a
#: 32 B MAC and a 64 B keystream object, three dict slots and two
#: address ints.  The MAC table alone was 133 B of it.
_TABLES_BYTES_PER_LINE = 334
_MAC_TABLE_BYTES_PER_LINE = 133


def test_line_state_stays_under_the_replaced_tables():
    """Written, filled and rewritten, a 1 MiB span keeps no more MEE
    state per line than the three tables did; a root read (which also
    derives each line's ciphertext) adds back at most the MAC table."""
    span = 1 << 20
    lines = span // CACHELINE_SIZE
    plain = bytes(range(256)) * (span // 256)
    mee = Mee(SmallMachineConfig())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mee.writeback(0, plain)
        assert mee.stale_plaintext(0, span) == plain
        mee.writeback(0, plain)
        assert mee.stale_plaintext(0, span) == plain
        gc.collect()
        written = tracemalloc.get_traced_memory()[0] - before
        mee.root_mac()
        rooted = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert written <= _TABLES_BYTES_PER_LINE * lines
    assert rooted <= (_TABLES_BYTES_PER_LINE
                      + _MAC_TABLE_BYTES_PER_LINE) * lines


class TestMachineIntegration:
    def test_dram_holds_ciphertext_for_epc(self, machine):
        """Physical attacker view: raw DRAM under an EPC write is not
        the plaintext."""
        frame = machine.epc_alloc.alloc()
        from repro.sgx.constants import PT_REG
        machine.epcm.set(frame, eid=1, page_type=PT_REG, vaddr=0)
        secret = b"TOP-SECRET-DATA-IN-ENCLAVE-MEMORY!!!" + bytes(28)
        machine.epc_write(frame, secret)
        raw = machine.dram_ciphertext(frame, len(secret))
        assert raw != secret
        assert b"TOP-SECRET" not in raw
        # CPU-side view is plaintext.
        assert machine.epc_read(frame, len(secret)) == secret

    def test_dram_tamper_detected_on_next_read(self, machine):
        frame = machine.epc_alloc.alloc()
        from repro.sgx.constants import PT_REG
        machine.epcm.set(frame, eid=1, page_type=PT_REG, vaddr=0)
        machine.epc_write(frame, b"x" * 64)
        # Evict the line from the LLC model so the next read refills
        # through the MEE (tamper detection happens on fill).
        machine.llc.flush()
        dram_tamper(machine, frame)
        with pytest.raises(IntegrityViolation):
            machine.epc_read(frame, 64)

    def test_non_prm_memory_not_encrypted(self, machine):
        plain_addr = machine.config.prm_base - 0x10000
        machine.memside_write(plain_addr, b"normal memory")
        assert machine.dram_ciphertext(plain_addr, 13) == b"normal memory"

    def test_mee_charged_only_on_llc_miss(self, machine):
        frame = machine.epc_alloc.alloc()
        from repro.sgx.constants import PT_REG
        machine.epcm.set(frame, eid=1, page_type=PT_REG, vaddr=0)
        machine.epc_write(frame, bytes(64))
        snap = machine.counters.snapshot()
        machine.epc_read(frame, 64)  # line now LLC-resident
        delta = machine.counters.delta_since(snap)
        assert delta.get("llc_hit", 0) == 1
        assert "mee_line_decrypt" not in delta

    def test_mee_charged_on_miss(self, machine):
        frame = machine.epc_alloc.alloc()
        from repro.sgx.constants import PT_REG
        machine.epcm.set(frame, eid=1, page_type=PT_REG, vaddr=0)
        machine.epc_write(frame, bytes(64))
        machine.llc.flush()
        snap = machine.counters.snapshot()
        machine.epc_read(frame, 64)
        delta = machine.counters.delta_since(snap)
        assert delta.get("mee_line_decrypt") == 1
