"""MEE tests: physical confidentiality, integrity, and cost asymmetry."""

import gc
import hashlib
import hmac
import tracemalloc
from functools import partial

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


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


class TestLineCipher:
    """One-line spans: the cipher's per-line properties."""

    def test_roundtrip(self):
        mee = Mee(SmallMachineConfig())
        plain = bytes(range(64))
        cipher = mee.encrypt_lines(0x1000, plain)
        assert cipher != plain
        assert mee.decrypt_lines(0x1000, cipher) == plain

    def test_same_plaintext_different_lines_differ(self):
        mee = Mee(SmallMachineConfig())
        plain = b"A" * 64
        assert mee.encrypt_lines(0x1000, plain) \
            != mee.encrypt_lines(0x1040, plain)

    def test_rewriting_line_changes_ciphertext(self):
        """CTR versioning: re-encrypting the same data at the same line
        must not repeat the keystream."""
        mee = Mee(SmallMachineConfig())
        plain = b"B" * 64
        first = mee.encrypt_lines(0x1000, plain)
        second = mee.encrypt_lines(0x1000, plain)
        assert first != second
        assert mee.decrypt_lines(0x1000, second) == plain

    def test_tampered_ciphertext_detected(self):
        mee = Mee(SmallMachineConfig())
        cipher = bytearray(mee.encrypt_lines(0x1000, bytes(64)))
        cipher[5] ^= 0xFF
        with pytest.raises(IntegrityViolation):
            mee.decrypt_lines(0x1000, bytes(cipher))

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
            mee.encrypt_lines(0, bytes(32))

    def test_root_mac_changes_with_writes(self):
        mee = Mee(SmallMachineConfig())
        r0 = mee.root_mac()
        mee.encrypt_lines(0x1000, bytes(64))
        assert mee.root_mac() != r0

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plain):
        mee = Mee(SmallMachineConfig())
        assert mee.decrypt_lines(0, mee.encrypt_lines(0, plain)) == plain


class TestSpanCipher:
    """``encrypt_lines``/``decrypt_lines`` against the per-line oracle:
    the same ciphertext, fills and root, byte for byte."""

    @given(st.integers(0, 63), st.integers(0, 6), st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_spans_match_per_line_oracle(self, first_line, nlines,
                                         rounds, rng):
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        base = first_line * CACHELINE_SIZE
        for _ in range(rounds):
            plain = rng.randbytes(nlines * CACHELINE_SIZE)
            cipher = mee.encrypt_lines(base, plain)
            assert cipher == oracle_encrypt(oracle, base, plain)
            assert mee.root_mac() == oracle.root_mac()
            assert mee.decrypt_lines(base, cipher) == plain

    @pytest.mark.parametrize("size", [1, 63, 65])
    def test_partial_span_rejected(self, size):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.encrypt_lines(0, bytes(size))
        with pytest.raises(ValueError):
            mee.decrypt_lines(0, bytes(size))

    @pytest.mark.parametrize("line", [0, 2, 3])
    def test_tampered_span_line_changes_nothing(self, line):
        """A flipped byte in the first, a middle or the last line of a
        span raises, naming that line, before any plaintext is returned,
        and leaves the MEE as it was: the untouched span still reads
        back, the root still matches the per-line oracle's, and the next
        writeback bumps the versions the oracle bumps."""
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        base = 0x4000
        plain = bytes(range(256))
        cipher = mee.encrypt_lines(base, plain)
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
        assert mee.encrypt_lines(base, plain) \
            == oracle_encrypt(oracle, base, plain)
        assert mee.root_mac() == oracle.root_mac()


class TestFillCompare:
    """A fill compares DRAM with the ciphertext the line's writeback
    recorded.  Every case the per-line oracle's MAC check refuses is
    refused, with the same error text as the MAC check gave, and every
    case it accepts reads back the written plaintext."""

    BASE = 0x1000

    def test_replayed_older_ciphertext_detected(self):
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        old = mee.encrypt_lines(self.BASE, b"A" * 64)
        oracle.encrypt_line(self.BASE, b"A" * 64)
        new = mee.encrypt_lines(self.BASE, b"A" * 64)
        oracle.encrypt_line(self.BASE, b"A" * 64)
        with pytest.raises(IntegrityViolation):
            oracle.decrypt_line(self.BASE, old)
        with pytest.raises(IntegrityViolation, match=(
                f"DRAM tampering detected on line {self.BASE:#x}$")):
            mee.decrypt_lines(self.BASE, old)
        assert mee.decrypt_lines(self.BASE, new) == b"A" * 64

    def test_ciphertext_copied_from_another_line_detected(self):
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        other = self.BASE + CACHELINE_SIZE
        span = mee.encrypt_lines(self.BASE, b"S" * 128)
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
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        plain = bytes(range(128))
        dram = bytearray(mee.encrypt_lines(self.BASE, plain))
        oracle_encrypt(oracle, self.BASE, plain)
        dram[70] ^= 0x5A
        with pytest.raises(IntegrityViolation):
            mee.decrypt_lines(self.BASE, bytes(dram))
        dram[70] ^= 0x5A
        assert mee.decrypt_lines(self.BASE, bytes(dram)) == plain \
            == oracle_decrypt(oracle, self.BASE, bytes(dram))

    def test_root_after_a_rewrite_matches_oracle(self):
        """The root's MAC for a line is recomputed after the line's next
        writeback, not taken from the previous root read."""
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        for plain in (b"1" * 128, b"2" * 128, b"2" * 128):
            mee.encrypt_lines(self.BASE, plain)
            oracle_encrypt(oracle, self.BASE, plain)
            assert mee.root_mac() == oracle.root_mac()
        mee.encrypt_lines(self.BASE + CACHELINE_SIZE, b"3" * 64)
        oracle.encrypt_line(self.BASE + CACHELINE_SIZE, b"3" * 64)
        assert mee.root_mac() == oracle.root_mac()

    def test_fill_and_writeback_compute_no_mac(self):
        """Only the root reads line MACs: with the MAC pad states gone,
        writebacks and fills still work."""
        mee = Mee(SmallMachineConfig())
        mee._mac_inner = mee._mac_outer = None
        cipher = mee.encrypt_lines(self.BASE, bytes(range(192)))
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
    version, and computes line MACs only for the root.  Against the
    per-line oracle, which derives every keystream and MAC afresh and
    checks fills by MAC: the same ciphertext, fill outcome and root,
    with the root read after every step or only now and then (so that a
    line can be written twice between two root reads)."""

    @staticmethod
    def _decrypt(decrypt, base, span):
        try:
            return decrypt(base, span)
        except IntegrityViolation:
            return IntegrityViolation

    def _replay(self, ops, root_every_step):
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        dram = bytearray(_RECORD_LINES * CACHELINE_SIZE)
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
                cipher = mee.encrypt_lines(base, plain)
                assert cipher == oracle_encrypt(oracle, base, plain)
                dram[base:base + len(cipher)] = cipher
                for i in range(nlines):
                    written.setdefault(first + i, []).append(
                        cipher[i * CACHELINE_SIZE:(i + 1) * CACHELINE_SIZE])
            elif kind == "decrypt":
                _kind, first, nlines = op
                nlines = min(nlines, _RECORD_LINES - first)
                base = first * CACHELINE_SIZE
                span = bytes(dram[base:base + nlines * CACHELINE_SIZE])
                assert self._decrypt(mee.decrypt_lines, base, span) \
                    == self._decrypt(partial(oracle_decrypt, oracle),
                                     base, span)
            elif kind == "tamper":
                _kind, line, mask = op
                tampers.append((line * CACHELINE_SIZE
                                + line % CACHELINE_SIZE, mask))
                dram[tampers[-1][0]] ^= mask
            elif kind == "untamper":
                if tampers:
                    offset, mask = tampers.pop()
                    dram[offset] ^= mask
            elif kind == "replay":
                _kind, line, age = op
                history = written.get(line)
                if history:
                    base = line * CACHELINE_SIZE
                    dram[base:base + CACHELINE_SIZE] = \
                        history[-1 - age % len(history)]
            elif kind == "copy":
                _kind, src, dst = op
                dram[dst * CACHELINE_SIZE:(dst + 1) * CACHELINE_SIZE] = \
                    dram[src * CACHELINE_SIZE:(src + 1) * CACHELINE_SIZE]
            elif kind == "root":
                assert mee.root_mac() == oracle.root_mac()
            else:
                mee.forget_page(op[1] * PAGE_SIZE)
                oracle.forget_page(op[1] * PAGE_SIZE)
            if root_every_step:
                assert mee.root_mac() == oracle.root_mac()
        assert mee.root_mac() == oracle.root_mac()

    @given(_record_ops)
    @settings(max_examples=60, deadline=None)
    def test_recorded_mee_matches_per_line_oracle(self, ops):
        self._replay(ops, root_every_step=True)

    @given(_record_ops)
    @settings(max_examples=60, deadline=None)
    def test_root_read_rarely_matches_per_line_oracle(self, ops):
        self._replay(ops, root_every_step=False)

    def test_forget_page_drops_the_records(self):
        mee, oracle = Mee(SmallMachineConfig()), ReferenceMee()
        plain = bytes(range(256)) * (2 * PAGE_SIZE // 256)
        cipher = mee.encrypt_lines(0, plain)
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
        cipher = mee.encrypt_lines(PAGE_SIZE, b"C" * 64)
        assert cipher == ReferenceMee().encrypt_line(PAGE_SIZE, b"C" * 64)
        assert mee.decrypt_lines(PAGE_SIZE, cipher) == b"C" * 64


#: What the three per-line tables the record replaced (MAC, version,
#: keystream) held per line on CPython 3.11, measured the same way: a
#: 32 B MAC and a 64 B keystream object, three dict slots and two
#: address ints.  The MAC table alone was 133 B of it.
_TABLES_BYTES_PER_LINE = 334
_MAC_TABLE_BYTES_PER_LINE = 133


def test_line_state_stays_under_the_replaced_tables():
    """Written, filled and rewritten, a 1 MiB span keeps no more MEE
    state per line than the three tables did; a root read adds back at
    most the MAC table."""
    span = 1 << 20
    lines = span // CACHELINE_SIZE
    plain = bytes(range(256)) * (span // 256)
    mee = Mee(SmallMachineConfig())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert mee.decrypt_lines(0, mee.encrypt_lines(0, plain)) == plain
        cipher = mee.encrypt_lines(0, plain)
        assert mee.decrypt_lines(0, cipher) == plain
        del cipher
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
