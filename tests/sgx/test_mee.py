"""MEE tests: physical confidentiality, integrity, and cost asymmetry."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityViolation
from repro.sgx.constants import CACHELINE_SIZE, SmallMachineConfig
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


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


class TestLineCipher:
    def test_roundtrip(self):
        mee = Mee(SmallMachineConfig())
        plain = bytes(range(64))
        cipher = mee.encrypt_line(0x1000, plain)
        assert cipher != plain
        assert mee.decrypt_line(0x1000, cipher) == plain

    def test_same_plaintext_different_lines_differ(self):
        mee = Mee(SmallMachineConfig())
        plain = b"A" * 64
        assert mee.encrypt_line(0x1000, plain) \
            != mee.encrypt_line(0x1040, plain)

    def test_rewriting_line_changes_ciphertext(self):
        """CTR versioning: re-encrypting the same data at the same line
        must not repeat the keystream."""
        mee = Mee(SmallMachineConfig())
        plain = b"B" * 64
        first = mee.encrypt_line(0x1000, plain)
        second = mee.encrypt_line(0x1000, plain)
        assert first != second
        assert mee.decrypt_line(0x1000, second) == plain

    def test_tampered_ciphertext_detected(self):
        mee = Mee(SmallMachineConfig())
        cipher = bytearray(mee.encrypt_line(0x1000, bytes(64)))
        cipher[5] ^= 0xFF
        with pytest.raises(IntegrityViolation):
            mee.decrypt_line(0x1000, bytes(cipher))

    def test_untouched_line_reads_zero(self):
        mee = Mee(SmallMachineConfig())
        assert mee.decrypt_line(0x2000, bytes(64)) == bytes(64)

    def test_tamper_before_first_write_detected(self):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(IntegrityViolation):
            mee.decrypt_line(0x2000, b"\x01" + bytes(63))

    def test_partial_line_rejected(self):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.encrypt_line(0, bytes(32))

    def test_root_mac_changes_with_writes(self):
        mee = Mee(SmallMachineConfig())
        r0 = mee.root_mac()
        mee.encrypt_line(0x1000, bytes(64))
        assert mee.root_mac() != r0

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plain):
        mee = Mee(SmallMachineConfig())
        assert mee.decrypt_line(0, mee.encrypt_line(0, plain)) == plain


class TestSpanCipher:
    """``encrypt_lines``/``decrypt_lines`` against the per-line oracle:
    the same ciphertext, MACs, versions and root, byte for byte."""

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
            expected = b"".join(
                oracle.encrypt_line(base + off,
                                    plain[off:off + CACHELINE_SIZE])
                for off in range(0, len(plain), CACHELINE_SIZE))
            assert cipher == expected
            assert mee.root_mac() == oracle.root_mac()
            assert mee.decrypt_lines(base, cipher) == plain

    @pytest.mark.parametrize("size", [1, 63, 65])
    def test_partial_span_rejected(self, size):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.encrypt_lines(0, bytes(size))
        with pytest.raises(ValueError):
            mee.decrypt_lines(0, bytes(size))

    def test_line_wrappers_reject_multi_line_input(self):
        mee = Mee(SmallMachineConfig())
        with pytest.raises(ValueError):
            mee.encrypt_line(0, bytes(2 * CACHELINE_SIZE))
        with pytest.raises(ValueError):
            mee.decrypt_line(0, bytes(2 * CACHELINE_SIZE))


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
