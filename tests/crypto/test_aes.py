"""AES block cipher tests against FIPS-197 vectors, S-box laws, and the
byte-wise reference cipher the T-table form replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import Aes, SBOX
from repro.errors import CryptoError


# -- reference oracle: the byte-wise FIPS-197 cipher ------------------------

def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


class ReferenceAes:
    """SubBytes, ShiftRows, MixColumns (GF(2^8) multiplies) and
    AddRoundKey over a flat 16-byte column-major state, as FIPS-197
    writes them."""

    ROUNDS = {16: 10, 24: 12, 32: 14}
    RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

    def __init__(self, key: bytes) -> None:
        self.nr = self.ROUNDS[len(key)]
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self.nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = [SBOX[b] for b in temp[1:] + temp[:1]]
                temp[0] ^= self.RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        self.round_keys = [sum(words[4 * r:4 * r + 4], [])
                           for r in range(self.nr + 1)]

    @staticmethod
    def _shift_rows(state: list) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list) -> None:
        for c in range(4):
            a = state[4 * c:4 * c + 4]
            state[4 * c + 0] = _gmul(a[0], 2) ^ _gmul(a[1], 3) ^ a[2] ^ a[3]
            state[4 * c + 1] = a[0] ^ _gmul(a[1], 2) ^ _gmul(a[2], 3) ^ a[3]
            state[4 * c + 2] = a[0] ^ a[1] ^ _gmul(a[2], 2) ^ _gmul(a[3], 3)
            state[4 * c + 3] = _gmul(a[0], 3) ^ a[1] ^ a[2] ^ _gmul(a[3], 2)

    def encrypt_block(self, block: bytes) -> bytes:
        state = [b ^ k for b, k in zip(block, self.round_keys[0])]
        for rnd in range(1, self.nr + 1):
            state = [SBOX[b] for b in state]
            self._shift_rows(state)
            if rnd < self.nr:
                self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, self.round_keys[rnd])]
        return bytes(state)


class TestFips197Vectors:
    """Known-answer tests from the FIPS-197 appendices."""

    def test_appendix_b_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        ct = Aes(key).encrypt_block(pt)
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_appendix_c1_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = Aes(key).encrypt_block(pt)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_appendix_c2_aes192(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f1011121314151617")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = Aes(key).encrypt_block(pt)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_appendix_c3_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = Aes(key).encrypt_block(pt)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    @pytest.mark.parametrize("key_len, expected", [
        (16, "69c4e0d86a7b0430d8cdb78070b4c55a"),
        (24, "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (32, "8ea2b7ca516745bfeafc49904b496089"),
    ])
    def test_reference_cipher_passes_appendix_c(self, key_len, expected):
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = ReferenceAes(bytes(range(key_len))).encrypt_block(pt)
        assert ct.hex() == expected


class TestSbox:
    def test_sbox_known_entries(self):
        # Canonical corners of the FIPS-197 S-box table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestAgainstReference:
    @given(st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_matches_bytewise_reference(self, key, block):
        assert Aes(key).encrypt_block(block) \
            == ReferenceAes(key).encrypt_block(block)


class TestRoundTrip:
    @given(st.binary(min_size=16, max_size=16))
    def test_different_keys_differ(self, block):
        a = Aes(bytes(16)).encrypt_block(block)
        b = Aes(bytes([1] * 16)).encrypt_block(block)
        assert a != b


class TestErrors:
    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            Aes(bytes(15))

    def test_bad_block_length_encrypt(self):
        with pytest.raises(CryptoError):
            Aes(bytes(16)).encrypt_block(bytes(15))
