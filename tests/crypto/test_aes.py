"""AES block cipher tests against FIPS-197 vectors and S-box laws."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import Aes, SBOX
from repro.errors import CryptoError


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


class TestSbox:
    def test_sbox_known_entries(self):
        # Canonical corners of the FIPS-197 S-box table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))


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
