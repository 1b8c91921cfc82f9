"""AES-GCM tests against NIST SP 800-38D vectors, AEAD laws, a
block-at-a-time reference GCM, and the per-key state cache."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import Aes
from repro.crypto.gcm import (KEY_CACHE_SIZE, AesGcm, _gf_mult, _ghash,
                              _ghash_simple, _key_state, _window_tables)
from repro.errors import CryptoError

#: Key, 60-byte plaintext and AAD of NIST GCM spec test cases 4-6.
SPEC_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
SPEC_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b39")
SPEC_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


def _pad16(data: bytes) -> bytes:
    return data + bytes(-len(data) % 16)


def _bits64(data: bytes) -> bytes:
    return (len(data) * 8).to_bytes(8, "big")


def _reference_seal(key: bytes, nonce: bytes, plaintext: bytes,
                    aad: bytes = b"") -> bytes:
    """SP 800-38D restated slowly: one AES block at a time, bit-serial
    GHASH and an explicit inc32 over 16-byte counter blocks."""
    aes = Aes(key)
    h = aes.encrypt_block(bytes(16))
    if len(nonce) == 12:
        j0 = nonce + b"\x00\x00\x00\x01"
    else:
        j0 = _ghash_simple(h, _pad16(nonce) + bytes(8) + _bits64(nonce)) \
            .to_bytes(16, "big")
    stream, counter = b"", j0
    while len(stream) < len(plaintext):
        low = (int.from_bytes(counter[12:], "big") + 1) % (1 << 32)
        counter = counter[:12] + low.to_bytes(4, "big")
        stream += aes.encrypt_block(counter)
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    s = _ghash_simple(h, _pad16(aad) + _pad16(ciphertext) + _bits64(aad)
                      + _bits64(ciphertext))
    tag = s ^ int.from_bytes(aes.encrypt_block(j0), "big")
    return ciphertext + tag.to_bytes(16, "big")


def _gf_inverse(a: int) -> int:
    """``a^(2^128 - 2)``, the inverse in GF(2^128)'s multiplicative
    group (the identity is ``1 << 127`` in GCM bit order)."""
    result, exponent = 1 << 127, (1 << 128) - 2
    while exponent:
        if exponent & 1:
            result = _gf_mult(result, a)
        a = _gf_mult(a, a)
        exponent >>= 1
    return result


def _iv_for_j0(key: bytes, j0: int) -> bytes:
    """The 16-byte IV whose GHASH-derived pre-counter block is ``j0``:
    J0 = (IV·H ⊕ L)·H with L = 128, the IV's bit length, solved for IV."""
    h_inv = _gf_inverse(int.from_bytes(Aes(key).encrypt_block(bytes(16)),
                                       "big"))
    return _gf_mult(_gf_mult(j0, h_inv) ^ 128, h_inv).to_bytes(16, "big")


class TestNistVectors:
    """Known-answer tests (NIST GCM spec test cases 1-6, AES-128)."""

    def test_case_1_empty(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_zero_block(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), bytes(16))
        assert sealed.hex() == (
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf")

    def test_case_3_four_blocks(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b391aafd255")
        sealed = AesGcm(key).seal(iv, pt)
        assert sealed[:len(pt)].hex() == (
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985")
        assert sealed[len(pt):].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b39")
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(key).seal(iv, pt, aad)
        assert sealed[len(pt):].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_case_5_eight_byte_iv(self):
        gcm = AesGcm(SPEC_KEY)
        iv = bytes.fromhex("cafebabefacedbad")
        sealed = gcm.seal(iv, SPEC_PT, SPEC_AAD)
        assert sealed[:-16].hex() == (
            "61353b4c2806934a777ff51fa22a4755"
            "699b2a714fcdc6f83766e5f97b6c7423"
            "73806900e49f24b22b097544d4896b42"
            "4989b5e1ebac0f07c23f4598")
        assert sealed[-16:].hex() == "3612d2e79e3b0785561be14aaca2fccb"
        assert gcm.open(iv, sealed, SPEC_AAD) == SPEC_PT

    def test_case_6_sixty_byte_iv(self):
        gcm = AesGcm(SPEC_KEY)
        iv = bytes.fromhex(
            "9313225df88406e555909c5aff5269aa"
            "6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b5254"
            "16aedbf5a0de6a57a637b39b")
        sealed = gcm.seal(iv, SPEC_PT, SPEC_AAD)
        assert sealed[:-16].hex() == (
            "8ce24998625615b603a033aca13fb894"
            "be9112a5c3a211a8ba262a3cca7e2ca7"
            "01e4a9a4fba43c90ccdcb281d48c7c6f"
            "d62875d2aca417034c34aee5")
        assert sealed[-16:].hex() == "619cc5aefffe0bfa462af43c1699d050"
        assert gcm.open(iv, sealed, SPEC_AAD) == SPEC_PT


class TestAgainstReference:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 4099])
    def test_ctr_lengths(self, length):
        plaintext = bytes((7 * i + 3) & 0xFF for i in range(length))
        gcm = AesGcm(SPEC_KEY)
        nonce = b"ctr-lengths!"
        sealed = gcm.seal(nonce, plaintext, b"hdr")
        assert sealed == _reference_seal(SPEC_KEY, nonce, plaintext, b"hdr")
        assert gcm.open(nonce, sealed, b"hdr") == plaintext

    def test_counter_wraps_mod_2_32(self):
        # J0 ends in 0xfffffffe, so the four keystream blocks use the
        # counters 0xffffffff, 0, 1, 2 under an unchanged 96-bit prefix.
        j0 = (0x0123456789ABCDEF01234567 << 32) | 0xFFFFFFFE
        iv = _iv_for_j0(SPEC_KEY, j0)
        h = Aes(SPEC_KEY).encrypt_block(bytes(16))
        assert _ghash_simple(h, iv + (128).to_bytes(16, "big")) == j0
        gcm = AesGcm(SPEC_KEY)
        plaintext = bytes(range(64))
        sealed = gcm.seal(iv, plaintext, b"wrap")
        assert sealed == _reference_seal(SPEC_KEY, iv, plaintext, b"wrap")
        # Recorded from the byte-wise implementation this one replaced.
        assert sealed.hex() == (
            "a41e45a9a6b37a832cc70e47c61b6411"
            "3949e4ef3e22b450ab78a278d91586f1"
            "2ad9071d52d49bee8a72fdb478db4bb4"
            "15cc945d13ba8968426da7b1559e8d41"
            "c0667d2c99b035d9c4c37aff46132e50")
        assert gcm.open(iv, sealed, b"wrap") == plaintext

    @given(st.binary(min_size=16, max_size=16), st.binary(max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_windowed_ghash_matches_bit_serial(self, h, data):
        tables = _window_tables(int.from_bytes(h, "big"))
        assert _ghash(tables, data) == _ghash_simple(h, data)


class TestAeadLaws:
    @given(st.binary(max_size=200), st.binary(max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_open_inverts_seal(self, plaintext, aad):
        gcm = AesGcm(bytes(range(16)))
        nonce = b"nonce-123456"
        assert gcm.open(nonce, gcm.seal(nonce, plaintext, aad), aad) \
            == plaintext

    def test_tampered_ciphertext_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = bytearray(gcm.seal(bytes(12), b"attack at dawn"))
        sealed[0] ^= 1
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), bytes(sealed))

    def test_tampered_tag_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = bytearray(gcm.seal(bytes(12), b"attack at dawn"))
        sealed[-1] ^= 1
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), bytes(sealed))

    def test_wrong_aad_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"payload", b"aad-1")
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), sealed, b"aad-2")

    def test_wrong_nonce_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"payload")
        with pytest.raises(CryptoError):
            gcm.open(b"x" * 12, sealed)

    def test_runt_message_rejected(self):
        with pytest.raises(CryptoError):
            AesGcm(bytes(16)).open(bytes(12), b"short")


class TestKeyCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _key_state.cache_clear()
        yield
        _key_state.cache_clear()

    def test_bounded_by_a_constant(self):
        for i in range(KEY_CACHE_SIZE + 8):
            AesGcm(i.to_bytes(16, "big"))
        info = _key_state.cache_info()
        assert info.maxsize == KEY_CACHE_SIZE
        assert info.currsize == KEY_CACHE_SIZE

    @pytest.mark.parametrize("length", [0, 15, 17, 33])
    def test_bad_key_length_raises_and_caches_nothing(self, length):
        with pytest.raises(CryptoError):
            AesGcm(bytes(length))
        assert _key_state.cache_info().currsize == 0

    def test_bytearray_key_shares_the_bytes_entry(self):
        key = bytearray(range(16))
        sealed = AesGcm(key).seal(b"nonce-123456", b"payload")
        assert sealed == AesGcm(bytes(key)).seal(b"nonce-123456",
                                                 b"payload")
        assert _key_state.cache_info().currsize == 1

    def test_round_trip_survives_cache_clear(self):
        sealed = AesGcm(SPEC_KEY).seal(b"nonce-123456", b"payload", b"a")
        _key_state.cache_clear()
        assert AesGcm(SPEC_KEY).open(b"nonce-123456", sealed, b"a") \
            == b"payload"

    def test_tampering_rejected_on_a_cached_key(self):
        gcm = AesGcm(SPEC_KEY)
        sealed = bytearray(gcm.seal(b"nonce-123456", b"payload"))
        sealed[3] ^= 0x40
        with pytest.raises(CryptoError):
            AesGcm(SPEC_KEY).open(b"nonce-123456", bytes(sealed))

    def test_full_cache_fits_the_rss_bound(self):
        # bench/ allows peak_rss_mb 5% growth: about 2.8 MB on its
        # lightest AES workload (echo, 56 MB).
        tracemalloc.start()
        try:
            for i in range(KEY_CACHE_SIZE):
                AesGcm(i.to_bytes(16, "big"))
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2_500_000


class TestGf128:
    def test_mult_identity(self):
        # The GCM field's multiplicative identity is x^0 = MSB-first 1<<127.
        one = 1 << 127
        assert _gf_mult(one, 0xDEADBEEF) == 0xDEADBEEF

    def test_mult_commutes(self):
        a, b = 0x1234567890ABCDEF, 0xFEDCBA0987654321
        assert _gf_mult(a, b) == _gf_mult(b, a)

    def test_mult_zero_annihilates(self):
        assert _gf_mult(0, 0xFFFF) == 0
