"""AES-GCM tests against NIST SP 800-38D vectors, AEAD laws, a
block-at-a-time reference GCM, the wide-vs-numpy keystream dispatch,
and the per-key state cache."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import gcm as gcm_module
from repro.crypto.aes import Aes
from repro.crypto.gcm import (_NUMPY_MIN_BLOCKS, KEY_CACHE_SIZE, AesGcm,
                              _ghash, _key_state, _numpy_keystream,
                              _wide_keystream, _window_tables)
from repro.errors import CryptoError
from tests.crypto.handoff_helpers import computed_open

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


#: GCM's reduction polynomial x^128 + x^7 + x^2 + x + 1, reflected.
_R = 0xE1 << 120


def _gf_mult(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) (GCM bit order), bit by bit."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _ghash_simple(h: bytes, data: bytes) -> int:
    """Reference one-shot GHASH, one :func:`_gf_mult` per block: the
    slow cross-check the windowed ``gcm._ghash`` is tested against."""
    hval = int.from_bytes(h, "big")
    y = 0
    for off in range(0, len(data), 16):
        block = data[off:off + 16].ljust(16, b"\x00")
        y = _gf_mult(y ^ int.from_bytes(block, "big"), hval)
    return y


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
        assert gcm.open(iv, sealed, SPEC_AAD) == SPEC_PT \
            == computed_open(gcm, iv, sealed, SPEC_AAD)

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
        assert gcm.open(iv, sealed, SPEC_AAD) == SPEC_PT \
            == computed_open(gcm, iv, sealed, SPEC_AAD)


class TestAgainstReference:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 4099])
    def test_ctr_lengths(self, length):
        plaintext = bytes((7 * i + 3) & 0xFF for i in range(length))
        gcm = AesGcm(SPEC_KEY)
        nonce = b"ctr-lengths!"
        sealed = gcm.seal(nonce, plaintext, b"hdr")
        assert sealed == _reference_seal(SPEC_KEY, nonce, plaintext, b"hdr")
        assert gcm.open(nonce, sealed, b"hdr") == plaintext \
            == computed_open(gcm, nonce, sealed, b"hdr")

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

    @given(st.binary(min_size=16, max_size=16), st.binary(max_size=80),
           st.binary(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_windowed_ghash_matches_bit_serial(self, h, data, more):
        tables = _window_tables(int.from_bytes(h, "big"))
        assert _ghash(tables, data) == _ghash_simple(h, data)
        # Chaining zero-pads a short final block of the first part, as
        # a tag does between the AAD and the ciphertext.
        assert _ghash(tables, more, _ghash(tables, data)) \
            == _ghash_simple(h, _pad16(data) + more)


#: The three key sizes the keystream differential runs under.
KEYS = [bytes(range(7, 7 + n)) for n in (16, 24, 32)]
#: A J0 whose 32-bit counter sits mid-range, and one whose counter
#: wraps after 7 blocks under a prefix with a clear low bit, so a carry
#: out of the counter field would show.
J0 = (0xCAFEBABEFACEDBADDECAF888 << 32) | 0x00010000
WRAP_J0 = (0xCAFEBABEFACEDBADDECAF888 << 32) | 0xFFFFFFF8


def _scalar_join(key: bytes, j0: int, blocks: int) -> bytes:
    """E_K(inc32^i(J0)) for i = 1 .. ``blocks``, one ``Aes`` block at a
    time."""
    aes = Aes(key)
    prefix, counter = j0 >> 32 << 32, j0 & 0xFFFFFFFF
    return b"".join(
        aes.encrypt_block((prefix | (counter + i) & 0xFFFFFFFF)
                          .to_bytes(16, "big"))
        for i in range(1, blocks + 1))


class TestKeystreamDispatch:
    """``_keystream`` takes the numpy keystream for messages of at least
    ``_NUMPY_MIN_BLOCKS`` blocks and one wide pass below; both must
    give the same bytes."""

    @pytest.mark.parametrize("key", KEYS, ids=["aes128", "aes192",
                                               "aes256"])
    def test_numpy_keystream_matches_scalar_join(self, key):
        # Every block count of a message of 0..4099 bytes.
        _rk, _tables, rk_array = _key_state(key)
        blocks = (4099 + 15) // 16
        for j0 in (J0, WRAP_J0):
            scalar = _scalar_join(key, j0, blocks)
            for n in range(blocks + 1):
                assert _numpy_keystream(rk_array, j0, n) \
                    == scalar[:16 * n], n

    @pytest.mark.parametrize("key", KEYS, ids=["aes128", "aes192",
                                               "aes256"])
    def test_wide_keystream_matches_scalar_join(self, key):
        # Every block count the wide pass takes, with E_K(J0) in lane 0.
        rk, _tables, _rk_array = _key_state(key)
        for j0 in (J0, WRAP_J0):
            scalar = _scalar_join(key, j0, _NUMPY_MIN_BLOCKS - 1)
            ekj0 = Aes(key).encrypt_block(j0.to_bytes(16, "big"))
            for n in range(_NUMPY_MIN_BLOCKS):
                mask, stream = _wide_keystream(rk, j0, n)
                assert mask.to_bytes(16, "big") == ekj0, n
                assert stream.to_bytes(16 * n, "big") \
                    == scalar[:16 * n], n

    def test_every_wide_block_count_matches_reference(self):
        # Odd block counts are one byte short of a whole block.
        gcm = AesGcm(SPEC_KEY)
        for n in range(_NUMPY_MIN_BLOCKS + 3):
            plaintext = bytes((11 * i + n) & 0xFF
                              for i in range(16 * n - n % 2))
            sealed = gcm.seal(b"every-count!", plaintext, b"hdr")
            assert sealed == _reference_seal(SPEC_KEY, b"every-count!",
                                             plaintext, b"hdr"), n

    # 17 blocks is where the keystream switched from the one-block-at-a-
    # time join to numpy before the wide pass (256 B, the longest echo
    # and YCSB request); _NUMPY_MIN_BLOCKS is where it switches now.
    @pytest.mark.parametrize("key", KEYS, ids=["aes128", "aes192",
                                               "aes256"])
    @pytest.mark.parametrize("blocks", [16, 17, 18,
                                        _NUMPY_MIN_BLOCKS - 1,
                                        _NUMPY_MIN_BLOCKS,
                                        _NUMPY_MIN_BLOCKS + 1])
    @pytest.mark.parametrize("extra", [-1, 0])
    def test_threshold_neighbours_match_reference(self, key, blocks, extra):
        plaintext = bytes((3 * i + 1) & 0xFF
                          for i in range(16 * blocks + extra))
        nonce = b"threshold-iv"
        sealed = AesGcm(key).seal(nonce, plaintext, b"hdr")
        assert sealed == _reference_seal(key, nonce, plaintext, b"hdr")
        assert AesGcm(key).open(nonce, sealed, b"hdr") == plaintext

    def test_counter_wraps_inside_a_batched_message(self):
        # J0 ends in 0xfffffff0: block 16 of 40 takes counter 0.
        j0 = (0x0123456789ABCDEF01234567 << 32) | 0xFFFFFFF0
        iv = _iv_for_j0(SPEC_KEY, j0)
        plaintext = bytes((5 * i + 1) & 0xFF for i in range(637))
        assert (len(plaintext) + 15) // 16 < _NUMPY_MIN_BLOCKS
        gcm = AesGcm(SPEC_KEY)
        sealed = gcm.seal(iv, plaintext, b"wrap")
        assert sealed == _reference_seal(SPEC_KEY, iv, plaintext, b"wrap")
        # Recorded from the scalar-only implementation this one replaced.
        assert iv.hex() == "c1cee1e84dc82daa70f1eb27c687a645"
        assert sealed[-16:].hex() == "8f2adcdf6126e318cf7478f260f985c5"
        assert hashlib.sha256(sealed).hexdigest() == (
            "fbb810015261e13ed5fd78190b792ed5"
            "f4b24db86dd460c5b935fedf64ef8c17")
        assert gcm.open(iv, sealed, b"wrap") == plaintext

    def test_counter_wraps_inside_a_numpy_message(self):
        # J0 ends in 0xffffff80: block 128 of 170 takes counter 0.
        j0 = (0x0123456789ABCDEF01234567 << 32) | 0xFFFFFF80
        iv = _iv_for_j0(SPEC_KEY, j0)
        plaintext = bytes((5 * i + 1) & 0xFF for i in range(2717))
        assert (len(plaintext) + 15) // 16 >= _NUMPY_MIN_BLOCKS
        gcm = AesGcm(SPEC_KEY)
        sealed = gcm.seal(iv, plaintext, b"wrap")
        assert sealed == _reference_seal(SPEC_KEY, iv, plaintext, b"wrap")
        # Recorded from the implementation before the wide pass.
        assert iv.hex() == "e04c5a5f452d26c18a666fb3bdd6c2af"
        assert sealed[-16:].hex() == "6d04510ff2d3a500462468264342db3c"
        assert hashlib.sha256(sealed).hexdigest() == (
            "ac849e9027351e5d922762c748a4b2b6"
            "634a7ba98a3d4339f40b129598468e45")
        assert gcm.open(iv, sealed, b"wrap") == plaintext

    @staticmethod
    def _refuse(*args):
        raise AssertionError("wrong keystream path")

    def test_256_bytes_never_reach_numpy(self, monkeypatch):
        monkeypatch.setattr(gcm_module, "_numpy_keystream", self._refuse)
        gcm = AesGcm(SPEC_KEY)
        plaintext = bytes(range(256))
        sealed = gcm.seal(b"nonce-123456", plaintext, b"a")
        assert sealed == _reference_seal(SPEC_KEY, b"nonce-123456",
                                         plaintext, b"a")
        assert gcm.open(b"nonce-123456", sealed, b"a") == plaintext

    # 536 and 552 B are the sealed matrices of the minisvm workload.
    @pytest.mark.parametrize("length", [536, 552,
                                        16 * _NUMPY_MIN_BLOCKS - 16])
    def test_short_messages_never_reach_numpy(self, monkeypatch, length):
        monkeypatch.setattr(gcm_module, "_numpy_keystream", self._refuse)
        gcm = AesGcm(SPEC_KEY)
        plaintext = bytes(range(256)) * 10
        sealed = gcm.seal(b"nonce-123456", plaintext[:length])
        assert gcm.open(b"nonce-123456", sealed) == plaintext[:length]

    @pytest.mark.parametrize("length", [16 * _NUMPY_MIN_BLOCKS - 15,
                                        16 * _NUMPY_MIN_BLOCKS, 4099])
    def test_long_messages_never_reach_wide(self, monkeypatch, length):
        monkeypatch.setattr(gcm_module, "_wide_keystream", self._refuse)
        gcm = AesGcm(SPEC_KEY)
        plaintext = bytes(range(256)) * 17
        sealed = gcm.seal(b"nonce-123456", plaintext[:length])
        assert sealed == _reference_seal(SPEC_KEY, b"nonce-123456",
                                         plaintext[:length])
        assert gcm.open(b"nonce-123456", sealed) == plaintext[:length]


class TestAeadLaws:
    @given(st.binary(max_size=200), st.binary(max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_open_inverts_seal(self, plaintext, aad):
        gcm = AesGcm(bytes(range(16)))
        nonce = b"nonce-123456"
        sealed = gcm.seal(nonce, plaintext, aad)
        assert gcm.open(nonce, sealed, aad) == plaintext \
            == computed_open(gcm, nonce, sealed, aad)

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

    def test_empty_nonce_rejected_by_seal(self):
        # SP 800-38D needs an IV of at least one bit: an empty one gives
        # every message under the key the same J0 and keystream.
        with pytest.raises(CryptoError):
            AesGcm(bytes(16)).seal(b"", b"payload")

    def test_empty_nonce_rejected_by_open(self):
        with pytest.raises(CryptoError):
            AesGcm(bytes(16)).open(b"", bytes(32))


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
        assert computed_open(AesGcm(SPEC_KEY), b"nonce-123456", sealed,
                             b"a") == b"payload"

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
