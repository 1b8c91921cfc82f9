"""HashAead: the host wire cipher — AesGcm-compatible interface,
hash-based keystream + MAC so 100k-session experiments stay fast."""

import hashlib

import pytest

from repro.crypto.gcm import AesGcm
from repro.crypto.hashaead import HashAead
from repro.errors import CryptoError
from tests.crypto.handoff_helpers import computed_open

KEY = bytes(range(16))
NONCE = b"\x01" * 12
AAD = b"header"


class TestHashAead:
    def test_roundtrip(self):
        aead = HashAead(KEY)
        ct = aead.seal(NONCE, b"attack at dawn", AAD)
        assert aead.open(NONCE, ct, AAD) == b"attack at dawn" \
            == computed_open(aead, NONCE, ct, AAD)

    def test_ciphertext_hides_plaintext(self):
        ct = HashAead(KEY).seal(NONCE, b"secret-payload", b"")
        assert b"secret-payload" not in ct

    def test_tag_length_matches_gcm(self):
        assert HashAead.TAG_LEN == AesGcm.TAG_LEN
        ct = HashAead(KEY).seal(NONCE, b"x" * 10, b"")
        assert len(ct) == 10 + HashAead.TAG_LEN

    def test_tamper_ciphertext_detected(self):
        aead = HashAead(KEY)
        ct = bytearray(aead.seal(NONCE, b"payload", AAD))
        ct[0] ^= 0x01
        with pytest.raises(CryptoError):
            aead.open(NONCE, bytes(ct), AAD)

    def test_tamper_tag_detected(self):
        aead = HashAead(KEY)
        ct = bytearray(aead.seal(NONCE, b"payload", AAD))
        ct[-1] ^= 0x80
        with pytest.raises(CryptoError):
            aead.open(NONCE, bytes(ct), AAD)

    def test_wrong_aad_detected(self):
        aead = HashAead(KEY)
        ct = aead.seal(NONCE, b"payload", AAD)
        with pytest.raises(CryptoError):
            aead.open(NONCE, ct, b"other")

    def test_wrong_nonce_detected(self):
        aead = HashAead(KEY)
        ct = aead.seal(NONCE, b"payload", AAD)
        with pytest.raises(CryptoError):
            aead.open(b"\x02" * 12, ct, AAD)

    def test_wrong_key_detected(self):
        ct = HashAead(KEY).seal(NONCE, b"payload", AAD)
        with pytest.raises(CryptoError):
            HashAead(bytes(range(16, 32))).open(NONCE, ct, AAD)

    def test_nonce_separates_keystream(self):
        aead = HashAead(KEY)
        c1 = aead.seal(b"\x01" * 12, b"same-plaintext", b"")
        c2 = aead.seal(b"\x02" * 12, b"same-plaintext", b"")
        assert c1[:14] != c2[:14]

    def test_bad_key_length_rejected(self):
        with pytest.raises(CryptoError):
            HashAead(b"short")

    @pytest.mark.parametrize("length, digest", [
        (0, "4667f2b3d20b13ff39e4ffc994d7dd35"
            "804cc86a4fbfefee49e6ecd42d919c86"),
        (31, "4f6b7f51b833fca55d5c89e6cac6e1d6"
             "364acf8f249d916c92cf7f13e74a6356"),
        (32, "afb223cd711e791e661e8189fa090df8"
             "3cb543de398207cef5ef2658fe2dcc3c"),
        (33, "4cdc1ace81fdf1393971f866c175b49a"
             "b38db636fed23db156beb798ee612f87"),
        (1000, "972f25c4072e4a6963fbf5016e4e872a"
               "a147b0f03d9f1bcf930d694704876d12"),
    ])
    def test_seal_known_answer(self, length, digest):
        # SHA-256 of the sealed blob, recorded from the per-byte
        # implementation the wide-int XOR replaced.
        plaintext = bytes((7 * i + 3) & 0xFF for i in range(length))
        aead = HashAead(KEY)
        sealed = aead.seal(NONCE, plaintext, AAD)
        assert len(sealed) == length + HashAead.TAG_LEN
        assert hashlib.sha256(sealed).hexdigest() == digest
        assert aead.open(NONCE, sealed, AAD) == plaintext \
            == computed_open(aead, NONCE, sealed, AAD)

    def test_deterministic(self):
        assert (HashAead(KEY).seal(NONCE, b"p", AAD)
                == HashAead(KEY).seal(NONCE, b"p", AAD))
