"""RSA signature and KDF tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.kdf import hkdf, hkdf_stream, mac, mac_verify, sha256
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"test-seed", bits=512)


class TestRsa:
    def test_sign_verify(self, keypair):
        sig = keypair.sign(b"message")
        assert keypair.public_key.verify(b"message", sig)

    def test_wrong_message_fails(self, keypair):
        sig = keypair.sign(b"message")
        assert not keypair.public_key.verify(b"other", sig)

    def test_wrong_key_fails(self, keypair):
        other = generate_keypair(b"other-seed", bits=512)
        sig = keypair.sign(b"message")
        assert not other.public_key.verify(b"message", sig)

    def test_tampered_signature_fails(self, keypair):
        sig = bytearray(keypair.sign(b"message"))
        sig[0] ^= 1
        assert not keypair.public_key.verify(b"message", bytes(sig))

    def test_deterministic_keygen(self):
        a = generate_keypair(b"same", bits=512)
        b = generate_keypair(b"same", bits=512)
        assert a.n == b.n and a.d == b.d

    def test_distinct_seeds_distinct_keys(self):
        a = generate_keypair(b"seed-a", bits=512)
        b = generate_keypair(b"seed-b", bits=512)
        assert a.n != b.n

    def test_pubkey_roundtrip_serialisation(self, keypair):
        raw = keypair.public_key.to_bytes()
        back = RsaPublicKey.from_bytes(raw)
        assert back == keypair.public_key

    def test_too_small_key_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair(b"x", bits=128)

    @given(st.binary(min_size=0, max_size=100))
    @settings(max_examples=10, deadline=None)
    def test_verify_roundtrip_property(self, keypair, message):
        assert keypair.public_key.verify(message, keypair.sign(message))

    def test_out_of_range_signature_rejected(self, keypair):
        n = keypair.n
        too_big = n.to_bytes((n.bit_length() + 7) // 8, "big")
        assert not keypair.public_key.verify(b"m", too_big)


class TestKdf:
    def test_hkdf_deterministic(self):
        assert hkdf(b"root", b"a", b"b") == hkdf(b"root", b"a", b"b")

    def test_hkdf_context_sensitivity(self):
        assert hkdf(b"root", b"a", b"b") != hkdf(b"root", b"ab")
        assert hkdf(b"root", b"a") != hkdf(b"other", b"a")

    def test_hkdf_output_length(self):
        assert len(hkdf(b"root", b"ctx")) == 32

    def test_mac_verify(self):
        tag = mac(b"key", b"msg")
        assert mac_verify(b"key", b"msg", tag)
        assert not mac_verify(b"key", b"other", tag)
        assert not mac_verify(b"other", b"msg", tag)

    def test_hkdf_and_mac_known_answers(self):
        """Pinned bytes: the one-shot ``hmac.digest`` form derives what
        the incremental ``hmac.new`` form did."""
        assert hkdf(b"root", b"a", b"bc").hex() == (
            "480e2ec48110b9c52152c23b1c78d2a6"
            "3898d2c6aea5188a8fbfd4ecc91e7031")
        assert mac(b"key", b"message").hex() == (
            "6e9ef29b75fffc5b7abae527d58fdadb"
            "2fe42e7219011976917343065f58ed4a")

    @pytest.mark.parametrize("nbytes", [0, 1, 32, 33, 4096])
    def test_hkdf_stream_is_concatenated_counter_hkdf(self, nbytes):
        expected = b"".join(
            hkdf(b"seal-key", b"version", counter.to_bytes(4, "little"))
            for counter in range((nbytes + 31) // 32))[:nbytes]
        assert hkdf_stream(b"seal-key", b"version", nbytes) == expected

    def test_sha256_known_answer(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")
