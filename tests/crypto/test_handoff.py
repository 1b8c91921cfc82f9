"""The seal→open handoff under AesGcm and HashAead: a differential
against the same ciphers with the handoff emptied, the hit path, and
the bound."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import handoff
from repro.crypto.gcm import AesGcm
from repro.crypto.handoff import HANDOFF_SIZE
from repro.crypto.hashaead import HashAead
from repro.errors import CryptoError
from tests.crypto.handoff_helpers import emptied

CIPHERS = (AesGcm, HashAead)
KEYS = (bytes(range(16)), bytes(range(16, 32)))
#: Two of each, so sequences reuse a nonce under a key and AAD.
NONCES = (b"nonce-000001", b"nonce-000002")
AADS = (b"", b"hdr")
#: How an open departs from the message as sealed.
TAMPERS = ("none", "ciphertext", "tag", "aad", "nonce", "key", "cipher")


@pytest.fixture(autouse=True)
def empty_handoff():
    with emptied():
        yield


def _outcome(call):
    """What a call returns or raises, comparable across the two paths."""
    try:
        result = call()
    except CryptoError as exc:
        return "raises", str(exc)
    return "returns", type(result), bytes(result)


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _tampered(message, how: str):
    cls, key, nonce, aad, sealed = message
    if how == "ciphertext" and len(sealed) > cls.TAG_LEN:
        sealed = _flip(sealed, 0)
    elif how == "tag":
        sealed = _flip(sealed, -1)
    elif how == "aad":
        aad += b"!"
    elif how == "nonce":
        nonce = NONCES[1 - NONCES.index(nonce)]
    elif how == "key":
        key = KEYS[1 - KEYS.index(key)]
    elif how == "cipher":
        cls = CIPHERS[1 - CIPHERS.index(cls)]
    return cls, key, nonce, aad, sealed


_SEALS = st.tuples(st.just("seal"), st.sampled_from(CIPHERS),
                   st.sampled_from(KEYS), st.sampled_from(NONCES),
                   st.sampled_from(AADS), st.binary(max_size=40),
                   st.booleans())
_OPENS = st.tuples(st.just("open"), st.integers(0, 63),
                   st.sampled_from(TAMPERS))
_FLOODS = st.tuples(st.just("flood"), st.sampled_from(CIPHERS))


class TestDifferential:
    @given(st.lists(st.one_of(_SEALS, _OPENS, _OPENS, _FLOODS),
                    max_size=24))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_computing_ciphers(self, ops):
        """Every seal and open returns, or raises, what the computing
        path does: across both ciphers and keys, tampered ciphertexts
        and tags, wrong AADs, nonces, keys and ciphers, nonce reuse,
        repeated opens, plaintexts mutated after their seal, and
        floods of ten times the bound of unopened seals."""
        with emptied():
            wire = []
            for op in ops:
                if op[0] == "seal":
                    _, cls, key, nonce, aad, data, mutable = op
                    plaintext = bytearray(data) if mutable else data
                    sealed = cls(key).seal(nonce, plaintext, aad)
                    with emptied():
                        assert sealed == cls(key).seal(nonce, data, aad)
                    if mutable:
                        plaintext[:] = b"mutated" + bytes(plaintext)
                    wire.append((cls, key, nonce, aad, sealed))
                elif op[0] == "open" and wire:
                    cls, key, nonce, aad, sealed = _tampered(
                        wire[op[1] % len(wire)], op[2])
                    got = _outcome(lambda: cls(key).open(nonce, sealed,
                                                         aad))
                    with emptied():
                        want = _outcome(lambda: cls(key).open(
                            nonce, sealed, aad))
                    assert got == want
                elif op[0] == "flood":
                    cipher = op[1](KEYS[0])
                    for i in range(10 * HANDOFF_SIZE):
                        cipher.seal(i.to_bytes(12, "big"), b"flood",
                                    b"flood")
                assert len(handoff._KEPT) <= HANDOFF_SIZE


@pytest.mark.parametrize("cls, computing", [
    (AesGcm, "_keystream"), (HashAead, "_xor_keystream")])
class TestHitPath:
    def test_open_of_a_fresh_seal_computes_nothing(self, cls, computing,
                                                   monkeypatch):
        cipher = cls(KEYS[0])
        sealed = cipher.seal(NONCES[0], b"payload", b"hdr")

        def refuse(*args):
            raise AssertionError("the open recomputed its keystream")

        monkeypatch.setattr(cls, computing, refuse)
        assert cipher.open(NONCES[0], sealed, b"hdr") == b"payload"
        # The entry is used up: a second open computes.
        with pytest.raises(AssertionError):
            cipher.open(NONCES[0], sealed, b"hdr")

    def test_tampered_tag_keeps_the_entry(self, cls, computing):
        cipher = cls(KEYS[0])
        sealed = cipher.seal(NONCES[0], b"payload")
        with pytest.raises(CryptoError) as hit:
            cipher.open(NONCES[0], _flip(sealed, -1))
        with emptied(), pytest.raises(CryptoError) as computed:
            cipher.open(NONCES[0], _flip(sealed, -1))
        assert str(hit.value) == str(computed.value)
        assert len(handoff._KEPT) == 1
        assert cipher.open(NONCES[0], sealed) == b"payload"
        assert len(handoff._KEPT) == 0


class TestEntries:
    def test_raising_seal_keeps_nothing(self):
        with pytest.raises(CryptoError):
            AesGcm(KEYS[0]).seal(b"", b"payload")
        assert len(handoff._KEPT) == 0

    @pytest.mark.parametrize("cls", CIPHERS)
    def test_another_key_or_cipher_never_hits(self, cls):
        sealed = cls(KEYS[0]).seal(NONCES[0], b"payload")
        other_cipher = CIPHERS[1 - CIPHERS.index(cls)]
        for other in (cls(KEYS[1]), other_cipher(KEYS[0])):
            with pytest.raises(CryptoError):
                other.open(NONCES[0], sealed)
        assert len(handoff._KEPT) == 1

    def test_kept_plaintext_is_an_immutable_copy(self):
        plaintext = bytearray(b"payload")
        cipher = HashAead(KEYS[0])
        sealed = cipher.seal(NONCES[0], plaintext)
        plaintext[0] ^= 0xFF
        opened = cipher.open(NONCES[0], sealed)
        assert type(opened) is bytes and opened == b"payload"

    def test_bound_evicts_the_least_recently_sealed(self):
        cipher = HashAead(KEYS[0])
        first = cipher.seal(NONCES[0], b"first")
        for i in range(10 * HANDOFF_SIZE):
            cipher.seal(i.to_bytes(12, "big"), b"x")
        assert len(handoff._KEPT) == HANDOFF_SIZE
        slots = [slot[2] for slot in handoff._KEPT]
        assert slots == [i.to_bytes(12, "big") for i in
                         range(9 * HANDOFF_SIZE, 10 * HANDOFF_SIZE)]
        # Evicted: the open computes, and still opens.
        assert cipher.open(NONCES[0], first) == b"first"

    def test_resealing_a_slot_makes_it_the_newest(self):
        cipher = HashAead(KEYS[0])
        for i in range(HANDOFF_SIZE):
            cipher.seal(i.to_bytes(12, "big"), b"x")
        cipher.seal((0).to_bytes(12, "big"), b"y")
        cipher.seal(NONCES[0], b"z")
        assert (0).to_bytes(12, "big") in [slot[2] for slot in
                                           handoff._KEPT]

    def test_full_handoff_memory_is_bounded(self):
        """Ten times the bound of 1 KiB seals hold about the bound's
        worth: ciphertext, tag and plaintext per entry."""
        cipher = HashAead(KEYS[0])
        tracemalloc.start()
        try:
            for i in range(10 * HANDOFF_SIZE):
                cipher.seal(i.to_bytes(12, "big"), bytes([i % 256]) * 1024)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < HANDOFF_SIZE * 3 * 1024
