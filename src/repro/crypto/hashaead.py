"""A hash-based AEAD with the :class:`~repro.crypto.gcm.AesGcm` interface.

The serving layer (`repro.host`) seals every wire datagram of every
simulated session, under a key derived for that session.  This module
provides a drop-in AEAD built from SHA-256 (encrypt-then-MAC over a
hash-counter keystream): the same ``seal``/``open``/``TAG_LEN`` surface
and the same security *model* (confidentiality + integrity + nonce-bound
AAD), at microseconds per call.

It stays next to :class:`~repro.crypto.gcm.AesGcm`, which is still
pure-Python AES: measured on a 2-CPU box, a warm-key AesGcm seal takes
about 53-380 us against 9-41 us here for 64 B-1 KiB (6-9x), and a
fresh-key one about 0.6-1.0 ms against 11-44 us (23-55x), since each new
key builds its 8-bit GHASH tables (about 0.55 ms).  A session key is
always fresh, so AesGcm's per-key cache cannot help here, and switching
would slow 100k-session experiments and the ``serving`` benchmark.

Seal and open share AesGcm's seal→open handoff
(:mod:`repro.crypto.handoff`): the open of a message this process just
sealed returns the kept plaintext once the ciphertext matches and the
tag compares equal, without rehashing; any other open computes below.

The **simulated** cost is unchanged: callers (``GcmChannel``,
``ReliableLink``) charge ``cost.charge_gcm`` per operation regardless of
which cipher object executes the host-side bytes, so experiment results
remain faithful to the paper's software-GCM cost model.  Anything that
pins crypto byte-for-byte (the fingerprint workloads, the minissl
stack) keeps using :class:`~repro.crypto.gcm.AesGcm`.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.handoff import keep, take
from repro.errors import CryptoError


class HashAead:
    """SHA-256 encrypt-then-MAC AEAD, interface-compatible with AesGcm."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"bad key length {len(key)}")
        self._key = bytes(key)
        self._enc_key = hashlib.sha256(b"hash-aead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"hash-aead-mac" + key).digest()

    @property
    def key(self) -> bytes:
        """The key this cipher was built from."""
        return self._key

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR SHA-256(enc_key || nonce || i), i = 0, 1, ...
        (i as 4 little-endian bytes), as one wide-int XOR."""
        length = len(data)
        prefix = hashlib.sha256(self._enc_key + nonce)
        stream = bytearray()
        for block in range((length + 31) // 32):
            h = prefix.copy()
            h.update(block.to_bytes(4, "little"))
            stream += h.digest()
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream[:length], "big")).to_bytes(length,
                                                                   "big")

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        return hashlib.sha256(
            self._mac_key + len(nonce).to_bytes(4, "little") + nonce
            + len(aad).to_bytes(4, "little") + aad
            + ciphertext).digest()[:self.TAG_LEN]

    def seal(self, nonce: bytes, plaintext: bytes,
             aad: bytes = b"") -> bytes:
        ciphertext = self._xor_keystream(nonce, plaintext)
        tag = self._tag(nonce, aad, ciphertext)
        keep(self, nonce, aad, ciphertext, tag, plaintext)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes,
             aad: bytes = b"") -> bytes:
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed blob shorter than the tag")
        ciphertext, tag = sealed[:-self.TAG_LEN], sealed[-self.TAG_LEN:]
        kept = take(self, nonce, aad, ciphertext, tag,
                    "hash-aead tag mismatch")
        if kept is not None:
            return kept
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise CryptoError("hash-aead tag mismatch")
        return self._xor_keystream(nonce, ciphertext)
