"""A hash-based AEAD with the :class:`~repro.crypto.gcm.AesGcm` interface.

The serving layer (`repro.host`) seals every wire datagram of every
simulated session, under a key derived for that session.  This module
provides a drop-in AEAD built from SHA-256 (encrypt-then-MAC over a
hash-counter keystream): the same ``seal``/``open``/``TAG_LEN`` surface
and the same security *model* (confidentiality + integrity + nonce-bound
AAD), at microseconds per call.

It stays next to :class:`~repro.crypto.gcm.AesGcm`, which is still
pure-Python AES: measured on a 2-CPU box, AesGcm's wide-int pass leaves
it about 6-11x slower per 64 B-1 KiB seal and about 40-60x slower per
fresh key, since each new key builds its 8-bit GHASH tables (about
0.4 ms).  A session key is always fresh, so AesGcm's per-key cache
cannot help here, and switching would slow 100k-session experiments
and the ``serving`` benchmark.

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

from repro.errors import CryptoError


class HashAead:
    """SHA-256 encrypt-then-MAC AEAD, interface-compatible with AesGcm."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"bad key length {len(key)}")
        self._enc_key = hashlib.sha256(b"hash-aead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"hash-aead-mac" + key).digest()

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
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes,
             aad: bytes = b"") -> bytes:
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed blob shorter than the tag")
        ciphertext = sealed[:-self.TAG_LEN]
        if not hmac.compare_digest(sealed[-self.TAG_LEN:],
                                   self._tag(nonce, aad, ciphertext)):
            raise CryptoError("hash-aead tag mismatch")
        return self._xor_keystream(nonce, ciphertext)
