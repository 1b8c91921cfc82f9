"""A hash-based AEAD with the :class:`~repro.crypto.gcm.AesGcm` interface.

The serving layer (`repro.host`) seals every wire datagram of every
simulated session, under a key derived for that session.  This module
provides a drop-in AEAD built from SHA-256 (encrypt-then-MAC over a
hash-counter keystream): the same ``seal``/``open``/``TAG_LEN`` surface
and the same security *model* (confidentiality + integrity + nonce-bound
AAD), at microseconds per call.

It stays next to the T-table :class:`~repro.crypto.gcm.AesGcm`, which
is still pure Python: measured on the reference box, AesGcm is about
8-16x slower per 64 B-1 KiB seal and about 75x slower per fresh key,
since each new key builds its GHASH tables.  A session key is always
fresh, so AesGcm's per-key cache cannot help here, and switching would
slow 100k-session experiments and the ``serving`` benchmark.

The **simulated** cost is unchanged: callers (``GcmChannel``,
``ReliableLink``) charge ``cost.charge_gcm`` per operation regardless of
which cipher object executes the host-side bytes, so experiment results
remain faithful to the paper's software-GCM cost model.  Anything that
pins crypto byte-for-byte (the fingerprint workloads, the minissl
stack) keeps using :class:`~repro.crypto.gcm.AesGcm`.
"""

from __future__ import annotations

import hashlib

from repro.errors import CryptoError


class HashAead:
    """SHA-256 encrypt-then-MAC AEAD, interface-compatible with AesGcm."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"bad key length {len(key)}")
        self._enc_key = hashlib.sha256(b"hash-aead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"hash-aead-mac" + key).digest()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        block = 0
        prefix = self._enc_key + nonce
        while len(out) < length:
            out += hashlib.sha256(
                prefix + block.to_bytes(4, "little")).digest()
            block += 1
        return bytes(out[:length])

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        return hashlib.sha256(
            self._mac_key + len(nonce).to_bytes(4, "little") + nonce
            + len(aad).to_bytes(4, "little") + aad
            + ciphertext).digest()[:self.TAG_LEN]

    def seal(self, nonce: bytes, plaintext: bytes,
             aad: bytes = b"") -> bytes:
        stream = self._keystream(nonce, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes,
             aad: bytes = b"") -> bytes:
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed blob shorter than the tag")
        ciphertext = sealed[:-self.TAG_LEN]
        if sealed[-self.TAG_LEN:] != self._tag(nonce, aad, ciphertext):
            raise CryptoError("hash-aead tag mismatch")
        stream = self._keystream(nonce, len(ciphertext))
        return bytes(c ^ s for c, s in zip(ciphertext, stream))
