"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the software encryption the paper's baseline enclave-to-enclave
channel must run for every message crossing untrusted memory (§VI-C:
"necessitating authenticated encryption mechanisms like AES-GCM"), and the
"GCM" series of Fig. 11.

Everything that depends only on the key is built once and kept in one
bounded module-level LRU, :func:`_key_state`, keyed on ``bytes(key)``:
the AES round keys, the hash subkey ``H = E_K(0^128)`` and GHASH's 32
4-bit window tables, ``tables[k][nib] = (nib << 4k)·H`` in GF(2^128).
``AesGcm(key)`` is a lookup; the key length is checked before anything
is cached.  The tables are built by GF(2) linearity: only the 128 basis
products ``H·x^i`` are shifted, and every other entry is an XOR of
them.  The cached state is immutable tuples, so every holder of a key
shares it safely.

GHASH (:func:`_ghash`) is one function over those tables: two lookups
per byte of the state, no shift-and-reduce loop.  CTR mode keeps J0 and
the counter as ints, joins the keystream blocks once and applies them
with one wide-int XOR.  Verified against the NIST test vectors, the
bit-serial reference GHASH :func:`_ghash_simple` and a block-at-a-time
reference GCM in ``tests/crypto/test_gcm.py``.
"""

from __future__ import annotations

import hmac
from functools import lru_cache

from repro.crypto.aes import encrypt_int, expand_key
from repro.errors import CryptoError

#: Keys whose GCM state stays cached (about 30 KB each).  The bound keeps
#: a workload that derives a key per session from growing the process;
#: every benchmark workload uses at most two keys.
KEY_CACHE_SIZE = 32

_R = 0xE1000000000000000000000000000000
_CTR_MASK = 0xFFFFFFFF


def _gf_mult(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) (GCM bit order)."""
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


def _window_tables(h: int) -> tuple:
    """GHASH window tables for subkey ``h``, paired per state byte:
    entry ``i`` is ``(tables[2i], tables[2i + 1])``, the low and high
    nibble of byte ``i`` counted from the least significant end."""
    # basis[j] = H·x^j; multiplying by x is a right shift in GCM's
    # reflected bit order, reduced by R when a bit falls off the end.
    basis = []
    for _ in range(128):
        basis.append(h)
        h = (h >> 1) ^ _R if h & 1 else h >> 1
    tables = []
    for k in range(32):
        # Int bit 4k + b carries the coefficient of x^(127 - 4k - b).
        table = [0]
        for b in range(4):
            v = basis[127 - 4 * k - b]
            table += [t ^ v for t in table]
        tables.append(tuple(table))
    return tuple(zip(tables[0::2], tables[1::2]))


def _ghash(tables: tuple, data: bytes, y: int = 0) -> int:
    """GHASH ``data`` onto the state ``y`` (a short final block is
    zero-padded); ``tables`` come from :func:`_window_tables`."""
    for off in range(0, len(data), 16):
        block = data[off:off + 16]
        y ^= int.from_bytes(block, "big") << (128 - 8 * len(block))
        z = 0
        for (low, high), byte in zip(tables, y.to_bytes(16, "little")):
            z ^= low[byte & 15] ^ high[byte >> 4]
        y = z
    return y


def _ghash_simple(h: bytes, data: bytes) -> int:
    """Reference one-shot GHASH (bit-at-a-time); kept as the slow
    cross-check the windowed :func:`_ghash` is tested against."""
    hval = int.from_bytes(h, "big")
    y = 0
    for off in range(0, len(data), 16):
        block = data[off:off + 16].ljust(16, b"\x00")
        y = _gf_mult(y ^ int.from_bytes(block, "big"), hval)
    return y


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _key_state(key: bytes) -> tuple:
    """``(round keys, GHASH tables)`` for ``key``.  A bad key length
    raises :class:`CryptoError`, and a raising call caches nothing."""
    rk = expand_key(key)
    return rk, _window_tables(encrypt_int(rk, 0))


class AesGcm:
    """AES-GCM seal/open with 16-byte tags.  A 12-byte nonce is the
    counter prefix; any other length is hashed into J0."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        self._rk, self._tables = _key_state(bytes(key))

    def _j0(self, nonce: bytes) -> int:
        if len(nonce) == 12:
            return (int.from_bytes(nonce, "big") << 32) | 1
        lengths = (len(nonce) * 8).to_bytes(16, "big")
        return _ghash(self._tables, lengths, _ghash(self._tables, nonce))

    def _ctr(self, j0: int, data: bytes) -> bytes:
        """``data`` XOR the keystream E_K(inc32^i(J0)), i = 1, 2, ..."""
        rk, length = self._rk, len(data)
        prefix, counter = j0 & ~_CTR_MASK, j0 & _CTR_MASK
        stream = b"".join(
            encrypt_int(rk, prefix | ((counter + i) & _CTR_MASK))
            .to_bytes(16, "big")
            for i in range(1, (length + 15) // 16 + 1))
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream[:length], "big")).to_bytes(length,
                                                                   "big")

    def _tag(self, j0: int, aad: bytes, ciphertext: bytes) -> bytes:
        tables = self._tables
        lengths = ((len(aad) * 8) << 64 | len(ciphertext) * 8) \
            .to_bytes(16, "big")
        s = _ghash(tables, lengths,
                   _ghash(tables, ciphertext, _ghash(tables, aad)))
        return (s ^ encrypt_int(self._rk, j0)).to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        j0 = self._j0(nonce)
        ciphertext = self._ctr(j0, plaintext)
        return ciphertext + self._tag(j0, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`CryptoError` on forgery."""
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed message shorter than the tag")
        ciphertext, tag = sealed[:-self.TAG_LEN], sealed[-self.TAG_LEN:]
        j0 = self._j0(nonce)
        if not hmac.compare_digest(self._tag(j0, aad, ciphertext), tag):
            raise CryptoError("GCM tag verification failed")
        return self._ctr(j0, ciphertext)
