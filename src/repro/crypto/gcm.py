"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the software encryption the paper's baseline enclave-to-enclave
channel must run for every message crossing untrusted memory (§VI-C:
"necessitating authenticated encryption mechanisms like AES-GCM"), and the
"GCM" series of Fig. 11.

Everything that depends only on the key is built once and kept in one
bounded module-level LRU, :func:`_key_state`, keyed on ``bytes(key)``:
the AES round keys (as ints and as a numpy array), the hash subkey
``H = E_K(0^128)`` and GHASH's 16 8-bit window tables,
``tables[k][byte] = (byte << 8k)·H`` in GF(2^128).  ``AesGcm(key)`` is
a lookup; the key length is checked before anything is cached.  The
tables are built by GF(2) linearity: only the 128 basis products
``H·x^i`` are shifted, and every other entry is an XOR of them (about
0.5 ms and 0.2 MB per key).  The cached state is immutable, so every
holder of a key shares it safely.

GHASH (:func:`_ghash`) is one function over those tables: one unrolled
XOR of 16 lookups per block, no shift-and-reduce loop.  CTR mode keeps
J0 and the counter as ints and applies the keystream with one wide-int
XOR.  The keystream has two sources, chosen from the message length
alone.  Below ``_NUMPY_MIN_BLOCKS`` blocks, one
:func:`~repro.crypto.aes.encrypt_wide` pass encrypts J0 (lane 0) and
every counter block of the message as one big int, so the tag's
``E_K(J0)`` costs no block encryption of its own.  From there on every
counter block is encrypted at once by
:func:`~repro.crypto.aes.encrypt_blocks`, a few numpy calls per round,
and ``E_K(J0)`` is a one-lane wide pass.  The wide pass costs about
25 us plus 2.5 us per block and the numpy one about 0.3 ms plus 1.4 us
per block, so they cross at about 130-190 blocks on a 2-CPU box; the
threshold of 160 blocks (2.5 KiB) sits between, so every request of
the echo, YCSB, Table VI and minisvm workloads takes the wide pass and
only bulk transfers (Fig. 9's 512 KiB messages) take numpy.  Verified
against the NIST test vectors, a bit-serial reference GHASH, a
block-at-a-time reference GCM and a wide-vs-numpy keystream sweep in
``tests/crypto/test_gcm.py``.

Both ends of every simulated channel run in this process, so each seal
leaves its plaintext in the bounded seal→open handoff shared with
:class:`~repro.crypto.hashaead.HashAead` (:mod:`repro.crypto.handoff`).
The ``open`` of that very message (same key, nonce, AAD and
ciphertext, and its tag) returns the kept plaintext without a keystream
or GHASH; a tampered or evicted message, and any other key, nonce or
AAD, takes the computing ``open`` above.  On a 2-CPU box a 128 B seal
plus its open went from about 145 us to 74 us.
"""

from __future__ import annotations

import hmac
from functools import lru_cache

import numpy as np

from repro.crypto.aes import (LANE_ONES, WIDE_MAX_LANES, encrypt_blocks,
                              encrypt_wide, expand_key, wide_round_keys)
from repro.crypto.handoff import keep, take
from repro.errors import CryptoError

#: Keys whose GCM state stays cached (about 0.2 MB each).  The bound
#: keeps a workload that derives a key per session from growing the
#: process; every quick experiment uses at most four keys and every
#: benchmark workload at most two.
KEY_CACHE_SIZE = 8

#: Messages of at least this many 16-byte blocks (2.5 KiB) take the
#: numpy keystream; shorter ones one wide pass, whose lanes hold J0 and
#: at most ``_NUMPY_MIN_BLOCKS - 1`` counter blocks.
_NUMPY_MIN_BLOCKS = WIDE_MAX_LANES

_R = 0xE1000000000000000000000000000000
_CTR_MASK = 0xFFFFFFFF

# The counter blocks of a wide pass, built once for the most lanes it
# takes (J0 and ``_NUMPY_MIN_BLOCKS - 1`` blocks): the 32-bit counter
# field of every lane, and the ramp that adds ``i`` to lane ``i`` (lane
# 0 on top).  A pass over fewer lanes cuts the ramp and the lane ones
# down by a right shift.
_CTR_LANES = _CTR_MASK * LANE_ONES
_RAMP = sum(i << 128 * (_NUMPY_MIN_BLOCKS - 1 - i)
            for i in range(_NUMPY_MIN_BLOCKS))


def _window_tables(h: int) -> tuple:
    """GHASH window tables for subkey ``h``: ``tables[k][byte]`` is
    ``(byte << 8k)·H``, for byte ``k`` of the state counted from the
    least significant end."""
    # basis[j] = H·x^j; multiplying by x is a right shift in GCM's
    # reflected bit order, reduced by R when a bit falls off the end.
    basis = []
    for _ in range(128):
        basis.append(h)
        h = (h >> 1) ^ _R if h & 1 else h >> 1
    tables = []
    for k in range(16):
        # Int bit 8k + b carries the coefficient of x^(127 - 8k - b).
        table = [0]
        for b in range(8):
            v = basis[127 - 8 * k - b]
            table += [t ^ v for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _ghash(tables: tuple, data: bytes, y: int = 0) -> int:
    """GHASH ``data`` onto the state ``y`` (a short final block is
    zero-padded); ``tables`` come from :func:`_window_tables`."""
    (t0, t1, t2, t3, t4, t5, t6, t7,
     t8, t9, t10, t11, t12, t13, t14, t15) = tables
    for off in range(0, len(data), 16):
        block = data[off:off + 16]
        b = (y ^ int.from_bytes(block, "big") << (128 - 8 * len(block))) \
            .to_bytes(16, "little")
        y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
             ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
             ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
             ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
    return y


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _key_state(key: bytes) -> tuple:
    """``(128-bit round keys, GHASH tables, round keys as a numpy
    array)`` for ``key``.  A bad key length raises :class:`CryptoError`,
    and a raising call caches nothing."""
    rk = expand_key(key)
    rk_array = np.array(rk, dtype=np.uint32).reshape(-1, 4)
    rk_array.flags.writeable = False
    rk128 = wide_round_keys(rk)
    return rk128, _window_tables(encrypt_wide(rk128, 0, 1)), rk_array


def _wide_keystream(rk128: tuple, j0: int, blocks: int) -> tuple[int, int]:
    """``(E_K(J0), keystream)`` from one :func:`encrypt_wide` pass over
    J0 (lane 0) and inc32^i(J0) for i = 1 .. ``blocks``; the keystream
    is a ``128 * blocks``-bit int.  The counter field of each lane wraps
    mod 2^32 without carrying into its prefix."""
    cut = 128 * (_NUMPY_MIN_BLOCKS - 1 - blocks)
    ones = LANE_ONES >> cut
    counters = ((j0 & ~_CTR_MASK) * ones
                | ((j0 & _CTR_MASK) * ones + (_RAMP >> cut))
                & _CTR_LANES)
    out = encrypt_wide(rk128, counters, blocks + 1)
    return out >> 128 * blocks, out & ((1 << 128 * blocks) - 1)


def _numpy_keystream(rk_array: np.ndarray, j0: int, blocks: int) -> bytes:
    """E_K(inc32^i(J0)) for i = 1 .. ``blocks``, every counter block
    encrypted at once by :func:`encrypt_blocks`."""
    counters = np.empty((blocks, 4), dtype=np.uint32)
    counters[:, :3] = [(j0 >> shift) & _CTR_MASK for shift in (96, 64, 32)]
    counters[:, 3] = (np.arange(1, blocks + 1, dtype=np.uint64)
                      + (j0 & _CTR_MASK)) & _CTR_MASK
    return encrypt_blocks(rk_array, counters).astype(">u4").tobytes()


class AesGcm:
    """AES-GCM seal/open with 16-byte tags.  A 12-byte nonce is the
    counter prefix; any other length is hashed into J0."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        self._key = bytes(key)
        self._rk, self._tables, self._rk_array = _key_state(self._key)

    @property
    def key(self) -> bytes:
        """The key this cipher was built from."""
        return self._key

    def _j0(self, nonce: bytes) -> int:
        if len(nonce) == 12:
            return (int.from_bytes(nonce, "big") << 32) | 1
        if not nonce:
            # SP 800-38D: an empty IV would give every message under the
            # key the same J0, and so the same keystream.
            raise CryptoError("GCM nonce must not be empty")
        lengths = (len(nonce) * 8).to_bytes(16, "big")
        return _ghash(self._tables, lengths, _ghash(self._tables, nonce))

    def _keystream(self, j0: int, length: int) -> tuple[int, int]:
        """``(E_K(J0), keystream)``, the keystream E_K(inc32^i(J0)),
        i = 1, 2, ... cut to ``length`` bytes, as an int."""
        blocks = (length + 15) // 16
        if blocks < _NUMPY_MIN_BLOCKS:
            ekj0, stream = _wide_keystream(self._rk, j0, blocks)
        else:
            ekj0 = encrypt_wide(self._rk, j0, 1)
            stream = int.from_bytes(
                _numpy_keystream(self._rk_array, j0, blocks), "big")
        return ekj0, stream >> 8 * (16 * blocks - length)

    def _tag(self, ekj0: int, aad: bytes, ciphertext: bytes) -> bytes:
        tables = self._tables
        lengths = ((len(aad) * 8) << 64 | len(ciphertext) * 8) \
            .to_bytes(16, "big")
        s = _ghash(tables, lengths,
                   _ghash(tables, ciphertext, _ghash(tables, aad)))
        return (s ^ ekj0).to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        length = len(plaintext)
        ekj0, stream = self._keystream(self._j0(nonce), length)
        ciphertext = (int.from_bytes(plaintext, "big") ^ stream) \
            .to_bytes(length, "big")
        tag = self._tag(ekj0, aad, ciphertext)
        keep(self, nonce, aad, ciphertext, tag, plaintext)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`CryptoError` on forgery."""
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed message shorter than the tag")
        ciphertext, tag = sealed[:-self.TAG_LEN], sealed[-self.TAG_LEN:]
        kept = take(self, nonce, aad, ciphertext, tag,
                    "GCM tag verification failed")
        if kept is not None:
            return kept
        length = len(ciphertext)
        ekj0, stream = self._keystream(self._j0(nonce), length)
        if not hmac.compare_digest(self._tag(ekj0, aad, ciphertext), tag):
            raise CryptoError("GCM tag verification failed")
        return (int.from_bytes(ciphertext, "big") ^ stream) \
            .to_bytes(length, "big")
