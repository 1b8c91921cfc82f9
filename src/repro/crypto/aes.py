"""Pure-Python AES-128/192/256 block cipher (FIPS-197), T-table form.

The simulator cannot install external crypto packages, so the AES-GCM
baseline channel (paper Fig. 11: "Rijndael AES-GCM encryption operation
supported by Intel SGX SDK cryptography library") is built on this
from-scratch encryptor (GCM is CTR mode, so no inverse cipher).

The state is four 32-bit column words.  A full round is sixteen lookups
in four 256-entry u32 tables ``_TE[i]`` that fuse SubBytes, ShiftRows
and MixColumns: ``_TE[0][b]`` is the column ``(2·S[b], S[b], S[b],
3·S[b])`` and each further table is that word rotated one byte right.
The tables are derived at import from the S-box, which is itself
computed rather than pasted so its provenance stays obvious.  The final
round (no MixColumns) uses S-box lookups pre-shifted into each byte
lane.  Round keys are u32 words.

:func:`encrypt_int` is the int-in/int-out entry point GCM uses on its
cached key schedules; :class:`Aes` keeps the bytes interface.  The
*timing* of the GCM channel in benchmarks comes from the cost model,
not from how fast this Python runs.  Verified against the FIPS-197
appendix vectors and a byte-wise reference cipher in
``tests/crypto/test_aes.py``.
"""

from __future__ import annotations

from repro.errors import CryptoError

# -- S-box construction (computed, not pasted, to keep provenance obvious) --

def _build_sbox() -> list[int]:
    # Multiplicative inverse in GF(2^8) via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inv(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = [0] * 256
    for b in range(256):
        c = inv(b)
        # Affine transformation.
        res = 0
        for i in range(8):
            bit = ((c >> i) & 1) ^ ((c >> ((i + 4) % 8)) & 1) \
                ^ ((c >> ((i + 5) % 8)) & 1) ^ ((c >> ((i + 6) % 8)) & 1) \
                ^ ((c >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1)
            res |= bit << i
        sbox[b] = res
    return sbox


SBOX = _build_sbox()
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
        0x6C, 0xD8, 0xAB, 0x4D]
ROUNDS = {16: 10, 24: 12, 32: 14}


def _build_te() -> tuple[tuple[int, ...], ...]:
    te0 = []
    for s in SBOX:
        s2 = ((s << 1) ^ (0x11B if s & 0x80 else 0)) & 0xFF
        te0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    tables = [te0]
    for _ in range(3):
        tables.append([(w >> 8) | ((w & 0xFF) << 24) for w in tables[-1]])
    return tuple(tuple(table) for table in tables)


_TE = _build_te()
#: SBOX pre-shifted into byte lanes 3, 2 and 1 for the final round.
_S24 = tuple(s << 24 for s in SBOX)
_S16 = tuple(s << 16 for s in SBOX)
_S8 = tuple(s << 8 for s in SBOX)


def _sub_word(word: int) -> int:
    return (_S24[word >> 24] | _S16[(word >> 16) & 0xFF]
            | _S8[(word >> 8) & 0xFF] | SBOX[word & 0xFF])


def expand_key(key: bytes) -> tuple[int, ...]:
    """FIPS-197 key expansion: ``4 * (rounds + 1)`` u32 round-key words."""
    if len(key) not in ROUNDS:
        raise CryptoError(f"bad AES key length {len(key)}")
    nk = len(key) // 4
    words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (ROUNDS[len(key)] + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(((temp << 8) & 0xFFFFFFFF) | (temp >> 24)) \
                ^ (RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return tuple(words)


def encrypt_int(rk: tuple[int, ...], block: int) -> int:
    """Encrypt one block, given as a 128-bit big-endian int, under the
    round-key words ``rk`` from :func:`expand_key`."""
    te0, te1, te2, te3 = _TE
    s0 = (block >> 96) ^ rk[0]
    s1 = ((block >> 64) & 0xFFFFFFFF) ^ rk[1]
    s2 = ((block >> 32) & 0xFFFFFFFF) ^ rk[2]
    s3 = (block & 0xFFFFFFFF) ^ rk[3]
    last = len(rk) - 4
    for i in range(4, last, 4):
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
            ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[i],
            te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
            ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[i + 1],
            te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
            ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[i + 2],
            te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
            ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[i + 3])
    b3, b2, b1, b0 = _S24, _S16, _S8, SBOX
    return (((b3[s0 >> 24] | b2[(s1 >> 16) & 0xFF]
              | b1[(s2 >> 8) & 0xFF] | b0[s3 & 0xFF]) ^ rk[last]) << 96
            | ((b3[s1 >> 24] | b2[(s2 >> 16) & 0xFF]
                | b1[(s3 >> 8) & 0xFF] | b0[s0 & 0xFF]) ^ rk[last + 1]) << 64
            | ((b3[s2 >> 24] | b2[(s3 >> 16) & 0xFF]
                | b1[(s0 >> 8) & 0xFF] | b0[s1 & 0xFF]) ^ rk[last + 2]) << 32
            | ((b3[s3 >> 24] | b2[(s0 >> 16) & 0xFF]
                | b1[(s1 >> 8) & 0xFF] | b0[s2 & 0xFF]) ^ rk[last + 3]))


class Aes:
    """AES block cipher with 128/192/256-bit keys."""

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return encrypt_int(self._round_keys,
                           int.from_bytes(block, "big")).to_bytes(16, "big")
