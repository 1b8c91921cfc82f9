"""Pure-Python AES-128/192/256 block cipher (FIPS-197), in two wide forms.

The simulator cannot install external crypto packages, so the AES-GCM
baseline channel (paper Fig. 11: "Rijndael AES-GCM encryption operation
supported by Intel SGX SDK cryptography library") is built on this
from-scratch encryptor (GCM is CTR mode, so no inverse cipher).  The
S-box is computed rather than pasted so its provenance stays obvious;
round keys come from :func:`expand_key` as u32 words.

:func:`encrypt_wide` encrypts ``n`` blocks held as one ``128n``-bit
Python int ("SWAR": SIMD within a register), block 0 most significant.
SubBytes is one ``bytes.translate`` through the S-box, ShiftRows seven
mask-and-shift terms, MixColumns a handful of shifts, masks and XORs
per column word, and AddRoundKey one XOR with the round key times a
lane replicator: about 40 big-int operations per round whatever ``n``
is.  On a 2-CPU box one block costs about 25 us and each further block
about 2.5 us.  It serves GCM's short messages, GCM's hash subkey and
:class:`Aes`.

:func:`encrypt_blocks` runs the rounds on an ``(n, 4)`` uint32 numpy
array of column words instead.  The four T-tables ``_TE[i]`` fuse
SubBytes, ShiftRows and MixColumns (``_TE[0][b]`` is the column
``(2·S[b], S[b], S[b], 3·S[b])`` and each further table is that word
rotated one byte right; the final round uses S-box lookups pre-shifted
into each byte lane), so a round is one fancy index over the state's
bytes that folds in ShiftRows, one ``np.take`` into the tables stacked
to 1024 entries, and an XOR of the four lanes and the round key.  A
message costs about 0.3 ms in fixed numpy overhead but only about
1.4 us per block, so it overtakes the wide form at roughly 130-190
blocks; :data:`WIDE_MAX_LANES` (160) caps the wide form there, and GCM
switches between the two at that block count.

The *timing* of the GCM channel in benchmarks comes from the cost
model, not from how fast this Python runs.  Both forms are verified
against the FIPS-197 appendix vectors and a byte-wise reference cipher
in ``tests/crypto/test_aes.py``.
"""

from __future__ import annotations

import sys

import numpy as np

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


def wide_round_keys(rk: tuple[int, ...]) -> tuple[int, ...]:
    """The round-key words of :func:`expand_key` joined four at a time
    into one 128-bit int per round, as :func:`encrypt_wide` takes them."""
    return tuple(rk[i] << 96 | rk[i + 1] << 64 | rk[i + 2] << 32 | rk[i + 3]
                 for i in range(0, len(rk), 4))


# -- wide form: many blocks as one big int ---------------------------------

#: The most blocks one :func:`encrypt_wide` pass takes; its masks are
#: built once for this many 128-bit lanes.  Beyond about this many
#: blocks :func:`encrypt_blocks` is faster (see the module docstring),
#: so GCM switches to it here.
WIDE_MAX_LANES = 160


def _lanes(pattern: int) -> int:
    """``pattern``, a 128-bit int, repeated in each of the lanes."""
    return int.from_bytes(pattern.to_bytes(16, "big") * WIDE_MAX_LANES,
                          "big")


def _row_mask(row: int, columns: range) -> int:
    """The bytes of state row ``row`` in ``columns`` of every lane; byte
    ``row + 4c`` of a block is its ``row + 4c``-th most significant."""
    return _lanes(sum(0xFF << 8 * (15 - row - 4 * c) for c in columns))


#: ``0x…01`` once per lane: a 128-bit int times this fills every lane.
LANE_ONES = _lanes(1)
_PER_WORD = _lanes(0x00000001000000010000000100000001)
_PER_BYTE = _lanes(0x01010101010101010101010101010101)
#: MixColumns' masks: the top three and bottom one bytes of every
#: column word, its top and bottom halves, the low seven bits of every
#: byte and the low bit of every byte.
_MIX_MASKS = (0xFFFFFF00 * _PER_WORD, 0xFF * _PER_WORD,
              0xFFFF0000 * _PER_WORD, 0xFFFF * _PER_WORD,
              0x7F * _PER_BYTE, _PER_BYTE)
#: ShiftRows rotates row ``r`` left by ``r`` columns: its bytes in
#: columns ``>= r`` move left ``32r`` bits and the rest right
#: ``128 - 32r`` bits.  Row 0 stays.
_ROW0 = _row_mask(0, range(4))
_SHIFT_TERMS = tuple((_row_mask(r, range(r, 4)), 32 * r,
                      _row_mask(r, range(r)), 128 - 32 * r)
                     for r in range(1, 4))
_SBOX_BYTES = bytes(SBOX)


def encrypt_wide(rk: tuple[int, ...], x: int, n: int) -> int:
    """Encrypt ``n`` blocks held as one ``128n``-bit big-endian int
    (block 0 most significant) under the 128-bit round keys of
    :func:`wide_round_keys`; returns the ciphertext the same way.

    Every step works on all blocks at once: SubBytes is one
    ``bytes.translate`` through the S-box, ShiftRows seven
    mask-and-shift terms, MixColumns ``xtime(u) ^ r1 ^ rot16(u)`` with
    ``r1`` the state rotated one byte within each column and ``u = s ^
    r1``, and AddRoundKey an XOR with the key times a lane replicator,
    so a round is about 40 big-int operations whatever ``n`` is."""
    if not 0 < n <= WIDE_MAX_LANES:
        raise CryptoError(f"encrypt_wide takes 1..{WIDE_MAX_LANES} blocks")
    # An AND costs the length of its shorter operand and every mask
    # repeats per lane, so the masks apply at full width; only the
    # replicator, which multiplies, is cut to ``n`` lanes.
    rep = LANE_ONES >> 128 * (WIDE_MAX_LANES - n)
    row0 = _ROW0
    (m1l, s1l, m1r, s1r), (m2l, s2l, m2r, s2r), (m3l, s3l, m3r, s3r) = \
        _SHIFT_TERMS
    hi3, lo1, hi2, lo2, low7, bit0 = _MIX_MASKS
    size = 16 * n
    sbox = _SBOX_BYTES
    from_bytes = int.from_bytes
    x ^= rk[0] * rep
    last = len(rk) - 1
    for i in range(1, last + 1):
        s = from_bytes(x.to_bytes(size, "big").translate(sbox), "big")
        s = ((s & row0)
             | (s & m1l) << s1l | (s & m1r) >> s1r
             | (s & m2l) << s2l | (s & m2r) >> s2r
             | (s & m3l) << s3l | (s & m3r) >> s3r)
        if i < last:
            # MixColumns: with r1 the state rotated left one byte in
            # each column and u = s ^ r1, byte j of a column becomes
            # xtime(u_j) ^ r1_j ^ u_(j+2) = 2a_j ^ 3a_(j+1) ^ a_(j+2)
            # ^ a_(j+3).
            r1 = (s << 8) & hi3 | (s >> 24) & lo1
            u = s ^ r1
            s = (((u & low7) << 1) ^ ((u >> 7) & bit0) * 0x1B
                 ^ r1 ^ (u << 16) & hi2 ^ (u >> 16) & lo2)
        x = s ^ rk[i] * rep
    return x


# -- batched form: many blocks per numpy call ------------------------------

#: The four round tables and the four pre-shifted S-box lanes, each
#: stacked into one 1024-entry u32 array, so one ``np.take`` does every
#: lookup of a round; lane ``k`` (table ``k``) starts at ``256 * k``.
_TE_STACK = np.array(_TE, dtype=np.uint32).ravel()
_S_STACK = np.array((_S24, _S16, _S8, SBOX), dtype=np.uint32).ravel()
_LANE_BASE = np.repeat(np.arange(0, 1024, 256, dtype=np.uint16), 4)
# Memory offset of a u32's bytes, most significant first.
_BYTE_AT = (3, 2, 1, 0) if sys.byteorder == "little" else (0, 1, 2, 3)
#: ShiftRows as one gather over the (n, 16) byte view of the state:
#: entry ``4k + j`` is byte ``k`` (0 = most significant) of word
#: ``(j + k) % 4``, the byte lane ``k`` of output word ``j`` looks up.
_SHIFT_ROWS = np.array([4 * ((j + k) % 4) + _BYTE_AT[k]
                        for k in range(4) for j in range(4)], dtype=np.intp)


def _round(table: np.ndarray, state: np.ndarray,
           key: np.ndarray) -> np.ndarray:
    lanes = np.take(table, state.view(np.uint8)[:, _SHIFT_ROWS]
                    + _LANE_BASE).reshape(-1, 4, 4)
    return lanes[:, 0] ^ lanes[:, 1] ^ lanes[:, 2] ^ lanes[:, 3] ^ key


def encrypt_blocks(rk: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Encrypt ``n`` blocks at once.  ``blocks`` is an ``(n, 4)`` uint32
    array of column words (word 0 holds a block's first four bytes,
    big-endian) and ``rk`` the round keys of :func:`expand_key` as a
    ``(rounds + 1, 4)`` uint32 array; returns ciphertext the same way.
    Each round is one numpy gather through the T-tables for all blocks."""
    state = np.ascontiguousarray(blocks ^ rk[0])
    for key in rk[1:-1]:
        state = _round(_TE_STACK, state, key)
    return _round(_S_STACK, state, rk[-1])


class Aes:
    """AES block cipher with 128/192/256-bit keys."""

    def __init__(self, key: bytes) -> None:
        self._round_keys = wide_round_keys(expand_key(key))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return encrypt_wide(self._round_keys, int.from_bytes(block, "big"),
                            1).to_bytes(16, "big")
