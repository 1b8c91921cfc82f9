"""Pure-Python AES-128/192/256 block cipher (FIPS-197).

The simulator cannot install external crypto packages, so the AES-GCM
baseline channel (paper Fig. 11: "Rijndael AES-GCM encryption operation
supported by Intel SGX SDK cryptography library") is built on this
from-scratch implementation.  It is a straightforward table-driven
encryptor (GCM is CTR mode, so no inverse cipher) — correctness over
speed; the *timing* of the GCM channel in benchmarks comes from the
cost model, not from how fast this Python runs.  Verified against the
FIPS-197 appendix vectors in ``tests/crypto/test_aes.py``.
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


def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


class Aes:
    """AES block cipher with 128/192/256-bit keys."""

    ROUNDS = {16: 10, 24: 12, 32: 14}

    def __init__(self, key: bytes) -> None:
        if len(key) not in self.ROUNDS:
            raise CryptoError(f"bad AES key length {len(key)}")
        self.nr = self.ROUNDS[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self.nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into per-round 16-byte keys (column-major state order).
        return [sum(words[4 * r:4 * r + 4], []) for r in range(self.nr + 1)]

    # State is a flat list of 16 bytes in column-major order (as the spec).
    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int], box: list[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.nr):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.nr])
        return bytes(state)
