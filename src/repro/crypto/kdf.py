"""Key derivation and MAC helpers.

EGETKEY on real SGX derives keys (seal key, report key, …) from fused
hardware secrets plus enclave identity (MRENCLAVE / MRSIGNER).  We model
the same structure with HKDF-like HMAC-SHA-256 derivation from a per-boot
root secret, so that: two enclaves with the same MRSIGNER can derive the
same seal key, different enclaves derive different report keys, and a
REPORT MAC'd with the target's report key verifies only on that target.

:func:`hkdf` and :func:`mac` are one-shot ``hmac.digest`` calls.
:func:`hkdf_stream` expands one key into a keystream of counter-labelled
:func:`hkdf` blocks (the EWB/ELDB page cipher).

Hot loops do not build an ``hmac.HMAC`` object per message.
:func:`hmac_pads` turns a key into the two SHA-256 states of RFC 2104:
the inner state has absorbed ``key ^ 0x36…``, the outer ``key ^ 0x5c…``.
One MAC is then ``outer.copy()`` updated with the digest of
``inner.copy()`` updated with the message: six C calls, written inline
by each caller (``hkdf_stream`` here, the MEE line MAC), with no Python
frame per message.  The bytes are those of ``hmac.digest``.
"""

from __future__ import annotations

import hashlib
import hmac


#: The length prefix of a 4-byte counter label.
_COUNTER_LEN = (4).to_bytes(4, "little")

#: The length-prefixed counter labels of one page of keystream (128
#: blocks of 32 B), built once instead of per block.
_PAGE_COUNTERS = tuple(_COUNTER_LEN + counter.to_bytes(4, "little")
                       for counter in range(4096 // 32))


#: RFC 2104 pad translations of a zero-padded 64-byte key.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_SHA256_BLOCK = 64


def hmac_pads(key: bytes) -> tuple[hashlib._Hash, hashlib._Hash]:
    """The inner and outer SHA-256 states of HMAC-SHA-256 under ``key``
    (hashed first if longer than a block, then zero-padded to one)."""
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


def _info(*context: bytes) -> bytes:
    return b"".join(len(part).to_bytes(4, "little") + part
                    for part in context)


def hkdf(root: bytes, *context: bytes) -> bytes:
    """Derive a 32-byte key from a root secret and context labels:
    HMAC-SHA-256 over each label prefixed by its 4-byte length."""
    return hmac.digest(root, _info(*context), "sha256")


def hkdf_stream(key: bytes, label: bytes, nbytes: int) -> bytes:
    """``nbytes`` of keystream: ``hkdf(key, label, counter)`` for the
    4-byte little-endian counters 0, 1, ... concatenated and truncated.

    The pad states are built once, the inner one over the fixed
    ``label`` prefix, and both are copied per 32-byte block, so a 4 KiB
    page costs 128 HMAC finalisations rather than 128 full derivations.
    The counter labels of the first page are precomputed
    (``_PAGE_COUNTERS``) and the two ``copy`` methods are bound once:
    per block that leaves the five hashlib calls of the HMAC itself.
    """
    inner, outer = hmac_pads(key)
    inner.update(_info(label))
    inner_copy, outer_copy = inner.copy, outer.copy
    nblocks = (nbytes + 31) // 32
    counters = (_PAGE_COUNTERS[:nblocks] if nblocks <= len(_PAGE_COUNTERS)
                else [_COUNTER_LEN + counter.to_bytes(4, "little")
                      for counter in range(nblocks)])
    blocks = []
    for label_bytes in counters:
        i = inner_copy()
        i.update(label_bytes)
        o = outer_copy()
        o.update(i.digest())
        blocks.append(o.digest())
    return b"".join(blocks)[:nbytes]


def mac(key: bytes, message: bytes) -> bytes:
    return hmac.digest(key, message, "sha256")


def mac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(mac(key, message), tag)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
