"""Key derivation and MAC helpers.

EGETKEY on real SGX derives keys (seal key, report key, …) from fused
hardware secrets plus enclave identity (MRENCLAVE / MRSIGNER).  We model
the same structure with HKDF-like HMAC-SHA-256 derivation from a per-boot
root secret, so that: two enclaves with the same MRSIGNER can derive the
same seal key, different enclaves derive different report keys, and a
REPORT MAC'd with the target's report key verifies only on that target.

:func:`hkdf` and :func:`mac` are one-shot ``hmac.digest`` calls.
:func:`hkdf_stream` expands one key into a keystream of counter-labelled
:func:`hkdf` blocks (the EWB/ELDB page cipher) from a single HMAC state
over the fixed label, copied per block.
"""

from __future__ import annotations

import hashlib
import hmac


#: The length prefix of a 4-byte counter label.
_COUNTER_LEN = (4).to_bytes(4, "little")


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

    The HMAC state over the fixed ``label`` prefix is built once and
    copied per 32-byte block, so a 4 KiB page costs 128 HMAC
    finalisations rather than 128 full derivations.
    """
    base = hmac.new(key, _info(label), "sha256")
    blocks = []
    for counter in range((nbytes + 31) // 32):
        h = base.copy()
        h.update(_COUNTER_LEN + counter.to_bytes(4, "little"))
        blocks.append(h.digest())
    return b"".join(blocks)[:nbytes]


def mac(key: bytes, message: bytes) -> bytes:
    return hmac.digest(key, message, "sha256")


def mac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(mac(key, message), tag)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
