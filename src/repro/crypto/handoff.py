"""The in-process seal→open handoff shared by every AEAD in the package.

Both ends of each simulated channel run in one Python process, so the
``open`` that receives a message usually runs moments after the
``seal`` that made it, over the same key, nonce, AAD and ciphertext.
The keystream, the tag and the plaintext are pure functions of those
(plus the cipher), so recomputing them on the open side repeats work
the seal side has just done.

After a successful seal, :func:`keep` stores ``(cipher class, key,
nonce, AAD) → (ciphertext, tag, plaintext)``; a seal that raises keeps
nothing.  :func:`take` is the open side: when the kept ciphertext
equals the received one it compares the tags with
:func:`hmac.compare_digest`, raises the cipher's own forgery error on
a mismatch (the entry stays) and on a match pops the entry and returns
the kept plaintext.  Anything else is a miss, and the cipher computes
its ``open`` as it would without the handoff.  So a hit returns exactly
the bytes, and raises on exactly the inputs, of the computing path: a
tampered ciphertext misses, a tampered tag fails the compare, and a
different key, nonce, AAD or cipher never shares a slot.  Every
simulated cost (``charge_gcm``) stays in the callers, so the simulated
clock never sees the handoff.  It lives in this module rather than
in a cipher object because the two ends never share one: the minissl
record layer builds a fresh ``AesGcm`` per record, and each channel end
builds its own.

The bound is :data:`HANDOFF_SIZE` entries, evicting the least recently
sealed.  An entry holds its ciphertext, tag and plaintext, so it costs
about twice its message plus about 0.3 KB.  The largest message the
suite seals is one of Fig. 9's full-run matrices (about 970 KiB), so
the worst case is about 62 MB; Fig. 9 opens each of them at once, and
the handoff holds one at a time.  The largest bench message is svm's
1.2 KiB, about 85 KB for a full handoff.  The DB service seals value
cells that are never opened, so under YCSB the handoff stays full.
"""

from __future__ import annotations

import hmac
from collections import OrderedDict

from repro.errors import CryptoError

#: Sealed messages kept for their open, least recently sealed evicted.
HANDOFF_SIZE = 32

_KEPT: OrderedDict = OrderedDict()


def _slot(cipher, nonce, aad) -> tuple:
    return type(cipher), cipher.key, bytes(nonce), bytes(aad)


def keep(cipher, nonce, aad, ciphertext: bytes, tag: bytes,
         plaintext) -> None:
    """Keep a successful ``cipher.seal`` for the open of its message."""
    slot = _slot(cipher, nonce, aad)
    _KEPT[slot] = (ciphertext, tag, bytes(plaintext))
    _KEPT.move_to_end(slot)
    if len(_KEPT) > HANDOFF_SIZE:
        _KEPT.popitem(last=False)


def take(cipher, nonce, aad, ciphertext, tag,
         forgery: str) -> bytes | None:
    """The plaintext kept for this open if ``cipher`` sealed
    ``ciphertext`` under ``nonce`` and ``aad`` and ``tag`` is its tag
    (the entry is used up), ``None`` if no such seal is kept; a wrong
    tag raises ``CryptoError(forgery)``."""
    slot = _slot(cipher, nonce, aad)
    entry = _KEPT.get(slot)
    if entry is None or entry[0] != ciphertext:
        return None
    if not hmac.compare_digest(entry[1], tag):
        raise CryptoError(forgery)
    del _KEPT[slot]
    return entry[2]
