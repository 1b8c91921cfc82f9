"""Test helper: run cipher calls with the seal→open handoff emptied,
so every ``open`` takes its computing path."""

from contextlib import contextmanager

from repro.crypto import handoff


@contextmanager
def emptied():
    """Empty the handoff for the ``with`` body and restore its entries
    (and their order) afterwards, dropping whatever the body kept."""
    kept = handoff._KEPT.copy()
    handoff._KEPT.clear()
    try:
        yield
    finally:
        handoff._KEPT.clear()
        handoff._KEPT.update(kept)


def computed_open(cipher, nonce, sealed, aad=b""):
    """``cipher.open`` on its computing path."""
    with emptied():
        return cipher.open(nonce, sealed, aad)
