"""Enclave deployments of the case-study applications, each in a
monolithic (baseline SGX) and a nested layout.  The per-module diff
between the two layouts is what Table III counts as porting effort."""

from __future__ import annotations

import weakref


def handle_state(registry: dict, handle, value):
    """Store ``value`` as ``registry[id(handle)]`` until ``handle`` is
    collected.

    The ports keep each enclave's Python-side state in module-level
    dicts keyed by handle identity.  Dropping the entry with its handle
    keeps the dicts from growing with every deployment, and keeps a
    recycled ``id`` from handing a fresh enclave a dead one's state.
    """
    registry[id(handle)] = value
    weakref.finalize(handle, registry.pop, id(handle), None)
    return value
