"""NASSO — associating inner and outer enclaves (paper §IV-B/§IV-C).

``NASSO`` is the kernel-privilege leaf that turns two independently
created, initialised enclaves into an inner/outer pair.  Its security job
is *mutual authentication by measurement*: each side's signed image names
the measurements it is willing to pair with, and the hardware compares the
live SECS values of the counterpart against those expectations before
writing the association fields:

1. Both enclaves must be fully initialised (post-EINIT).
2. Read MRENCLAVE and MRSIGNER from each SECS.
3. Validate the outer enclave's digests against the inner enclave's
   expected-peer list, **and vice versa** ("and vice versa", §IV-B).
4. On success, set ``OuterEID`` in the inner SECS and append the inner's
   EID to ``InnerEIDs`` in the outer SECS.

Rejection raises :class:`~repro.errors.MeasurementMismatch`, which is the
mechanism behind §VII-B's "secure binding of inner and outer enclaves":
an unauthorized (e.g. attacker-supplied) inner enclave never gets the
outer's EID written into its SECS, so the access automaton never lets it
see outer memory.

Constraints enforced (paper §IV-A): an inner enclave has a single outer
in the evaluated model (``allow_lattice=False``); an outer can have any
number of inners; both enclaves must live in the same process (the same
host address space maps both ELRANGEs); self- and cyclic associations are
rejected.
"""

from __future__ import annotations

from repro.errors import (EnclaveStateError, GeneralProtectionFault,
                          MeasurementMismatch)
from repro.sgx.constants import ST_INITIALIZED
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs
from repro.sgx.sigstruct import peer_matches


def _expectation_met(wanting: Secs, counterpart: Secs) -> bool:
    """Does ``wanting``'s signed expected-peer list accept ``counterpart``?"""
    return any(peer_matches(expected, counterpart.mrenclave,
                            counterpart.mrsigner)
               for expected in wanting.expected_peer_digests)


def _would_cycle(machine: Machine, inner: Secs, outer: Secs) -> bool:
    """Would making ``outer`` an outer of ``inner`` close a nesting cycle?"""
    seen: set[int] = set()
    stack = list(outer.outer_eids)
    while stack:
        eid = stack.pop()
        if eid == inner.eid:
            return True
        if eid in seen:
            continue
        seen.add(eid)
        stack.extend(machine.enclave(eid).outer_eids)
    return False


def nasso(machine: Machine, inner: Secs, outer: Secs, *,
          allow_lattice: bool = False) -> None:
    """Associate ``inner`` as an inner enclave of ``outer``.

    ``allow_lattice=True`` enables the §VIII extension where one inner
    enclave binds multiple outer enclaves; the default enforces the
    single-outer-per-inner model the paper evaluates.
    """
    if inner.eid == outer.eid:
        raise GeneralProtectionFault("an enclave cannot nest inside itself")
    if inner.state != ST_INITIALIZED or outer.state != ST_INITIALIZED:
        raise EnclaveStateError("NASSO requires both enclaves initialised")
    if inner.outer_eids and not allow_lattice:
        raise GeneralProtectionFault(
            "inner enclave already has an outer enclave "
            "(single-outer model)")
    if outer.eid in inner.outer_eids:
        raise GeneralProtectionFault("association already exists")
    if _would_cycle(machine, inner, outer):
        raise GeneralProtectionFault("association would create a cycle")

    # Mutual measurement validation (step 3).
    if not _expectation_met(inner, outer):
        raise MeasurementMismatch(
            "inner enclave does not recognise this outer enclave's "
            "measurement/signer")
    if not _expectation_met(outer, inner):
        raise MeasurementMismatch(
            "outer enclave does not recognise this inner enclave's "
            "measurement/signer")

    # Step 4: update both SECSes.
    inner.outer_eids.append(outer.eid)
    if inner.outer_eid == 0:
        inner.outer_eid = outer.eid
    outer.inner_eids.append(inner.eid)
    machine.cost.charge_event("nasso")
    machine.log_transition("NASSO", eid=inner.eid, outer=outer.eid)


def disassociate(machine: Machine, inner: Secs, outer: Secs) -> None:
    """Tear an association down (used at enclave destruction).

    Any core still executing the inner enclave would keep validated outer
    translations in its TLB, so all TLBs are shot down first.
    """
    if outer.eid not in inner.outer_eids:
        raise GeneralProtectionFault("no such association")
    machine.flush_all_tlbs()
    inner.outer_eids.remove(outer.eid)
    if inner.outer_eid == outer.eid:
        inner.outer_eid = inner.outer_eids[0] if inner.outer_eids else 0
    outer.inner_eids.remove(inner.eid)
