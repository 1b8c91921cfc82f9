"""SGX Enclave Control Structure (SECS) — including the nested-enclave
extension fields of paper Fig. 3.

A SECS is itself stored in an EPC page; its *physical address* is the
architectural enclave ID (EID) used by the EPCM and the access-validation
automaton.  The nested extension adds exactly the fields the paper draws in
Fig. 3:

* ``outer_eid`` — pointer to the SECS of this enclave's outer enclave,
  0 when the enclave is not nested (paper: ``OuterEID``).
* ``inner_eids`` — list of SECS pointers of the inner enclaves associated
  with this enclave (paper: ``InnerEIDs``); used both for access validation
  bookkeeping and for the extended EWB thread-tracking of §IV-E.

For the §VIII lattice extension (multiple outer enclaves per inner) the
simulator additionally keeps ``outer_eids`` as a list; the 2-level model
the paper evaluates simply constrains it to length ≤ 1 via ``outer_eid``.

NASSO validation data: the *signed enclave file* of an inner enclave
carries the expected measurements of its outer enclave and vice versa
(§IV-C).  EINIT copies those expectations from the SIGSTRUCT into the SECS
(``expected_peer_digests``), where NASSO checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sgx.constants import ST_UNINITIALIZED, TCS_IDLE
from repro.sgx.measure import MeasurementLog


@dataclass
class Secs:
    """Enclave metadata.  Every field a leaf instruction consults lives
    here; there is deliberately no behaviour — the ISA operates *on* it."""

    eid: int                       # physical address of this SECS page
    base_addr: int                 # ELRANGE start (virtual)
    size: int                      # ELRANGE size (bytes, power-of-two-ish)
    state: str = ST_UNINITIALIZED
    attributes: int = 0

    # Measurement registers.
    mrenclave: bytes = b""         # finalised digest (set by EINIT)
    mrsigner: bytes = b""          # hash of the author's public key
    isv_prod_id: int = 0
    isv_svn: int = 0

    # Running measurement built by ECREATE/EADD/EEXTEND, digested by EINIT.
    measurement_log: MeasurementLog = field(default_factory=MeasurementLog)

    # --- Nested-enclave extension (paper Fig. 3) ---
    outer_eid: int = 0
    inner_eids: list[int] = field(default_factory=list)
    # §VIII lattice extension: all outer enclaves (superset of outer_eid).
    outer_eids: list[int] = field(default_factory=list)

    # Expected peer digests copied from the signed image at EINIT:
    # list of (expected_mrenclave, expected_mrsigner) pairs this enclave
    # is willing to associate with (as its inner or outer counterpart).
    expected_peer_digests: list[tuple[bytes, bytes]] = field(
        default_factory=list)

    # TCS pages registered for this enclave (virtual addresses).
    tcs_vaddrs: list[int] = field(default_factory=list)

    def elrange(self) -> tuple[int, int]:
        return (self.base_addr, self.base_addr + self.size)

    def contains_vaddr(self, vaddr: int) -> bool:
        lo, hi = self.elrange()
        return lo <= vaddr < hi


@dataclass
class Tcs:
    """Thread Control Structure.

    Holds the entry point for (NE)ENTER, a busy flag checked by the
    transition instructions (paper §IV-B: "checks ... its TCS is currently
    idle"), and the saved-state area used by AEX/ERESUME.
    """

    vaddr: int                    # virtual address of this TCS page
    eid: int                      # owning enclave
    entry: str                    # name of the registered entry function
    state: str = TCS_IDLE
    # Saved context for AEX/ERESUME (opaque to the OS).
    saved_context: dict | None = None
    aex_count: int = 0
