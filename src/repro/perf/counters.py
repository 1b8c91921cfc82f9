"""Event counters.

The paper's figures report not only throughput but also *counts* — Fig. 7
overlays the number of ecalls/ocalls per run.  A :class:`Counters` instance
hangs off the machine; the cost model's ``charge_event`` bumps the counted
transition, paging and TLB events, the memory path bumps the TLB-hit, LLC
and MEE-line slots, and benchmarks snapshot it before/after a workload.
Counters are the one record of a counted event: the cost breakdown derives
such an event's simulated time from its count
(:meth:`repro.perf.costmodel.CostModel.snapshot`).

The counters live in fixed list slots (``Counters.slots`` indexed by the
``SLOT_*`` constants) so the memory-system hot path can bump them with one
list-index add instead of a dict hash; ``bump``/``get`` take only the
canonical names and raise :class:`KeyError` on any other, so a typo never
turns into a silent zero.
"""

from __future__ import annotations

#: Canonical counter names used across the simulator.  Centralised so tests
#: and benches never typo a counter into silent zeros.
ECALL = "ecall"
OCALL = "ocall"
N_ECALL = "n_ecall"
N_OCALL = "n_ocall"
AEX = "aex"
TLB_HIT = "tlb_hit"
TLB_MISS = "tlb_miss"
TLB_FLUSH = "tlb_flush"
NESTED_CHECK = "nested_check"
MEE_LINE_ENC = "mee_line_encrypt"
MEE_LINE_DEC = "mee_line_decrypt"
LLC_HIT = "llc_hit"
LLC_MISS = "llc_miss"
EWB = "ewb"
ELDB = "eldb"
IPI = "ipi"
GCM_SEAL = "gcm_seal"
GCM_OPEN = "gcm_open"

#: Slot layout for the canonical counters (order is arbitrary but fixed).
_SLOT_NAMES = (ECALL, OCALL, N_ECALL, N_OCALL, AEX,
               TLB_HIT, TLB_MISS, TLB_FLUSH, NESTED_CHECK,
               MEE_LINE_ENC, MEE_LINE_DEC, LLC_HIT, LLC_MISS,
               EWB, ELDB, IPI, GCM_SEAL, GCM_OPEN)
_SLOT_INDEX = {name: i for i, name in enumerate(_SLOT_NAMES)}

#: Slot indices for hot-path callers (``counters.slots[SLOT_X] += n``).
(SLOT_ECALL, SLOT_OCALL, SLOT_N_ECALL, SLOT_N_OCALL, SLOT_AEX,
 SLOT_TLB_HIT, SLOT_TLB_MISS, SLOT_TLB_FLUSH, SLOT_NESTED_CHECK,
 SLOT_MEE_LINE_ENC, SLOT_MEE_LINE_DEC, SLOT_LLC_HIT, SLOT_LLC_MISS,
 SLOT_EWB, SLOT_ELDB, SLOT_IPI, SLOT_GCM_SEAL,
 SLOT_GCM_OPEN) = range(len(_SLOT_NAMES))


class Counters:
    """Slot-backed counters over the canonical names."""

    __slots__ = ("slots",)

    def __init__(self) -> None:
        #: Canonical counts, indexed by the ``SLOT_*`` constants.
        self.slots: list[int] = [0] * len(_SLOT_NAMES)

    def bump(self, name: str, by: int = 1) -> None:
        self.slots[_SLOT_INDEX[name]] += by

    def get(self, name: str) -> int:
        return self.slots[_SLOT_INDEX[name]]

    def snapshot(self) -> dict[str, int]:
        return {name: count
                for name, count in zip(_SLOT_NAMES, self.slots) if count}

    def reset(self) -> None:
        # In place, never rebinding ``slots``: hot-path callers (machine,
        # cores, cost model) hold a direct reference to the list.
        self.slots[:] = [0] * len(_SLOT_NAMES)

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counts accumulated since ``snapshot`` (zero entries omitted)."""
        out = {}
        for name, value in self.snapshot().items():
            d = value - snapshot.get(name, 0)
            if d:
                out[name] = d
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        items = ", ".join(f"{k}={v}"
                          for k, v in sorted(self.snapshot().items()))
        return f"Counters({items})"
