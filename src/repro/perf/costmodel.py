"""Simulated-time cost model.

Every performance number in the paper is measured on the authors' testbed;
we cannot reproduce absolute wall-clock values, so all benchmarks here run
on a deterministic *simulated clock*.  Components charge time to the clock
through a :class:`CostModel`, whose per-event latencies are calibrated to
the paper where it reports them (Table II transition latencies) and to
public SGX/crypto measurements where it does not (MEE per-line overhead,
AES-GCM software throughput, EADD/EEXTEND page-verification cost).

All latencies are expressed in nanoseconds of simulated time.  The model is
purely additive: no pipelining or overlap is modelled, which is adequate
because every result the paper reports is either a ratio between two runs
on the *same* model or a count.

Each simulated event is booked once.  An event that has a counter
(:data:`COUNTED_EVENTS`, and the memory path's LLC and MEE lines) lives
only in its :class:`~repro.perf.counters.Counters` slot, and
:meth:`CostModel.snapshot` derives its time as count × latency; every
other charge accumulates in :attr:`CostModel.breakdown` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import counters as ctr
from repro.perf.counters import Counters


@dataclass
class CostParams:
    """Calibrated event latencies (ns) and per-byte costs (ns/B).

    Calibration sources:

    * ``ecall_ns``/``ocall_ns``: paper Table II, emulated SGX row
      (1.25 us / 1.14 us).
    * ``n_ecall_ns``/``n_ocall_ns``: paper Table II, emulated nested row
      (1.11 us / 1.06 us) — slightly cheaper than ecall/ocall because the
      transition stays inside enclave mode.
    * ``hw_ecall_ns``/``hw_ocall_ns``: paper Table II, HW row (3.45/3.13 us),
      kept so Table II can be regenerated in full.
    * ``tlb_flush_ns``: cost of the ioctl-driven flush the paper's emulator
      performs on every transition (§V); folded separately so ablations can
      vary it.
    * ``tlb_miss_walk_ns``: page-walk plus baseline Fig. 2 validation.
    * ``nested_check_ns``: the *extra* shaded validation step of Fig. 6 —
      only charged when the baseline owner check fails and the inner→outer
      fallback runs.
    * ``mee_line_ns``: per-64B-cacheline MEE encrypt/decrypt+integrity cost
      on an LLC miss to PRM (~few tens of ns on real parts).
    * ``gcm_byte_ns``: software AES-GCM cost per byte (~1 GB/s single
      thread → ~1 ns/B) plus ``gcm_setup_ns`` fixed cost per message —
      these two produce the Fig. 11 small-message gap.
    """

    # Transition latencies (Table II).
    hw_ecall_ns: float = 3450.0
    hw_ocall_ns: float = 3130.0
    ecall_ns: float = 1250.0
    ocall_ns: float = 1140.0
    n_ecall_ns: float = 1110.0
    n_ocall_ns: float = 1060.0
    aex_ns: float = 2000.0
    eresume_ns: float = 2000.0

    # Memory system.
    tlb_flush_ns: float = 300.0
    tlb_hit_ns: float = 0.5
    tlb_miss_walk_ns: float = 60.0
    nested_check_ns: float = 12.0
    cache_hit_ns: float = 3.0
    dram_access_ns: float = 60.0
    mee_line_ns: float = 30.0
    ipi_ns: float = 1200.0              # inter-processor interrupt (shootdown)

    # Enclave build / load (per page).
    eadd_page_ns: float = 2200.0
    eextend_page_ns: float = 3200.0     # 4 KiB hashed in 256 B EEXTEND chunks
    einit_ns: float = 50000.0
    ecreate_ns: float = 10000.0
    nasso_ns: float = 20000.0           # mutual measurement validation
    ewb_page_ns: float = 8000.0
    eldb_page_ns: float = 8000.0

    # Software crypto (baseline inter-enclave channel).
    gcm_byte_ns: float = 1.0
    gcm_setup_ns: float = 900.0
    sha_byte_ns: float = 1.5
    # OS IPC primitive (pipe/shm syscall) per send or receive — the
    # baseline channel pays this, the in-EPC ring does not.
    ipc_syscall_ns: float = 700.0

    # Plain computation charge for app work (per abstract "work unit").
    work_unit_ns: float = 10.0


# ---------------------------------------------------------------------------
# App/port-level latency constants
# ---------------------------------------------------------------------------
# Every hard-coded simulated latency in the tree lives here (enforced by
# repro.analysis.simlint rule SIM005) so calibration has one home and
# ablations can vary any number without hunting through app code.

#: Simulated socket recv+send syscall cost per wire message of the echo
#: deployment (repro.apps.ports.echo), calibrated so the
#: nested/monolithic ratio lands in the paper's 2-6 % band (Fig. 7).
NET_ROUND_TRIP_ECHO_NS = 22_000.0

#: Client→service delivery cost per query of the database deployment
#: (repro.apps.ports.dbservice), as in the echo deployment.
NET_ROUND_TRIP_DB_NS = 20_000.0

#: minidb per-statement cost: parse + plan + execute + page management,
#: calibrated to in-enclave SQLite figures (tens of us per simple
#: statement) so that transition overheads are the small fraction the
#: paper measures (<2 %, Table VI).
SQL_STATEMENT_NS = 55_000.0
#: minidb per-row-touched increment on top of :data:`SQL_STATEMENT_NS`.
SQL_ROW_NS = 1_500.0

#: Simulated backoff the SDK runtime sleeps between ecall entry retries
#: (TCS busy / evicted-page refault; repro.sdk.runtime) — roughly a
#: scheduler quantum's worth of yielding on real systems.
ECALL_RETRY_BACKOFF_NS = 5_000.0

#: Polling interval of the blocking OS-IPC receive path
#: (repro.os.ipc.IpcRouter.recv with a timeout): one futex-style
#: wait/wake round trip per empty poll.
IPC_POLL_NS = 2_000.0

#: Simulated backoff between reliable-channel resend attempts over lossy
#: IPC (repro.sdk.secure_channel.ReliableLink) — an RTO-style delay, far
#: above the per-message syscall cost so duplicate traffic stays rare.
CHANNEL_RETRY_BACKOFF_NS = 50_000.0

#: Default circuit-breaker cooldown in the serving layer
#: (repro.host.breaker): virtual time an opened breaker sheds before
#: admitting half-open probes — ~50 ms, three orders of magnitude above
#: a request's service time so a transient outage drains before probing.
HOST_BREAKER_COOLDOWN_NS = 50_000_000.0


class SimClock:
    """A monotonically advancing simulated clock."""

    __slots__ = ("_now_ns",)

    def __init__(self) -> None:
        self._now_ns: float = 0.0

    @property
    def now_ns(self) -> float:
        return self._now_ns

    def advance(self, delta_ns: float) -> None:
        if delta_ns < 0:
            raise ValueError("time cannot go backwards")
        self._now_ns += delta_ns


#: The fixed-latency events that have a counter (event -> counter slot).
#: ``charge_event`` books them in the counter alone; ``snapshot`` derives
#: their time as count × ``CostParams.<event>_ns``.
COUNTED_EVENTS = {
    "ecall": ctr.SLOT_ECALL,
    "ocall": ctr.SLOT_OCALL,
    "n_ecall": ctr.SLOT_N_ECALL,
    "n_ocall": ctr.SLOT_N_OCALL,
    "aex": ctr.SLOT_AEX,
    "tlb_flush": ctr.SLOT_TLB_FLUSH,
    "nested_check": ctr.SLOT_NESTED_CHECK,
    "ipi": ctr.SLOT_IPI,
    "ewb_page": ctr.SLOT_EWB,
    "eldb_page": ctr.SLOT_ELDB,
    "tlb_miss_walk": ctr.SLOT_TLB_MISS,
    "tlb_hit": ctr.SLOT_TLB_HIT,
}

#: The memory path's per-line buckets, derived the same way:
#: (bucket, CostParams field, slots whose sum is the line count).
LINE_BUCKETS = (
    ("cache_hit", "cache_hit_ns", (ctr.SLOT_LLC_HIT,)),
    ("dram", "dram_access_ns", (ctr.SLOT_LLC_MISS,)),
    ("mee", "mee_line_ns", (ctr.SLOT_MEE_LINE_ENC, ctr.SLOT_MEE_LINE_DEC)),
)


class CostModel:
    """Charges calibrated event costs to a :class:`SimClock`.

    The machine owns one instance and hands it the machine's
    :class:`~repro.perf.counters.Counters` (a bare model makes its own);
    components call ``charge(event, ns)`` or the typed helpers.  Counted
    events bump their counter, everything else is recorded per event
    name in :attr:`breakdown`, and :meth:`snapshot` reports where
    simulated time went.
    """

    def __init__(self, clock: SimClock | None = None,
                 params: CostParams | None = None,
                 counters: Counters | None = None) -> None:
        self.clock = clock or SimClock()
        self.params = params or CostParams()
        self.counters = counters or Counters()
        #: Time of the uncounted charges, per event name.
        self.breakdown: dict[str, float] = {}
        self._slots = self.counters.slots
        # Lazily filled event -> (latency, counter slot or None) table so
        # the hot path resolves an event name with one dict probe.
        self._event: dict[str, tuple] = {}
        # Every derived bucket as (name, latency, counter slots).
        params = self.params
        self._derived = tuple(
            [(event, getattr(params, event + "_ns"), (slot,))
             for event, slot in COUNTED_EVENTS.items()]
            + [(bucket, getattr(params, name), slots)
               for bucket, name, slots in LINE_BUCKETS])
        # Memory-system unit costs, hoisted once (CostParams is never
        # mutated after construction).
        self._cache_hit_ns = params.cache_hit_ns
        self._dram_access_ns = params.dram_access_ns
        self._mee_line_ns = params.mee_line_ns
        self._tlb_hit_ns = params.tlb_hit_ns

    # -- generic charging ---------------------------------------------------
    # The hot paths below advance the clock by writing ``_now_ns``
    # directly instead of calling ``SimClock.advance`` — same arithmetic,
    # minus one Python call per charge.  Every charged latency is
    # non-negative by construction (CostParams values and counts are),
    # so skipping advance()'s sign check loses nothing.
    def charge(self, event: str, ns: float) -> None:
        clock = self.clock
        clock._now_ns = clock._now_ns + ns
        self.breakdown[event] = self.breakdown.get(event, 0.0) + ns

    def charge_event(self, event: str) -> None:
        """Charge an event whose latency is the CostParams field
        ``<event>_ns``; a counted event bumps its counter instead of a
        breakdown entry."""
        entry = self._event.get(event)
        if entry is None:
            entry = (getattr(self.params, event + "_ns"),
                     COUNTED_EVENTS.get(event))
            self._event[event] = entry
        ns, slot = entry
        clock = self.clock
        clock._now_ns = clock._now_ns + ns
        if slot is None:
            breakdown = self.breakdown
            breakdown[event] = breakdown.get(event, 0.0) + ns
        else:
            self._slots[slot] += 1

    # -- typed helpers ------------------------------------------------------
    def charge_bytes(self, event: str, nbytes: int, ns_per_byte: float,
                     setup_ns: float = 0.0) -> None:
        self.charge(event, setup_ns + nbytes * ns_per_byte)

    def charge_gcm(self, nbytes: int) -> None:
        """Software AES-GCM seal or open of ``nbytes`` of payload."""
        self.charge_bytes("gcm", nbytes, self.params.gcm_byte_ns,
                          self.params.gcm_setup_ns)

    def charge_work(self, units: float) -> None:
        """Generic application compute, in abstract work units."""
        self.charge("work", units * self.params.work_unit_ns)

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Simulated time per event, charged events only.

        A counted bucket is count × latency.  That equals the sum of
        its individual charges bit for bit: every CostParams latency is
        a multiple of 0.5 ns, so each product and partial sum is an
        exactly representable dyadic float (see DESIGN.md, "Charging
        and FP exactness").
        """
        out = {k: v for k, v in self.breakdown.items() if v}
        slots = self._slots
        for bucket, ns, slot_ids in self._derived:
            total = sum(slots[i] for i in slot_ids) * ns
            if total:
                out[bucket] = total
        return out
