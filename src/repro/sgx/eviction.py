"""EPC page eviction: EBLOCK / ETRACK / EWB / ELDB.

SGX lets the OS overcommit the EPC by sealing pages out to untrusted
memory.  The protocol must defeat two OS attacks: *stale translations*
(a core still holds a TLB entry for the evicted frame) and *replay*
(reloading an old sealed copy).  The real protocol is:

1. ``EBLOCK``   — mark the page blocked: no new TLB fills.
2. ``ETRACK``   — open a tracking epoch on the owner enclave.
3. The OS interrupts every core that was running the enclave → AEX → TLB
   flush on exit.
4. ``EWB``      — verifies the epoch is clean, seals the page (encrypt +
   MAC + version stored in a Version Array slot), frees the frame.
   The page cipher XORs the whole page, as one wide integer, with
   :func:`~repro.crypto.kdf.hkdf_stream` under the seal key, labelled
   by the slot's version; ELDB runs the same XOR to decrypt.  The
   keystream is a pure function of (seal key, version), so EWB keeps
   it on the version array next to the slot it fills.
5. ``ELDB``     — verifies MAC + version, restores the page into a new
   frame, consumes the VA slot (anti-replay).  Only after those checks
   does it take the slot's kept keystream, and only if it was kept for
   this very version; otherwise (a slot restored by the model checker,
   say) it derives the keystream again.  Consuming the slot drops the
   keystream, so the array holds at most one per slot.

Nested extension (paper §IV-E): when the victim belongs to an **outer**
enclave, inner-enclave threads can also hold translations for it, so the
tracking set must include every core running any inner enclave of the
owner (found via ``SECS.InnerEIDs``, transitively for multi-level
nesting).  The paper also mentions the simpler alternative — IPI every
core — which is implemented as :func:`evict_with_global_flush` and
compared in the D2 ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.kdf import hkdf, hkdf_stream, mac, mac_verify
from repro.errors import EvictionConflict, SgxFault
from repro.sgx.constants import PAGE_SIZE, PT_VA
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs

VA_SLOTS_PER_PAGE = 512


@dataclass
class VersionArray:
    """A PT_VA page: anti-replay version slots for evicted pages."""

    frame: int
    slots: list[bytes | None]
    #: slot -> (version, page keystream) kept by the EWB that filled
    #: the slot, for the ELDB that consumes it.
    streams: dict[int, tuple[bytes, bytes]] = field(
        default_factory=dict, repr=False, compare=False)

    def free_slot(self) -> int:
        for i, slot in enumerate(self.slots):
            if slot is None:
                return i
        raise SgxFault("version array full")


@dataclass(frozen=True)
class EvictedPage:
    """The sealed blob EWB hands to the OS (lives in untrusted memory)."""

    eid: int
    vaddr: int
    page_type: str
    perms: int
    ciphertext: bytes
    mac_tag: bytes
    va_frame: int
    va_slot: int


@dataclass
class TrackEpoch:
    """State recorded by ETRACK and checked by EWB."""

    eid: int
    tracked_eids: frozenset[int]
    #: core_id -> tlb.flush_count at ETRACK time, for cores that were then
    #: executing one of the tracked enclaves.
    dirty_cores: dict[int, int]


def inner_closure(machine: Machine, secs: Secs) -> frozenset[int]:
    """{eid} plus all (transitive) inner enclaves — the tracking set."""
    seen: set[int] = set()
    stack = [secs.eid]
    while stack:
        eid = stack.pop()
        if eid in seen:
            continue
        seen.add(eid)
        stack.extend(machine.enclave(eid).inner_eids)
    return frozenset(seen)


def alloc_version_array(machine: Machine) -> VersionArray:
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=0, page_type=PT_VA, vaddr=0)
    return VersionArray(frame=frame, slots=[None] * VA_SLOTS_PER_PAGE)


def eblock(machine: Machine, frame: int) -> None:
    entry = machine.epcm.entry(frame)
    if not entry.valid:
        raise SgxFault("EBLOCK on an invalid EPC page")
    entry.blocked = True


def etrack(machine: Machine, secs: Secs, *,
           include_inner: bool = True) -> TrackEpoch:
    """Open a tracking epoch.

    ``include_inner=False`` models *unextended* SGX tracking — the D2
    ablation and the security test showing why the extension is required:
    without it, an inner-enclave core's stale translation survives EWB.
    """
    tracked = (inner_closure(machine, secs) if include_inner
               else frozenset({secs.eid}))
    dirty = {}
    for core in machine.cores:
        if any(eid in tracked for eid in core.enclave_stack):
            dirty[core.core_id] = core.tlb.flush_count
    return TrackEpoch(eid=secs.eid, tracked_eids=tracked, dirty_cores=dirty)


def epoch_clean(machine: Machine, epoch: TrackEpoch) -> bool:
    """Has every dirty core flushed (AEX'd) since ETRACK?"""
    for core_id, flush_count in epoch.dirty_cores.items():
        if machine.cores[core_id].tlb.flush_count <= flush_count:
            return False
    return True


def _seal_key(machine: Machine) -> bytes:
    return hkdf(machine.root_secret, b"ewb-seal")


def _xor_page(page: bytes, stream: bytes) -> bytes:
    """EWB/ELDB page cipher: XOR with the page keystream (the
    ``hkdf_stream`` labelled by the VA-slot version), as one wide
    integer."""
    return (int.from_bytes(page, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(PAGE_SIZE, "little")


def ewb(machine: Machine, frame: int, va: VersionArray,
        epoch: TrackEpoch) -> EvictedPage:
    """Seal a blocked page out of the EPC."""
    entry = machine.epcm.entry(frame)
    if not entry.valid or not entry.blocked:
        raise SgxFault("EWB requires a blocked, valid page")
    if entry.eid not in epoch.tracked_eids:
        raise SgxFault("EWB with an epoch for a different enclave")
    if not epoch_clean(machine, epoch):
        raise EvictionConflict(
            "stale translations may survive: tracked cores did not flush")
    # Defence in depth in the model: no core may still cache this frame.
    holders = machine.cores_with_pfn(frame >> 12)
    if holders:
        raise EvictionConflict(
            f"TLBs on cores {[c.core_id for c in holders]} still map frame")

    plaintext = machine.epc_read(frame, PAGE_SIZE)
    slot = va.free_slot()
    version = hkdf(machine.root_secret, b"ewb-version",
                   frame.to_bytes(8, "little"),
                   len(va.slots).to_bytes(4, "little"),
                   machine.clock.now_ns.hex().encode())[:16]
    va.slots[slot] = version
    key = _seal_key(machine)
    # Keystream encryption + MAC binding identity, layout and version.
    stream = hkdf_stream(key, version, PAGE_SIZE)
    va.streams[slot] = (version, stream)
    ciphertext = _xor_page(plaintext, stream)
    meta = (entry.eid.to_bytes(8, "little")
            + entry.vaddr.to_bytes(8, "little")
            + entry.page_type.encode() + bytes([entry.perms]) + version)
    tag = mac(key, meta + ciphertext)
    evicted = EvictedPage(
        eid=entry.eid, vaddr=entry.vaddr, page_type=entry.page_type,
        perms=entry.perms, ciphertext=ciphertext, mac_tag=tag,
        va_frame=va.frame, va_slot=slot)
    machine.epcm.clear(frame)
    machine.epc_alloc.free(frame)
    machine.mee.forget_page(frame)
    machine.phys.drop_frame(frame >> 12)
    machine.cost.charge_event("ewb_page")
    # The payload is page *identity* (eid/vaddr integers), not key
    # bytes; the record constructor makes the whole EvictedPage carry
    # the seal-key taint, so the field reads over-approximate.
    machine.log_transition("EWB", eid=evicted.eid,  # flow: disable=FLOW001
                           vaddr=evicted.vaddr)
    return evicted


def eldb(machine: Machine, evicted: EvictedPage,
         va: VersionArray) -> int:
    """Reload a sealed page into a fresh EPC frame; returns the frame."""
    if va.frame != evicted.va_frame:
        raise SgxFault("ELDB with the wrong version array")
    version = va.slots[evicted.va_slot]
    if version is None:
        raise SgxFault("replay detected: version slot already consumed")
    key = _seal_key(machine)
    meta = (evicted.eid.to_bytes(8, "little")
            + evicted.vaddr.to_bytes(8, "little")
            + evicted.page_type.encode() + bytes([evicted.perms]) + version)
    if not mac_verify(key, meta + evicted.ciphertext, evicted.mac_tag):
        raise SgxFault("ELDB MAC verification failed (tampered blob)")
    kept = va.streams.pop(evicted.va_slot, None)
    stream = (kept[1] if kept is not None and kept[0] == version
              else hkdf_stream(key, version, PAGE_SIZE))
    plaintext = _xor_page(evicted.ciphertext, stream)
    frame = machine.epc_alloc.alloc()
    machine.epcm.set(frame, eid=evicted.eid, page_type=evicted.page_type,
                     vaddr=evicted.vaddr, perms=evicted.perms)
    machine.epc_write(frame, plaintext)
    va.slots[evicted.va_slot] = None  # consume: anti-replay
    machine.cost.charge_event("eldb_page")
    machine.log_transition("ELDB", eid=evicted.eid, vaddr=evicted.vaddr)
    return frame


def evict_with_global_flush(machine: Machine, frame: int,
                            va: VersionArray, secs: Secs) -> EvictedPage:
    """§IV-E's 'simplified, but potentially more costly solution': skip
    precise tracking and IPI-flush every core in the system."""
    eblock(machine, frame)
    epoch = etrack(machine, secs, include_inner=True)
    machine.flush_all_tlbs()
    return ewb(machine, frame, va, epoch)
