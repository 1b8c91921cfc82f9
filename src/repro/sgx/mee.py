"""Memory Encryption Engine (MEE) model.

The MEE sits between the LLC and DRAM: cachelines belonging to the PRM are
encrypted on eviction to DRAM and decrypted+integrity-checked on fill.  Two
properties matter for this reproduction:

1. **Physical confidentiality** — a DRAM-level attacker (or a test reading
   :class:`~repro.sgx.memory.PhysicalMemory` directly) must observe only
   ciphertext for EPC pages.  We implement a real keystream cipher
   (SHA-256-based CTR keystream over a per-boot key, at cacheline
   granularity), so "read raw DRAM" tests genuinely see high-entropy bytes.

2. **Cost asymmetry** — MEE work is charged *only on LLC misses*.  This is
   what makes the nested channel of Fig. 11 fast: messages that fit in the
   8 MiB LLC never touch the MEE at all, while the software AES-GCM
   baseline pays per byte no matter what.

A Merkle-style integrity tree over EPC cachelines detects DRAM tampering:
each line's MAC is stored in MEE metadata (the non-EPC tail of the PRM, as
on real parts), and a root MAC over the per-line MACs is kept on-chip.

The MEE uses **one shared key for all enclaves** (paper §IV-F) — isolation
between enclaves is the access-control automaton's job, not the MEE's.
Nested enclaves therefore require zero MEE changes, which this module's
API makes structurally evident: it has no notion of enclave identity.

Span API
--------
The cipher is defined per line — keystream
``SHA-256(key ‖ addr ‖ version) ‖ SHA-256(that block)``, MAC
``HMAC-SHA-256(mac_key, addr ‖ ciphertext)`` — but the machine hands the
MEE whole line-aligned spans: :meth:`Mee.writeback` on LLC→DRAM
writeback, and on a fill :meth:`Mee.stale_plaintext` or
:meth:`Mee.decrypt_lines`.

One record per line.  Only :meth:`Mee.writeback` sets a version: it
records ``(version, None, plaintext)`` for each line it writes back and
marks the line *stale* in :attr:`Mee.stale` (``pfn -> mask of lines``),
the lines whose ciphertext DRAM has not been handed yet.  It derives no
keystream.  :meth:`Mee._ciphertext` is the one place a line keystream is
derived: it fills the record's ciphertext from its version and
plaintext.  Two readers call it:

* :meth:`Mee.settle`, which :class:`~repro.sgx.memory.PhysicalMemory`
  calls before any raw access (read, write, digest, ...) observes a
  frame with stale lines, and which writes their ciphertext into the
  frame.  DRAM therefore holds ciphertext whenever anything outside the
  package reads it, byte-identical to a write-through MEE's image.
* :meth:`Mee.root_mac`, which needs every line's ciphertext.

A fill whose lines are all stale returns the recorded plaintext without
reading DRAM (:meth:`Mee.stale_plaintext`): a raw write to any of them
would have settled the frame first.  Every other fill reads DRAM, which
settles it, and :meth:`Mee.decrypt_lines` compares each line with its
recorded ciphertext and returns the recorded plaintext, so it hashes
nothing.  The compare catches every change a MAC check would (a flipped
bit, a replayed older ciphertext, a line copied from another address)
and reads back a tamper undone byte for byte, as the MAC does.  A line
with no record reads as never written: it must be all zeros.  Line MACs
have no other reader than :meth:`Mee.root_mac`, which computes each from
the line's ciphertext (inline HMAC from the RFC 2104 pad states of
:func:`~repro.crypto.kdf.hmac_pads`) and keeps it until the line's next
writeback.  :meth:`Mee.forget_page` drops the records, the MACs and the
stale marks of a page whose frame is dropped next (EWB/EREMOVE), so
those lines are never encrypted.
"""

from __future__ import annotations

import hashlib

from repro.crypto.kdf import hmac_pads
from repro.errors import IntegrityViolation
from repro.sgx.constants import (CACHELINE_SIZE, MachineConfig, PAGE_SHIFT,
                                 PAGE_SIZE)

#: The record of a line no writeback has touched: version 0, and zeros
#: in DRAM and in the plaintext (fresh EPC page contents).
_UNWRITTEN = (0, bytes(CACHELINE_SIZE), bytes(CACHELINE_SIZE))


def _line_mask(addr: int, end: int) -> int:
    """Stale-mask bits of the lines ``[addr, end)`` of one frame."""
    first = (addr & (PAGE_SIZE - 1)) // CACHELINE_SIZE
    count = (end - addr) // CACHELINE_SIZE
    return ((1 << count) - 1) << first


class Mee:
    """Cacheline-granularity encryption + integrity over the PRM."""

    def __init__(self, config: MachineConfig, boot_key: bytes = b"") -> None:
        self.config = config
        # Per-boot random key; deterministic default keeps tests stable.
        self.key = boot_key or hashlib.sha256(b"repro-mee-boot-key").digest()
        self._mac_key = hashlib.sha256(self.key + b"mac").digest()
        # Keystream and MAC pad states over the fixed keys; every line
        # copies them instead of re-absorbing a key.
        self._stream_base = hashlib.sha256(self.key)
        self._mac_inner, self._mac_outer = hmac_pads(self._mac_key)
        # line physical address -> (version, ciphertext, plaintext) of its
        # last writeback: the anti-replay counter and what DRAM must hold
        # (on-chip state in the model; real HW keeps counters and MACs).
        # The ciphertext is None until _ciphertext derives it.
        self._lines: dict[int, tuple[int, bytes | None, bytes]] = {}
        # line -> MAC of its recorded ciphertext, computed by root_mac()
        # and dropped by the line's next writeback.
        self._macs: dict[int, bytes] = {}
        #: pfn -> the lines of that frame written back since DRAM last
        #: saw them, as a non-zero mask (bit i: the frame's line i; an
        #: int per frame instead of a set entry per line).  Every stale
        #: line has a record; every record without a ciphertext is stale.
        self.stale: dict[int, int] = {}

    # -- span operations ------------------------------------------------------
    def writeback(self, first_line_addr: int, plaintext: bytes) -> None:
        """Record whole lines starting at ``first_line_addr`` on LLC→DRAM
        writeback: bump each line's version, keep its plaintext and mark
        it stale.  DRAM is written when something observes it."""
        size = len(plaintext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        lines = self._lines
        get = lines.get
        drop_mac = self._macs.pop
        stale = self.stale
        addr = first_line_addr
        end = first_line_addr + size
        off = 0
        while addr < end:
            page_end = min(end, (addr | (PAGE_SIZE - 1)) + 1)
            for line in range(addr, page_end, CACHELINE_SIZE):
                lines[line] = (get(line, _UNWRITTEN)[0] + 1, None,
                               plaintext[off:off + CACHELINE_SIZE])
                drop_mac(line, None)
                off += CACHELINE_SIZE
            pfn = addr >> PAGE_SHIFT
            stale[pfn] = stale.get(pfn, 0) | _line_mask(addr, page_end)
            addr = page_end

    def stale_plaintext(self, first_line_addr: int, size: int
                        ) -> bytes | None:
        """The recorded plaintext of the ``size``-byte span at
        ``first_line_addr`` if every line of it is stale, else None.  No
        raw access has observed a stale line since its writeback, so
        nothing outside the package can have changed it."""
        stale = self.stale
        addr = first_line_addr
        end = first_line_addr + size
        while addr < end:
            page_end = min(end, (addr | (PAGE_SIZE - 1)) + 1)
            mask = _line_mask(addr, page_end)
            if (stale.get(addr >> PAGE_SHIFT, 0) & mask) != mask:
                return None
            addr = page_end
        lines = self._lines
        return b"".join([lines[addr][2] for addr in range(
            first_line_addr, end, CACHELINE_SIZE)])

    def decrypt_lines(self, first_line_addr: int, ciphertext: bytes) -> bytes:
        """Integrity-check and decrypt whole lines starting at
        ``first_line_addr`` on DRAM→LLC fill, ``ciphertext`` being the
        settled DRAM span.  Raises :class:`IntegrityViolation` on the
        first line that fails, before any plaintext is returned."""
        size = len(ciphertext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        get = self._lines.get
        records = [get(addr, _UNWRITTEN) for addr in range(
            first_line_addr, first_line_addr + size, CACHELINE_SIZE)]
        if b"".join([record[1] for record in records]) != ciphertext:
            for off, record in zip(range(0, size, CACHELINE_SIZE), records):
                if ciphertext[off:off + CACHELINE_SIZE] == record[1]:
                    continue
                addr = first_line_addr + off
                if record is _UNWRITTEN:
                    raise IntegrityViolation(
                        f"DRAM tampering: line {addr:#x} modified "
                        f"before first MEE write")
                raise IntegrityViolation(
                    f"DRAM tampering detected on line {addr:#x}")
        return b"".join([record[2] for record in records])

    def _ciphertext(self, addr: int) -> bytes:
        """The recorded line's ciphertext, derived from its version and
        plaintext on first use and kept in the record: the only place a
        line keystream is computed."""
        version, ciphertext, plaintext = self._lines[addr]
        if ciphertext is None:
            h = self._stream_base.copy()
            h.update(addr.to_bytes(8, "little")
                     + version.to_bytes(8, "little"))
            block = h.digest()
            ciphertext = (int.from_bytes(plaintext, "little")
                          ^ int.from_bytes(
                              block + hashlib.sha256(block).digest(),
                              "little")).to_bytes(CACHELINE_SIZE, "little")
            self._lines[addr] = (version, ciphertext, plaintext)
        return ciphertext

    def settle(self, pfn: int, frame: bytearray) -> None:
        """Write the ciphertext of frame ``pfn``'s stale lines into its
        DRAM bytes ``frame``; they are stale no more."""
        mask = self.stale.pop(pfn)
        base = pfn << PAGE_SHIFT
        while mask:
            low = mask & -mask
            off = (low.bit_length() - 1) * CACHELINE_SIZE
            frame[off:off + CACHELINE_SIZE] = self._ciphertext(base + off)
            mask ^= low

    def root_mac(self) -> bytes:
        """MAC over all line MACs — the on-chip integrity-tree root."""
        lines = self._lines
        macs = self._macs
        inner = self._mac_inner.copy()
        for addr in sorted(lines):
            addr_bytes = addr.to_bytes(8, "little")
            mac = macs.get(addr)
            if mac is None:
                i = self._mac_inner.copy()
                i.update(addr_bytes + self._ciphertext(addr))
                o = self._mac_outer.copy()
                o.update(i.digest())
                mac = macs[addr] = o.digest()
            inner.update(addr_bytes)
            inner.update(mac)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def forget_page(self, page_addr: int) -> None:
        """Drop per-line state for a reclaimed EPC page (EREMOVE/EWB),
        its stale marks included: the frame is dropped next, so its
        stale lines are never encrypted."""
        self.stale.pop(page_addr >> PAGE_SHIFT, None)
        for addr in range(page_addr, page_addr + PAGE_SIZE, CACHELINE_SIZE):
            self._lines.pop(addr, None)
            self._macs.pop(addr, None)
