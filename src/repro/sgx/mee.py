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
MEE whole line-aligned spans (:meth:`Mee.decrypt_lines`,
:meth:`Mee.encrypt_lines`).  One loop over the span's lines bumps each
version and derives its keystream from a SHA-256 state over the key,
built once per MEE and copied per line; the span is then XORed as one
wide integer instead of one byte at a time.

One record per line.  Only :meth:`Mee.encrypt_lines` sets a version,
and it records ``(version, ciphertext, plaintext)`` for each line it
writes back.  A fill (:meth:`Mee.decrypt_lines`) compares DRAM with the
recorded ciphertext and returns the recorded plaintext, so it hashes
nothing.  The compare catches every change a MAC check would (a flipped
bit, a replayed older ciphertext, a line copied from another address)
and reads back a tamper undone byte for byte, as the MAC does.  A line
with no record reads as never written: it must be all zeros.  Line MACs
have no other reader than :meth:`Mee.root_mac`, which computes each from
the recorded ciphertext (inline HMAC from the RFC 2104 pad states of
:func:`~repro.crypto.kdf.hmac_pads`) and keeps it until the line's next
writeback.  :meth:`Mee.forget_page` drops both.
"""

from __future__ import annotations

import hashlib

from repro.crypto.kdf import hmac_pads
from repro.errors import IntegrityViolation
from repro.sgx.constants import CACHELINE_SIZE, MachineConfig, PAGE_SIZE

#: The record of a line no writeback has touched: version 0, and zeros
#: in DRAM and in the plaintext (fresh EPC page contents).
_UNWRITTEN = (0, bytes(CACHELINE_SIZE), bytes(CACHELINE_SIZE))


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
        self._lines: dict[int, tuple[int, bytes, bytes]] = {}
        # line -> MAC of its recorded ciphertext, computed by root_mac()
        # and dropped by the line's next writeback.
        self._macs: dict[int, bytes] = {}

    # -- span operations ------------------------------------------------------
    def encrypt_lines(self, first_line_addr: int, plaintext: bytes) -> bytes:
        """Encrypt whole lines starting at ``first_line_addr`` on LLC→DRAM
        writeback; bumps each line's version and records the line."""
        size = len(plaintext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        lines = self._lines
        stream_copy = self._stream_base.copy
        sha256 = hashlib.sha256
        addrs = range(first_line_addr, first_line_addr + size, CACHELINE_SIZE)
        versions = []
        stream = []
        for addr in addrs:
            version = lines.get(addr, _UNWRITTEN)[0] + 1
            versions.append(version)
            h = stream_copy()
            h.update(addr.to_bytes(8, "little")
                     + version.to_bytes(8, "little"))
            block = h.digest()
            stream.append(block + sha256(block).digest())
        ciphertext = (int.from_bytes(plaintext, "little")
                      ^ int.from_bytes(b"".join(stream), "little")
                      ).to_bytes(size, "little")
        drop_mac = self._macs.pop
        for off, addr, version in zip(range(0, size, CACHELINE_SIZE), addrs,
                                      versions):
            end = off + CACHELINE_SIZE
            lines[addr] = (version, ciphertext[off:end], plaintext[off:end])
            drop_mac(addr, None)
        return ciphertext

    def decrypt_lines(self, first_line_addr: int, ciphertext: bytes) -> bytes:
        """Integrity-check and decrypt whole lines starting at
        ``first_line_addr`` on DRAM→LLC fill.  Raises
        :class:`IntegrityViolation` on the first line that fails, before
        any plaintext is returned."""
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
                i.update(addr_bytes + lines[addr][1])
                o = self._mac_outer.copy()
                o.update(i.digest())
                mac = macs[addr] = o.digest()
            inner.update(addr_bytes)
            inner.update(mac)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def forget_page(self, page_addr: int) -> None:
        """Drop per-line state for a reclaimed EPC page (EREMOVE/EWB)."""
        for addr in range(page_addr, page_addr + PAGE_SIZE, CACHELINE_SIZE):
            self._lines.pop(addr, None)
            self._macs.pop(addr, None)
