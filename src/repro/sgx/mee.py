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
:meth:`Mee.encrypt_lines`).  One loop over the span's lines does the
per-line MAC check, version bump and keystream; the span is then XORed
as one wide integer instead of one byte at a time.  The SHA-256 and
HMAC states over the fixed key prefixes are built once per MEE and
copied per line.  :meth:`Mee.encrypt_line`/:meth:`Mee.decrypt_line` are
one-line spans.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import IntegrityViolation
from repro.sgx.constants import CACHELINE_SIZE, MachineConfig, PAGE_SIZE


class Mee:
    """Cacheline-granularity encryption + integrity over the PRM."""

    def __init__(self, config: MachineConfig, boot_key: bytes = b"") -> None:
        self.config = config
        # Per-boot random key; deterministic default keeps tests stable.
        self.key = boot_key or hashlib.sha256(b"repro-mee-boot-key").digest()
        self._mac_key = hashlib.sha256(self.key + b"mac").digest()
        # Keystream and MAC states over the fixed key prefixes; every
        # line copies one instead of re-absorbing the key.
        self._stream_base = hashlib.sha256(self.key)
        self._mac_base = hmac.new(self._mac_key, digestmod="sha256")
        # line physical address -> MAC of current ciphertext (on-chip state
        # in the model; real HW stores MACs in PRM metadata + counters).
        self._line_macs: dict[int, bytes] = {}
        # line -> monotonically bumped version (anti-replay counter).
        self._versions: dict[int, int] = {}
        self.lines_encrypted = 0
        self.lines_decrypted = 0

    def _keystream(self, line_addr: int, version: int) -> bytes:
        """One line of keystream: two chained SHA-256 blocks."""
        h = self._stream_base.copy()
        h.update(line_addr.to_bytes(8, "little")
                 + version.to_bytes(8, "little"))
        block = h.digest()
        return block + hashlib.sha256(block).digest()

    def _line_mac(self, line_addr: int, ciphertext: bytes) -> bytes:
        h = self._mac_base.copy()
        h.update(line_addr.to_bytes(8, "little") + ciphertext)
        return h.digest()

    # -- span operations ------------------------------------------------------
    def encrypt_lines(self, first_line_addr: int, plaintext: bytes) -> bytes:
        """Encrypt whole lines starting at ``first_line_addr`` on LLC→DRAM
        writeback; bumps each line's version and records its MAC."""
        size = len(plaintext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        versions = self._versions
        keystream = self._keystream
        stream = []
        for addr in range(first_line_addr, first_line_addr + size,
                          CACHELINE_SIZE):
            version = versions.get(addr, 0) + 1
            versions[addr] = version
            stream.append(keystream(addr, version))
        ciphertext = (int.from_bytes(plaintext, "little")
                      ^ int.from_bytes(b"".join(stream), "little")
                      ).to_bytes(size, "little")
        macs = self._line_macs
        line_mac = self._line_mac
        for off in range(0, size, CACHELINE_SIZE):
            addr = first_line_addr + off
            macs[addr] = line_mac(addr,
                                  ciphertext[off:off + CACHELINE_SIZE])
        self.lines_encrypted += size // CACHELINE_SIZE
        return ciphertext

    def decrypt_lines(self, first_line_addr: int, ciphertext: bytes) -> bytes:
        """Integrity-check and decrypt whole lines starting at
        ``first_line_addr`` on DRAM→LLC fill.  Raises
        :class:`IntegrityViolation` on the first line that fails, before
        any plaintext is returned."""
        size = len(ciphertext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        macs = self._line_macs
        versions = self._versions
        keystream = self._keystream
        line_mac = self._line_mac
        stream = []
        for off in range(0, size, CACHELINE_SIZE):
            addr = first_line_addr + off
            line = ciphertext[off:off + CACHELINE_SIZE]
            expected = macs.get(addr)
            if expected is None:
                # Never written through the MEE: a fill of an untouched
                # line returns zeros (fresh EPC page contents).  The line
                # is all zeros, so it is its own keystream.
                if any(line):
                    raise IntegrityViolation(
                        f"DRAM tampering: line {addr:#x} modified "
                        f"before first MEE write")
                stream.append(line)
                continue
            if not hmac.compare_digest(expected, line_mac(addr, line)):
                raise IntegrityViolation(
                    f"DRAM tampering detected on line {addr:#x}")
            stream.append(keystream(addr, versions.get(addr, 0)))
        self.lines_decrypted += size // CACHELINE_SIZE
        return (int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(b"".join(stream), "little")
                ).to_bytes(size, "little")

    # -- line operations ------------------------------------------------------
    def encrypt_line(self, line_addr: int, plaintext: bytes) -> bytes:
        """Encrypt a 64 B line on LLC→DRAM eviction; records its MAC."""
        if len(plaintext) != CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        return self.encrypt_lines(line_addr, plaintext)

    def decrypt_line(self, line_addr: int, ciphertext: bytes) -> bytes:
        """Decrypt + integrity-check a line on DRAM→LLC fill."""
        if len(ciphertext) != CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        return self.decrypt_lines(line_addr, ciphertext)

    def root_mac(self) -> bytes:
        """MAC over all line MACs — the on-chip integrity-tree root."""
        h = self._mac_base.copy()
        for addr in sorted(self._line_macs):
            h.update(addr.to_bytes(8, "little"))
            h.update(self._line_macs[addr])
        return h.digest()

    def forget_page(self, page_addr: int) -> None:
        """Drop per-line state for a reclaimed EPC page (EREMOVE/EWB)."""
        for off in range(0, PAGE_SIZE, CACHELINE_SIZE):
            self._line_macs.pop(page_addr + off, None)
            self._versions.pop(page_addr + off, None)
