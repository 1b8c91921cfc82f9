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
as one wide integer instead of one byte at a time.  Three SHA-256
states are built once per MEE and copied per line: the keystream state
over the key, and the RFC 2104 inner and outer pad states of the MAC key
(:func:`~repro.crypto.kdf.hmac_pads`).  The span loops run the HMAC
(inner copy, update, outer copy, update with the inner digest) inline,
with no ``hmac.HMAC`` object or Python call per line.

Each keystream is derived once.  A line's keystream is a pure function
of (address, version), and only :meth:`Mee.encrypt_lines` sets a
version: it derives the two SHA-256 blocks for the new version and
records them next to the line's MAC and version.  A fill
(:meth:`Mee.decrypt_lines`) checks the line's MAC first and only then
XORs with the recorded keystream, so it hashes only the MAC.  Every
line with a MAC has a recorded keystream: ``encrypt_lines`` is the only
writer of all three records, and :meth:`Mee.forget_page` drops them
together (after which the line reads as never written).
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.kdf import hmac_pads
from repro.errors import IntegrityViolation
from repro.sgx.constants import CACHELINE_SIZE, MachineConfig, PAGE_SIZE


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
        # line physical address -> MAC of current ciphertext (on-chip state
        # in the model; real HW stores MACs in PRM metadata + counters).
        self._line_macs: dict[int, bytes] = {}
        # line -> monotonically bumped version (anti-replay counter).
        self._versions: dict[int, int] = {}
        # line -> its 64 B keystream for the current version, recorded
        # by the writeback that set the version.
        self._streams: dict[int, bytes] = {}

    # -- span operations ------------------------------------------------------
    def encrypt_lines(self, first_line_addr: int, plaintext: bytes) -> bytes:
        """Encrypt whole lines starting at ``first_line_addr`` on LLC→DRAM
        writeback; bumps each line's version and records its MAC."""
        size = len(plaintext)
        if size % CACHELINE_SIZE:
            raise ValueError("MEE operates on whole cachelines")
        versions = self._versions
        streams = self._streams
        stream_copy = self._stream_base.copy
        sha256 = hashlib.sha256
        stream = []
        for addr in range(first_line_addr, first_line_addr + size,
                          CACHELINE_SIZE):
            version = versions.get(addr, 0) + 1
            versions[addr] = version
            h = stream_copy()
            h.update(addr.to_bytes(8, "little")
                     + version.to_bytes(8, "little"))
            block = h.digest()
            line_stream = block + sha256(block).digest()
            streams[addr] = line_stream
            stream.append(line_stream)
        ciphertext = (int.from_bytes(plaintext, "little")
                      ^ int.from_bytes(b"".join(stream), "little")
                      ).to_bytes(size, "little")
        macs = self._line_macs
        inner_copy = self._mac_inner.copy
        outer_copy = self._mac_outer.copy
        for off in range(0, size, CACHELINE_SIZE):
            addr = first_line_addr + off
            i = inner_copy()
            i.update(addr.to_bytes(8, "little")
                     + ciphertext[off:off + CACHELINE_SIZE])
            o = outer_copy()
            o.update(i.digest())
            macs[addr] = o.digest()
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
        streams = self._streams
        inner_copy = self._mac_inner.copy
        outer_copy = self._mac_outer.copy
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
            addr_bytes = addr.to_bytes(8, "little")
            i = inner_copy()
            i.update(addr_bytes + line)
            o = outer_copy()
            o.update(i.digest())
            if not hmac.compare_digest(expected, o.digest()):
                raise IntegrityViolation(
                    f"DRAM tampering detected on line {addr:#x}")
            stream.append(streams[addr])
        return (int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(b"".join(stream), "little")
                ).to_bytes(size, "little")

    def root_mac(self) -> bytes:
        """MAC over all line MACs — the on-chip integrity-tree root."""
        inner = self._mac_inner.copy()
        for addr in sorted(self._line_macs):
            inner.update(addr.to_bytes(8, "little"))
            inner.update(self._line_macs[addr])
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def forget_page(self, page_addr: int) -> None:
        """Drop per-line state for a reclaimed EPC page (EREMOVE/EWB)."""
        for off in range(0, PAGE_SIZE, CACHELINE_SIZE):
            self._line_macs.pop(page_addr + off, None)
            self._versions.pop(page_addr + off, None)
            self._streams.pop(page_addr + off, None)
