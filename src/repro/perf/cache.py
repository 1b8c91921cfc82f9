"""Last-level cache model.

Fig. 11 of the paper hinges on one microarchitectural fact: data that stays
inside the on-chip LLC is never seen by the MEE, so intra-enclave (nested
channel) transfers of cache-resident working sets pay *no* encryption cost,
while the software AES-GCM baseline pays per-byte cost regardless.  This
module provides a set-associative LLC with true-LRU replacement, keyed by
physical cacheline address.  The memory system consults it on every access:
a hit costs ``cache_hit_ns``; a miss to PRM goes through the MEE.

The model tracks only tags (no data — data lives in the simulated DRAM),
which keeps it fast enough to run millions of line accesses in benchmarks.
"""

from __future__ import annotations

# Kept local (not imported from repro.sgx.constants) so the perf package
# has no dependency on the sgx package — the machine imports us, not the
# other way around.  The one line size of the machine: the MEE and the
# PRM plaintext helpers work on the same 64 B lines, so an LLC miss is
# exactly one MEE line.
CACHELINE_SIZE = 64


class LlcModel:
    """Set-associative, true-LRU, physically indexed cache of line tags."""

    __slots__ = ("ways", "num_sets", "_sets")

    def __init__(self, size_bytes: int, ways: int = 16) -> None:
        if size_bytes % (ways * CACHELINE_SIZE):
            raise ValueError("cache size must be a multiple of ways*line")
        self.ways = ways
        self.num_sets = size_bytes // (ways * CACHELINE_SIZE)
        # Each set is an insertion-ordered dict of line addresses (values
        # unused), most-recently-used last: delete+reinsert is the LRU
        # promotion, ``next(iter(s))`` the LRU victim.  Same replacement
        # order as a list with MRU at the tail, but membership test and
        # promotion are O(1) instead of O(ways).
        self._sets: list[dict[int, None]] = [
            {} for _ in range(self.num_sets)]

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // CACHELINE_SIZE) % self.num_sets

    def access_range(self, paddr: int, nbytes: int) -> tuple[int, int]:
        """Touch every line in [paddr, paddr+nbytes). Returns (hits, misses)."""
        if nbytes <= 0:
            return (0, 0)
        line_bytes = CACHELINE_SIZE
        first = paddr - (paddr % line_bytes)
        last = (paddr + nbytes - 1)
        last -= last % line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        if last - first == line_bytes:
            # Two-line access (unaligned u64s / 64 B payloads): unrolled.
            hits = misses = 0
            index = (first // line_bytes) % num_sets
            for line_addr in (first, last):
                lru = sets[index]
                index += 1
                if index == num_sets:
                    index = 0
                if line_addr in lru:
                    del lru[line_addr]
                    lru[line_addr] = None
                    hits += 1
                else:
                    misses += 1
                    if len(lru) >= ways:
                        del lru[next(iter(lru))]
                    lru[line_addr] = None
            return (hits, misses)
        hits = misses = 0
        index = (first // line_bytes) % num_sets
        for line_addr in range(first, last + 1, line_bytes):
            lru = sets[index]
            index += 1
            if index == num_sets:
                index = 0
            if line_addr in lru:
                del lru[line_addr]
                lru[line_addr] = None
                hits += 1
            else:
                misses += 1
                if len(lru) >= ways:
                    del lru[next(iter(lru))]
                lru[line_addr] = None
        return (hits, misses)

    def contains(self, paddr: int) -> bool:
        line_addr = paddr - (paddr % CACHELINE_SIZE)
        return line_addr in self._sets[self._set_index(line_addr)]

    def flush(self) -> None:
        for lru in self._sets:
            lru.clear()

    def invalidate_line(self, paddr: int) -> bool:
        """Drop the line containing ``paddr`` from the cache (models a
        snooped invalidation so the next access refills from DRAM).
        Returns True if the line was present."""
        line_addr = paddr - (paddr % CACHELINE_SIZE)
        return self._sets[self._set_index(line_addr)].pop(
            line_addr, 1) is None

    # -- snapshot / restore (fault-injection perf bubbles) -------------------
    def capture(self) -> list:
        """Full replacement state, as plain values."""
        return [dict(lru) for lru in self._sets]

    def restore(self, snapshot: list) -> None:
        for lru, saved in zip(self._sets, snapshot):
            lru.clear()
            lru.update(saved)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways
