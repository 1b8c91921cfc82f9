"""Architectural constants for the simulated SGX machine.

Values mirror the shapes of real SGX1 hardware (4 KiB pages, 64-byte
cachelines, a ~93 MiB usable EPC out of a 128 MiB PRM) but are configurable
through :class:`MachineConfig` so experiments can scale the machine up or
down — e.g. Fig. 10 loads 500 enclaves and wants a large EPC, while the
eviction tests want a tiny EPC so that EWB pressure is easy to create.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_SIZE = 4096
PAGE_SHIFT = 12
CACHELINE_SIZE = 64
LINES_PER_PAGE = PAGE_SIZE // CACHELINE_SIZE

#: Page type tags stored in EPCM entries, mirroring SGX's PT_* encodings.
PT_SECS = "PT_SECS"
PT_TCS = "PT_TCS"
PT_REG = "PT_REG"
PT_VA = "PT_VA"  # version-array pages used by EWB/ELDB

#: Permission bits for regular pages (subset of the EPCM RWX bits).
PERM_R = 0x1
PERM_W = 0x2
PERM_X = 0x4
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X
PERM_RWX = PERM_R | PERM_W | PERM_X

#: Enclave lifecycle states (SECS.state in this simulator).
ST_UNINITIALIZED = "UNINITIALIZED"  # after ECREATE, before EINIT
ST_INITIALIZED = "INITIALIZED"      # after EINIT — enterable
ST_DESTROYED = "DESTROYED"          # after all pages EREMOVE'd

#: TCS states.
TCS_IDLE = "IDLE"
TCS_ACTIVE = "ACTIVE"


@dataclass
class MachineConfig:
    """Tunable geometry of the simulated machine.

    The defaults model an i7-7700-like desktop part (4 cores, 8 MiB LLC)
    with an SGX1-like 128 MiB PRM, matching the paper's testbed (§V).
    """

    num_cores: int = 4
    dram_bytes: int = 1 << 32          # 4 GiB of simulated physical memory
    prm_base: int = 0x8000_0000        # PRM lives at 2 GiB
    prm_bytes: int = 128 << 20         # 128 MiB PRM
    epc_bytes: int = 93 << 20          # usable EPC inside PRM
    llc_bytes: int = 8 << 20           # 8 MiB last-level cache (i7-7700)
    tlb_entries: int = 1536            # per-core TLB capacity
    #: Whether MEE really encrypts bytes in simulated DRAM (slower but lets
    #: tests read raw DRAM and confirm ciphertext) or only tracks costs.
    mee_encrypt_bytes: bool = True
    #: Run without the inline TLB-hit serve, so every access takes the
    #: per-page translate loop (TLB lookup, then the memside accessors).
    #: Simulated behaviour must be bit-identical to the inline serve —
    #: the differential fuzzer (repro.analysis.difffuzz) diffs the two
    #: on every schedule.
    reference_paths: bool = False

    def __post_init__(self) -> None:
        if self.prm_base % PAGE_SIZE:
            raise ValueError("prm_base must be page aligned")
        if self.prm_bytes % PAGE_SIZE:
            raise ValueError("prm_bytes must be page aligned")
        if self.epc_bytes > self.prm_bytes:
            raise ValueError("EPC cannot exceed PRM")
        if self.prm_base + self.prm_bytes > self.dram_bytes:
            raise ValueError("PRM does not fit in DRAM")

    @property
    def epc_base(self) -> int:
        """EPC occupies the bottom of PRM; the rest is MEE metadata."""
        return self.prm_base

    @property
    def epc_pages(self) -> int:
        return self.epc_bytes // PAGE_SIZE


@dataclass
class SmallMachineConfig(MachineConfig):
    """A deliberately tiny machine for eviction and pressure tests."""

    dram_bytes: int = 64 << 20
    prm_base: int = 16 << 20
    prm_bytes: int = 2 << 20
    epc_bytes: int = 1 << 20
    llc_bytes: int = 256 << 10
    tlb_entries: int = 64
