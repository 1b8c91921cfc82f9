"""The untrusted operating system.

Everything in this package is *outside* the TCB (paper §III-B: the
attacker "fully control[s] system software").  The kernel owns process
address spaces, hands cores to threads, manages page tables and the EPC
through its SGX driver, and provides the IPC primitives that the
monolithic baseline must use for enclave-to-enclave communication.

Every security-relevant action is open to an *active attacker*
(:mod:`repro.os.malicious`): page mappings and scheduling go through
overridable methods, and IPC delivery through the delivery policy of the
kernel's one :class:`~repro.os.ipc.IpcRouter`, bound here once.
"""

from __future__ import annotations

from repro.errors import SgxFault
from repro.os.driver import SgxDriver
from repro.os.ipc import IpcRouter
from repro.os.scheduler import Scheduler
from repro.sgx.cpu import Core
from repro.sgx.machine import Machine
from repro.sgx.paging import AddressSpace


class Process:
    """A user process: an address space plus untrusted scratch memory."""

    _next_pid = 1

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.space: AddressSpace = kernel.machine.new_address_space(name)
        self._next_phys = None  # assigned lazily by the kernel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process(pid={self.pid}, name={self.name!r})"


class Kernel:
    """Untrusted OS over one simulated machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.driver = SgxDriver(self)
        self.scheduler = Scheduler(machine)
        self.ipc = IpcRouter(self)
        if machine.fault_engine is not None:
            machine.fault_engine.attach_kernel(self)
        self.processes: list[Process] = []
        # Untrusted physical memory allocator: hands out page frames from
        # ordinary (non-PRM) DRAM, bottom up, skipping the PRM.
        self._next_frame = 0x20_0000  # above typical kernel image

    # -- processes ------------------------------------------------------------
    def spawn(self, name: str = "proc") -> Process:
        proc = Process(self, name)
        self.processes.append(proc)
        return proc

    # -- untrusted memory management ------------------------------------------
    def alloc_phys_page(self) -> int:
        """Allocate one ordinary (non-EPC) physical page frame."""
        cfg = self.machine.config
        while True:
            paddr = self._next_frame
            self._next_frame += 4096
            if paddr + 4096 > cfg.dram_bytes:
                raise SgxFault("out of untrusted physical memory")
            if not self.machine.phys.in_prm(paddr):
                return paddr

    def mmap(self, proc: Process, nbytes: int) -> int:
        """Map fresh untrusted memory into a process; returns its vaddr."""
        base = proc.space.reserve(nbytes)
        pages = (nbytes + 4095) // 4096
        for i in range(pages):
            proc.space.map_page(base + i * 4096, self.alloc_phys_page())
        return base

    # -- core management --------------------------------------------------------
    def run_on_core(self, proc: Process) -> Core:
        """Schedule a thread of ``proc`` onto a free core."""
        core = self.scheduler.acquire()
        core.address_space = proc.space
        return core
