"""The trusted/untrusted call runtime.

This is the layer the Intel SDK's generated bridge code provides: it
drives the ISA transition leaves, enforces the EDL interface contracts,
manages TCSes and the in-enclave heap, and charges the Table II-calibrated
per-call costs.

Call kinds (paper §IV-C):

* ``ecall``   — untrusted → enclave.  ``EnclaveHandle.ecall`` finds an
  idle TCS, EENTERs, runs the registered entry, EEXITs.
* ``ocall``   — enclave → untrusted.  ``EnclaveContext.ocall`` EEXITs to
  the host, runs the registered untrusted function, EENTERs back.
* ``n_ecall`` — outer → inner enclave, via NEENTER/NEEXIT, never leaving
  enclave mode.
* ``n_ocall`` — inner → outer enclave ("an application in an inner
  enclave can call library functions isolated in the outer enclave with
  the same procedure call syntax"): NEEXIT to the outer frame, run the
  outer function, NEENTER back into the inner enclave.

Each call kind is refused unless the EDL of the callee (and for nested
calls, a live NASSO association) declares it — "OS may create a fake EDL
file describing interfaces between inner enclaves, but nested enclave
never allow any direct calls among inner enclaves" (§VII-B): peer-to-peer
n_ecalls have no declaring EDL section and no associated outer frame, so
the runtime cannot even reach NEENTER with a valid operand pair, and the
ISA would #GP if it did.

Arguments and return values cross the boundary as plain Python objects
(the serialisation a real bridge performs is out of scope); application
*data flows* that matter to the security story — heaps, rings, leaked
buffers — all live in simulated enclave memory accessed through the
validated core path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import nested_isa
from repro.errors import (AccessViolation, PageFault, SdkError, TcsBusy,
                          UnknownInterfaceError)
from repro.os.kernel import Kernel, Process
from repro.perf.costmodel import ECALL_RETRY_BACKOFF_NS
from repro.sdk.builder import EnclaveImage
from repro.sdk.heap import EnclaveHeap
from repro.sgx import isa
from repro.sgx.constants import TCS_IDLE
from repro.sgx.cpu import Core
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs

#: Bounded retry budget for transient ecall entry failures (TCS busy,
#: evicted-page refault).  Each retry charges ECALL_RETRY_BACKOFF_NS of
#: simulated backoff; the last failure propagates typed.
ECALL_MAX_ATTEMPTS = 4


class EnclaveContext:
    """The view enclave code gets of its world while it runs.

    Provides validated memory access (relative to the enclave), the
    enclave heap, and the legal outbound call surfaces.
    """

    def __init__(self, host: "EnclaveHost", handle: "EnclaveHandle",
                 core: Core) -> None:
        self.host = host
        self.handle = handle
        self.core = core

    # -- memory ------------------------------------------------------------
    @property
    def heap(self) -> EnclaveHeap:
        return self.handle.heap

    def read(self, vaddr: int, size: int) -> bytes:
        return self.core.read(vaddr, size)

    def write(self, vaddr: int, data: bytes) -> None:
        self.core.write(vaddr, data)

    def malloc(self, nbytes: int) -> int:
        return self.handle.heap.malloc(self.core, nbytes)

    def free(self, addr: int) -> None:
        self.handle.heap.free(self.core, addr)

    # -- outbound calls ------------------------------------------------------
    def ocall(self, name: str, *args: Any) -> Any:
        """Call an untrusted function: EEXIT → run → EENTER back."""
        if name not in self.handle.image.edl.untrusted:
            raise UnknownInterfaceError(
                f"{name!r} is not an EDL-declared ocall of "
                f"{self.handle.image.name!r}")
        func = self.host.untrusted_functions.get(name)
        if func is None:
            raise SdkError(f"no untrusted implementation for {name!r}")
        machine = self.host.machine
        # An ocall from a nested frame must unwind through NEEXIT first in
        # real hardware; the runtime models the common case (ocall from
        # the frame that EENTERed) and nested code uses n_ocall instead.
        saved_stack = list(self.core.enclave_stack)
        saved_tcs = list(self.core.tcs_stack)
        if len(saved_stack) != 1:
            raise SdkError(
                "ocall from a nested frame: use n_ocall to reach the "
                "outer enclave, which may then ocall")
        isa.eexit(machine, self.core)
        try:
            result = func(self.host, *args)
        finally:
            isa.eenter(machine, self.core,
                       machine.enclave(saved_stack[-1]), saved_tcs[-1])
        machine.cost.charge_event("ocall")
        return result

    def n_ecall(self, inner: "EnclaveHandle", name: str, *args: Any) -> Any:
        """Call into an inner enclave: NEENTER → run → NEEXIT."""
        if name not in inner.image.edl.nested_trusted:
            raise UnknownInterfaceError(
                f"{name!r} is not an EDL-declared n_ecall of "
                f"{inner.image.name!r}")
        machine = self.host.machine
        tcs_vaddr = inner.idle_tcs()
        nested_isa.neenter(machine, self.core, inner.secs, tcs_vaddr)
        try:
            inner_ctx = EnclaveContext(self.host, inner, self.core)
            result = inner.image.entry(name)(inner_ctx, *args)
        finally:
            nested_isa.neexit(machine, self.core)
        machine.cost.charge_event("n_ecall")
        return result

    def n_ocall(self, name: str, *args: Any) -> Any:
        """Call an outer-enclave function from an inner enclave:
        NEEXIT to the outer frame → run → NEENTER back."""
        outer = self.handle.outer
        if outer is None:
            raise SdkError(
                f"{self.handle.image.name!r} has no associated outer "
                f"enclave for n_ocall")
        if name not in self.handle.image.edl.nested_untrusted:
            raise UnknownInterfaceError(
                f"{name!r} is not an EDL-declared n_ocall of "
                f"{self.handle.image.name!r}")
        if name not in outer.image.edl.trusted \
                and name not in outer.image.edl.nested_trusted:
            raise UnknownInterfaceError(
                f"outer enclave {outer.image.name!r} does not export "
                f"{name!r}")
        machine = self.host.machine
        stack = self.core.enclave_stack
        if len(stack) >= 2 and stack[-2] == outer.secs.eid:
            # Return form: resume the outer context suspended by the
            # NEENTER that brought us here, then NEENTER back in.
            inner_secs = self.handle.secs
            inner_tcs = self.core.tcs_stack[-1]
            nested_isa.neexit(machine, self.core)
            try:
                outer_ctx = EnclaveContext(self.host, outer, self.core)
                result = outer.image.entry(name)(outer_ctx, *args)
            finally:
                nested_isa.neenter(machine, self.core, inner_secs,
                                   inner_tcs)
        else:
            # Call form: the inner enclave was entered directly from
            # untrusted code (Fig. 5 allows it); occupy an outer TCS.
            tcs_vaddr = outer.idle_tcs()
            nested_isa.neexit_call(machine, self.core, outer.secs,
                                   tcs_vaddr)
            try:
                outer_ctx = EnclaveContext(self.host, outer, self.core)
                result = outer.image.entry(name)(outer_ctx, *args)
            finally:
                nested_isa.neexit_return(machine, self.core)
        machine.cost.charge_event("n_ocall")
        return result

    # -- attestation ------------------------------------------------------------
    def report(self, target_mrenclave: bytes,
               report_data: bytes = b"") -> isa.Report:
        return isa.ereport(self.host.machine, self.core, target_mrenclave,
                           report_data)

    def get_key(self, key_type: str) -> bytes:
        return isa.egetkey(self.host.machine, self.core, key_type)


@dataclass
class EnclaveHandle:
    """Host-side handle to one loaded enclave."""

    host: "EnclaveHost"
    image: EnclaveImage
    secs: Secs
    base_addr: int
    heap: EnclaveHeap
    outer: "EnclaveHandle | None" = None
    inners: list["EnclaveHandle"] = field(default_factory=list)

    @property
    def eid(self) -> int:
        return self.secs.eid

    def addr(self, offset: int) -> int:
        """Absolute virtual address of an image offset."""
        return self.base_addr + offset

    def idle_tcs(self) -> int:
        for offset in self.image.tcs_offsets:
            vaddr = self.base_addr + offset
            if self.host.machine.tcs(self.secs.eid, vaddr).state == TCS_IDLE:
                return vaddr
        raise SdkError(f"no idle TCS in {self.image.name!r}")

    def ecall(self, name: str, *args: Any, core: Core | None = None) -> Any:
        """Untrusted → enclave call, with bounded recovery.

        Transient entry failures — a busy TCS, or a #PF on a page the OS
        evicted (EWB) that the driver can reload (ELDB) — are retried up
        to :data:`ECALL_MAX_ATTEMPTS` times with a simulated-time backoff
        between attempts.  A retry re-runs the *whole* entry function, so
        recovery-dependent entries must be idempotent (ours are: they
        compute over enclave state rather than consuming inputs).
        Non-transient faults (access violations, SDK misuse, application
        exceptions) propagate immediately after unwinding the core back
        to non-enclave mode.
        """
        if name not in self.image.edl.trusted:
            raise UnknownInterfaceError(
                f"{name!r} is not an EDL-declared ecall of "
                f"{self.image.name!r}")
        machine = self.host.machine
        core = core or self.host.core
        for attempt in range(ECALL_MAX_ATTEMPTS):
            try:
                tcs_vaddr = self.idle_tcs()
                isa.eenter(machine, core, self.secs, tcs_vaddr)
            except (TcsBusy, SdkError):
                if attempt == ECALL_MAX_ATTEMPTS - 1:
                    raise
                machine.cost.charge("ecall_backoff", ECALL_RETRY_BACKOFF_NS)
                continue
            try:
                ctx = EnclaveContext(self.host, self, core)
                result = self.image.entry(name)(ctx, *args)
            except PageFault as fault:
                self._unwind(machine, core, tcs_vaddr)
                if isinstance(fault, AccessViolation):
                    raise
                if attempt < ECALL_MAX_ATTEMPTS - 1 \
                        and self.host.kernel.driver.handle_page_fault(
                            self.secs, fault.vaddr):
                    machine.cost.charge("ecall_backoff",
                                        ECALL_RETRY_BACKOFF_NS)
                    continue
                raise
            # Unwind-and-reraise: broad by design — every failure class,
            # including application exceptions, must leave the core out
            # of enclave mode before propagating.
            except BaseException:  # simlint: disable=SIM004
                self._unwind(machine, core, tcs_vaddr)
                raise
            isa.eexit(machine, core)
            machine.cost.charge_event("ecall")
            return result

    def _unwind(self, machine: Machine, core: Core, tcs_vaddr: int) -> None:
        """Return the core to non-enclave mode after a failed entry.

        Handles the AEX-parked case first (the fault interrupted the
        thread and its context sits in the root TCS), then peels any
        nested frames the entry left behind, then EEXITs the root frame.
        """
        if not core.in_enclave_mode:
            tcs = machine.tcs(self.secs.eid, tcs_vaddr)
            if tcs.saved_context is None:
                return
            isa.eresume(machine, core, self.secs, tcs_vaddr)
        while len(core.enclave_stack) > 1:
            nested_isa.neexit(machine, core)
        if core.in_enclave_mode:
            isa.eexit(machine, core)


class EnclaveHost:
    """The untrusted application hosting one process's enclaves."""

    def __init__(self, machine: Machine, kernel: Kernel,
                 proc: Process | None = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.proc = proc or kernel.spawn("host")
        self.core = kernel.run_on_core(self.proc)
        self.handles: list[EnclaveHandle] = []
        self.untrusted_functions: dict[str, Callable] = {}

    # -- lifecycle ------------------------------------------------------------
    def load(self, image: EnclaveImage) -> EnclaveHandle:
        secs = self.kernel.driver.load_enclave(self.proc, image)
        handle = EnclaveHandle(
            host=self, image=image, secs=secs, base_addr=secs.base_addr,
            heap=EnclaveHeap(secs.base_addr + image.heap_offset,
                             image.heap_bytes))
        self.handles.append(handle)
        self._init_heap(handle)
        return handle

    def _init_heap(self, handle: EnclaveHandle) -> None:
        """Format the enclave heap from inside (a hidden bootstrap ecall)."""
        tcs_vaddr = handle.idle_tcs()
        isa.eenter(self.machine, self.core, handle.secs, tcs_vaddr)
        try:
            handle.heap.initialise(self.core)
        finally:
            isa.eexit(self.machine, self.core)

    def associate(self, inner: EnclaveHandle,
                  outer: EnclaveHandle, *,
                  allow_lattice: bool = False) -> None:
        """NASSO the pair (driver ioctl) and wire up the handles."""
        self.kernel.driver.associate(inner.secs, outer.secs,
                                     allow_lattice=allow_lattice)
        inner.outer = outer
        outer.inners.append(inner)

    def register_untrusted(self, name: str, func: Callable) -> None:
        """Provide the host-side implementation of an ocall."""
        self.untrusted_functions[name] = func

    def unload(self, handle: EnclaveHandle) -> None:
        self.kernel.driver.unload_enclave(handle.secs)
        self.handles.remove(handle)
