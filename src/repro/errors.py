"""Exception hierarchy for the nested-enclave simulator.

The simulator models hardware behaviour; illegal operations that a real
SGX-enabled processor would reject with a fault code raise a subclass of
:class:`SgxFault`.  Software-level misuse of the SDK or the simulator API
raises :class:`SdkError` subclasses instead.  Keeping the two trees separate
lets tests assert that a given attack is stopped *by the hardware model*
(``SgxFault``) rather than by an incidental software check.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


# ---------------------------------------------------------------------------
# Hardware-model faults
# ---------------------------------------------------------------------------

class SgxFault(ReproError):
    """An operation the simulated processor refuses to perform."""


class GeneralProtectionFault(SgxFault):
    """#GP — illegal instruction usage (bad NEENTER/NEEXIT, bad operands)."""


class PageFault(SgxFault):
    """#PF — translation exists but the access is not permitted, or the
    target EPC page is not present (e.g. it was evicted with EWB)."""

    def __init__(self, message: str, vaddr: int = 0):
        super().__init__(message)
        self.vaddr = vaddr


class AccessViolation(PageFault):
    """Access blocked by the EPC access-validation automaton (paper Fig. 2/6).

    Raised when the requested translation would expose enclave memory to a
    domain that must not see it: non-enclave code touching PRM, an outer
    enclave touching an inner enclave, a peer inner enclave touching its
    sibling, or any enclave touching a non-owner EPC page.
    """


class IntegrityViolation(SgxFault):
    """The MEE integrity tree detected tampered DRAM contents."""


class MeasurementMismatch(SgxFault):
    """Attestation or NASSO rejected an enclave whose measurement or signer
    does not match the expected digest embedded in the peer's signed image."""


class SigstructInvalid(SgxFault):
    """EINIT rejected an enclave: the author signature does not verify or
    the signed measurement differs from the actual one."""


class TcsBusy(SgxFault):
    """EENTER/NEENTER targeted a TCS that is already in use."""


class EnclaveStateError(SgxFault):
    """An ISA leaf was used on an enclave in the wrong lifecycle state
    (e.g. EADD after EINIT, EENTER before EINIT)."""


class EvictionConflict(SgxFault):
    """EWB attempted while stale translations may survive in some TLB —
    the thread-tracking protocol of §IV-E was not followed."""


# ---------------------------------------------------------------------------
# Software-level errors
# ---------------------------------------------------------------------------

class SdkError(ReproError):
    """Misuse of the SDK layer (EDL, builder, runtime)."""


class EdlSyntaxError(SdkError):
    """The EDL source could not be parsed."""


class UnknownInterfaceError(SdkError):
    """A call referenced an ecall/ocall name that the EDL does not declare."""


class ChannelError(ReproError):
    """Misuse or corruption detected on an inter-enclave channel."""


class IpcTimeout(ChannelError):
    """An IPC receive exhausted its simulated-time deadline with no
    message arriving.  Subclasses :class:`ChannelError` so legacy callers
    that catch the broad class keep working."""


class ChannelTimeout(ChannelError):
    """A reliable secure-channel exchange exhausted its retry budget —
    the lossy transport dropped the request or the response every time."""


class DeadlineExceeded(ChannelError):
    """A request's propagated deadline passed before a response arrived
    (or before the server dispatched it) — the caller gets this typed
    error instead of a hang or a silently late answer."""


class CryptoError(ReproError):
    """Authenticated decryption failed, bad key sizes, etc."""


# ---------------------------------------------------------------------------
# Attestation-protocol errors
# ---------------------------------------------------------------------------

class AttestationError(ReproError):
    """The attestation *protocol* layer rejected a handshake.

    Distinct from :class:`MeasurementMismatch` (the hardware-model
    verdict on a measurement): these are software-protocol rejections —
    forged report MACs, replayed nonces, invalid resumption tickets."""


class ReportForgery(AttestationError, MeasurementMismatch):
    """A report failed cryptographic verification: the MAC does not
    verify under the target's report key, or the report data does not
    bind the value the protocol requires.  Subclasses
    :class:`MeasurementMismatch` so legacy callers that catch the broad
    class keep working."""


class HandshakeReplay(AttestationError):
    """A handshake nonce (or session resumption nonce) was presented
    twice — a replayed handshake transcript, rejected before any key is
    derived."""


class TicketInvalid(AttestationError):
    """A session-resumption ticket failed MAC verification or named an
    unknown tenant."""


# ---------------------------------------------------------------------------
# Serving-layer (host) errors
# ---------------------------------------------------------------------------

class HostError(ReproError):
    """Base class for multi-tenant serving-layer failures."""


class LoadShed(HostError):
    """The host refused a request *before* doing work on it: the bounded
    admission queue was full (``reason="queue"``), the tenant's token
    bucket was empty (``reason="rate"``), or the target backend's
    circuit breaker was open (``reason="breaker"``)."""

    def __init__(self, message: str, reason: str = "queue"):
        super().__init__(message)
        self.reason = reason


class BackendUnavailable(HostError):
    """A backend failed a request for a transient, retryable reason —
    the signal the circuit breaker counts.  Never raised for integrity
    failures: :class:`IntegrityViolation` is fail-stop."""


class ClaimFailed(ReproError):
    """An experiment finished, but its result does not show a shape the
    paper reports (a :class:`repro.experiments.claims.Claim`).  Claims
    are deterministic, so the runner never retries one."""


class FaultInjectionError(ReproError):
    """The fault-injection engine itself detected an inconsistency: an
    injection left the machine in a state where
    :func:`repro.core.invariants.audit_machine` reports violations, or a
    fault plan could not be applied as specified.  Distinct from the
    typed faults an injection *causes* (those use the hardware tree)."""
