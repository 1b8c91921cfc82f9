"""The Panoply-style OS message-drop attack (paper §VII-B).

Scenario: a target application enclave asks a trusted *certificate
manager* enclave to verify an SSL certificate.  The application
registers the check with an initialisation message and proceeds once it
has seen no explicit failure.  A malicious OS that carries the channel
silently drops the initialisation message: the callback never runs, no
error surfaces, and the application accepts an invalid certificate.

Three transports implement the same protocol:

* ``run_over_os_ipc``  — baseline: GCM-sealed messages over OS IPC.
  Sealing stops forgery/replay, but the drop is silent; the attack
  succeeds.  The drop is a :func:`~repro.faults.ipc.dropping_policy`
  set on the kernel's router — the same policy hook through which
  ``python -m repro.runner --chaos`` injects a plan's IPC faults.
* ``run_over_reliable_link`` — hardened baseline: the OS still carries
  the bytes, but the exchange runs over a
  :class:`~repro.sdk.secure_channel.ReliableLink`.  Intermittent drops
  are absorbed by idempotent resends; a total blackout surfaces as a
  typed :class:`~repro.errors.ChannelTimeout`, so the application
  fails *closed* instead of proceeding on silence.
* ``run_over_nested_ring`` — the application and the certificate
  manager are peer inner enclaves exchanging messages through their
  shared outer enclave's ring.  The OS never carries the bytes, so it
  has nothing to drop; the attack has no purchase.

All runners return a :class:`CertCheckOutcome` stating whether the
verification actually executed and what the application concluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.channel import SharedRing
from repro.errors import ChannelTimeout
from repro.faults.ipc import dropping_policy
from repro.sdk.secure_channel import GcmChannel, reliable_pair


@dataclass
class CertCheckOutcome:
    check_executed: bool        # did the certificate manager ever run?
    app_accepted: bool          # did the application proceed?
    explicit_failure_seen: bool

    @property
    def attack_succeeded(self) -> bool:
        """The application accepted without the check having run."""
        return self.app_accepted and not self.check_executed


#: A certificate that must fail verification (self-signed by an
#: untrusted party); accepting it means the attack worked.
BOGUS_CERT = b"CERT:subject=evil.example;signer=evil.example"
VALID_SIGNERS = (b"trust-root.example",)


def _verify_certificate(cert: bytes) -> bool:
    """The certificate manager's check (runs inside its enclave)."""
    try:
        fields = dict(item.split(b"=", 1)
                      for item in cert.split(b":", 1)[1].split(b";"))
    except (IndexError, ValueError):
        # No ':' body, or an item with no '=': a malformed certificate
        # fails closed.  Anything else (a simulator fault) must surface.
        return False
    return fields.get(b"signer") in VALID_SIGNERS


def _await_verdict(try_recv, executed: int) -> CertCheckOutcome:
    """The application side, transport-agnostic: poll briefly for a
    verdict after the fire-and-forget registration.

    Mirrors the attacked OpenSSL pattern: silence is (mis)interpreted as
    "no objection", and only an *explicit* failure response stops the
    application.  ``executed`` is how many checks the manager ran.
    """
    explicit_failure = False
    for _ in range(4):
        if try_recv() == b"CHECK-FAILED":
            explicit_failure = True
    return CertCheckOutcome(check_executed=executed > 0,
                            app_accepted=not explicit_failure,
                            explicit_failure_seen=explicit_failure)


def _manager_service(recv, send) -> int:
    """Certificate-manager loop body: drain requests, answer verdicts.
    Returns how many checks ran."""
    executed = 0
    while True:
        request = recv()
        if request is None:
            return executed
        if request.startswith(b"INIT-CHECK:"):
            executed += 1
            cert = request[len(b"INIT-CHECK:"):]
            send(b"CHECK-OK" if _verify_certificate(cert)
                 else b"CHECK-FAILED")


def run_over_os_ipc(machine, kernel, *, os_drops: bool) -> CertCheckOutcome:
    """Baseline transport: sealed messages through OS IPC."""
    if os_drops:
        kernel.ipc.policy = dropping_policy(
            lambda port, msg: port.endswith(":to-mgr"))
    kernel.ipc.create_port("cert:to-mgr")
    kernel.ipc.create_port("cert:to-app")
    key = b"cert-channel-key"
    app_tx = GcmChannel(machine, kernel.ipc, "cert:to-mgr", key)
    app_rx = GcmChannel(machine, kernel.ipc, "cert:to-app", key)
    mgr_rx = GcmChannel(machine, kernel.ipc, "cert:to-mgr", key)
    mgr_tx = GcmChannel(machine, kernel.ipc, "cert:to-app", key)

    # Interleave: app sends, manager drains, app polls.
    app_tx.send(b"INIT-CHECK:" + BOGUS_CERT)
    executed = _manager_service(mgr_rx.try_recv, mgr_tx.send)
    return _await_verdict(app_rx.try_recv, executed)


def run_over_reliable_link(machine, kernel, *, drop_first: int = 0,
                           drop_all: bool = False) -> CertCheckOutcome:
    """Hardened baseline: same OS-carried bytes, but request/response
    over a :class:`ReliableLink` with resends and a typed timeout.

    ``drop_first`` drops that many leading request datagrams (the
    resend budget absorbs them); ``drop_all`` blacks the request port
    out entirely, turning the silent-drop attack into an explicit
    :class:`ChannelTimeout` the application handles by failing closed.
    """
    if drop_all:
        kernel.ipc.policy = dropping_policy(
            lambda port, msg: port.endswith(":req"))
    elif drop_first:
        remaining = {"n": drop_first}

        def should_drop(port: str, msg: bytes) -> bool:
            if not port.endswith(":req") or remaining["n"] <= 0:
                return False
            remaining["n"] -= 1
            return True

        kernel.ipc.policy = dropping_policy(should_drop)

    executed = {"n": 0}

    def manager(payload: bytes) -> bytes:
        if not payload.startswith(b"INIT-CHECK:"):
            return b"CHECK-FAILED"
        executed["n"] += 1
        cert = payload[len(b"INIT-CHECK:"):]
        return b"CHECK-OK" if _verify_certificate(cert) \
            else b"CHECK-FAILED"

    link, responder = reliable_pair(machine, kernel.ipc, "cert",
                                    b"cert-channel-key", manager)
    try:
        verdict = link.call(b"INIT-CHECK:" + BOGUS_CERT,
                            pump=responder.pump)
    except ChannelTimeout:
        # Loud failure: the application refuses to proceed without a
        # verdict — the opposite of the Panoply silence-is-consent bug.
        return CertCheckOutcome(check_executed=executed["n"] > 0,
                                app_accepted=False,
                                explicit_failure_seen=True)
    return CertCheckOutcome(check_executed=executed["n"] > 0,
                            app_accepted=verdict != b"CHECK-FAILED",
                            explicit_failure_seen=verdict
                            == b"CHECK-FAILED")


def run_over_nested_ring(machine, app_core, mgr_core,
                         ring_to_mgr: SharedRing,
                         ring_to_app: SharedRing) -> CertCheckOutcome:
    """Nested transport: both parties are inner enclaves; the rings live
    in their shared outer enclave.  The OS is not on the path."""
    ring_to_mgr.send(app_core, b"INIT-CHECK:" + BOGUS_CERT)
    executed = _manager_service(
        lambda: ring_to_mgr.try_recv(mgr_core),
        lambda verdict: ring_to_app.send(mgr_core, verdict))
    return _await_verdict(lambda: ring_to_app.try_recv(app_core), executed)
