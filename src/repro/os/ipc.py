"""OS-controlled IPC — the baseline inter-enclave channel.

In monolithic SGX, two enclaves talk by copying messages through
*untrusted* memory using OS IPC primitives (pipes, shared mappings), so
the payload must be protected with software authenticated encryption
(AES-GCM) and — crucially — **delivery itself is at the OS's mercy**.
Panoply-style attacks (paper §VII-B) exploit exactly that: the OS can
silently drop, reorder, replay or forge messages.

:class:`IpcRouter` models that channel: byte-string messages flow through
per-port FIFO queues that live in kernel (attacker) memory.  Every
message passes through :meth:`IpcRouter.deliver`, which consults the
router's delivery :attr:`~IpcRouter.policy` — ``None`` for honest FIFO
delivery, or a function ``policy(n, port, message) -> action`` called
with the 1-based count of messages it has been shown.  Actions:

``deliver``
    Honest FIFO delivery.
``drop``
    The message vanishes (malicious: no sealed channel can detect a
    trailing silent drop; only end-to-end acknowledgements recover).
``dup``
    The message is enqueued twice (benign: sequence numbers let the
    receiver discard the duplicate).
``delay``
    The message is held back and released *before* the next message to
    the same port (or when the receiver polls an empty queue), so FIFO
    order is preserved — a pure latency wobble.
``reorder``
    The message is held back and released *after* the next message to
    the same port — a visible inversion the receiver's reorder window
    must absorb.

Held messages are always flushed before a receiver can observe an empty
queue it would otherwise have found non-empty, so synchronous
request/response protocols never deadlock on a benign fault.

The policy is the one IPC interposition point: the fault engine sets
it from a plan (:func:`repro.faults.ipc.plan_policy`), attack code sets
a :func:`~repro.faults.ipc.dropping_policy`, and an OS that forges or
replays a message simply calls :meth:`IpcRouter.deliver` itself.
Because every channel holds the kernel's one router, a policy set at
any time governs all traffic from then on.  The *secure* use of this
channel (GCM sealing + sequence numbers) is layered on top by
:class:`repro.sdk.secure_channel.GcmChannel` — and the attack tests
show which attacks sealing does and does not stop (encryption stops
forgery; nothing stops a silent drop).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import ChannelError, IpcTimeout
from repro.perf.costmodel import IPC_POLL_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.kernel import Kernel

#: policy(n, port, message) -> action name.
Policy = Callable[[int, str, bytes], str]

_ACTIONS = frozenset({"deliver", "drop", "dup", "delay", "reorder"})


class IpcRouter:
    """Named FIFO message ports in untrusted kernel memory."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._ports: dict[str, deque[bytes]] = {}
        self.delivered = 0
        self.dropped = 0
        #: Delivery policy; ``None`` means honest FIFO delivery.
        self.policy: Policy | None = None
        #: 1-based count of messages presented to the policy.
        self.seen = 0
        #: (n, action) for every non-honest decision, for tests/plans.
        self.actions: list[tuple[int, str]] = []
        #: port -> held-back (mode, message) pairs, FIFO among
        #: themselves; a port leaves the dict when its last one goes.
        self._held: dict[str, list[tuple[str, bytes]]] = {}

    def create_port(self, name: str) -> None:
        if name in self._ports:
            raise ChannelError(f"port {name!r} already exists")
        self._ports[name] = deque()

    def _port(self, name: str) -> deque[bytes]:
        port = self._ports.get(name)
        if port is None:
            raise ChannelError(f"no port {name!r}")
        return port

    # -- the attacker-controlled path --------------------------------------
    def deliver(self, port: str, message: bytes) -> None:
        """Enqueue ``message`` on ``port`` as the policy decides."""
        action = "deliver"
        if self.policy is not None:
            self.seen += 1
            action = self.policy(self.seen, port, message)
            if action not in _ACTIONS:
                raise ValueError(f"unknown IPC fault action {action!r}")
            if action != "deliver":
                self.actions.append((self.seen, action))
            if action == "drop":
                self.dropped += 1
                return
            if action == "delay" or action == "reorder":
                self._held.setdefault(port, []).append(
                    (action, bytes(message)))
                return
        queue = self._port(port)
        held = self._held.pop(port, None) if self._held else None
        if held:
            for mode, held_message in held:
                if mode == "delay":
                    queue.append(held_message)
                    self.delivered += 1
        queue.append(bytes(message))
        self.delivered += 1
        if action == "dup":
            queue.append(bytes(message))
            self.delivered += 1
        if held:
            for mode, held_message in held:
                if mode == "reorder":
                    queue.append(held_message)
                    self.delivered += 1

    def send(self, port: str, message: bytes) -> None:
        self.deliver(port, message)

    def try_recv(self, port: str) -> bytes | None:
        queue = self._port(port)
        if not queue:
            held = self._held.pop(port, None) if self._held else None
            if held is None:
                return None
            for _, held_message in held:
                queue.append(held_message)
                self.delivered += 1
        return queue.popleft()

    def recv(self, port: str, timeout_ns: float | None = None) -> bytes:
        """Blocking receive with a bounded simulated-time deadline.

        Polls the port every :data:`IPC_POLL_NS` of simulated time until
        a message arrives or ``timeout_ns`` has elapsed, then raises a
        typed :class:`IpcTimeout`.  ``timeout_ns=None`` (the legacy
        busy-spin semantics, which could never make progress on an empty
        port anyway) raises immediately instead of spinning forever.
        """
        message = self.try_recv(port)
        if message is not None:
            return message
        if timeout_ns is not None:
            charge = self.kernel.machine.cost.charge
            for _ in range(max(1, int(timeout_ns / IPC_POLL_NS))):
                charge("ipc_poll", IPC_POLL_NS)
                message = self.try_recv(port)
                if message is not None:
                    return message
        raise IpcTimeout(f"port {port!r} empty")

    def pending(self, port: str) -> int:
        return len(self._port(port))
