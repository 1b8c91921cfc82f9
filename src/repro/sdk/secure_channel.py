"""Software-sealed channel over untrusted IPC — the monolithic baseline.

When two monolithic enclaves communicate, every message crosses untrusted
memory, so it must be sealed with authenticated encryption (AES-GCM here,
as in the paper's Fig. 11 "GCM" series) and numbered against reordering /
replay.  :class:`GcmChannel` implements that discipline over the kernel's
:class:`~repro.os.ipc.IpcRouter` and charges the software-crypto cost to
the simulated clock.

What GCM **can** stop: forgery, tampering, replay; and — via the sequence
number in the AAD plus a bounded reorder window — OS-reordered and
OS-duplicated traffic is *absorbed*: early messages are stashed until
their turn, duplicates are discarded silently.  What it **cannot** stop:
the OS silently *dropping* a message — the receiver simply never sees it
and, unless the application protocol adds its own end-to-end
acknowledgements, proceeds as if it was never sent.  That residual
weakness is the Panoply attack of §VII-B and is demonstrated in
``tests/attacks/test_ipc_drop.py``; the nested-enclave ring channel is
immune because the OS never carries the messages at all.

:class:`ReliableLink` closes the gap where an application needs forward
progress over a *lossy* router: a request/response exchange with
idempotent resends, responder-side deduplication by request ID, and a
typed :class:`~repro.errors.ChannelTimeout` once the retry budget is
spent.  It deliberately does **not** layer over :class:`GcmChannel`
(strict per-message sequencing plus resends would deadlock after a
drop); it seals each datagram independently, with the 12-byte header —
direction byte, request ID, per-endpoint send counter — serving as both
nonce and AAD, so retries and re-answers never reuse a nonce and a
reflected or cross-spliced datagram fails authentication.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.gcm import AesGcm
from repro.errors import (ChannelError, ChannelTimeout, CryptoError,
                          DeadlineExceeded)
from repro.os.ipc import IpcRouter
from repro.perf import counters as ctr
from repro.perf.costmodel import CHANNEL_RETRY_BACKOFF_NS
from repro.sgx.machine import Machine

#: How far ahead of the expected sequence number a received message may
#: run before the receiver declares the stream corrupt.  Bounds the
#: stash (memory) and turns a huge forged sequence number into a typed
#: error instead of an allocation.
REORDER_WINDOW = 64

#: Request/response attempts a ReliableLink makes before raising
#: ChannelTimeout; retries charge the BackoffPolicy schedule.
RELIABLE_MAX_ATTEMPTS = 5

#: Byte-identical datagrams an endpoint remembers for silent duplicate
#: discard.  OS-manufactured duplicates repeat the 12-byte header
#: (nonce) exactly; genuine resends always carry a fresh send counter,
#: so a bounded window of seen headers separates the two without
#: decrypting — and therefore without charging costs the sender never
#: paid for.
DUP_WINDOW = 128


@dataclass(frozen=True)
class BackoffPolicy:
    """Seeded deterministic exponential backoff with jitter.

    ``schedule(rid, attempts)`` is a pure function of the policy and the
    request ID: attempt *k* waits ``base_ns * multiplier**k`` capped at
    ``cap_ns``, then shaved by up to ``jitter`` (a fraction) drawn from
    ``random.Random`` seeded with ``(seed, rid)`` — so concurrent
    requests decorrelate (different rids), while any replay of the same
    request charges the identical simulated waits (chaos fingerprints
    stay byte-stable and the schedule is unit-testable).
    """

    base_ns: float = CHANNEL_RETRY_BACKOFF_NS
    multiplier: float = 2.0
    cap_ns: float = 8 * CHANNEL_RETRY_BACKOFF_NS
    jitter: float = 0.5
    seed: int = 0

    def schedule(self, rid: int, attempts: int) -> "list[float]":
        rng = random.Random((self.seed << 32) ^ rid)
        waits = []
        for attempt in range(attempts):
            raw = min(self.base_ns * self.multiplier ** attempt,
                      self.cap_ns)
            waits.append(raw * (1.0 - self.jitter * rng.random()))
        return waits


class GcmChannel:
    """One direction of a sealed enclave-to-enclave channel."""

    def __init__(self, machine: Machine, router: IpcRouter, port: str,
                 key: bytes, cipher=AesGcm) -> None:
        self.machine = machine
        self.router = router
        self.port = port
        self._gcm = cipher(key)
        self._send_seq = 0
        self._recv_seq = 0
        #: seq -> raw message received ahead of order, awaiting its turn.
        self._stash: dict[int, bytes] = {}

    def _nonce(self, seq: int) -> bytes:
        return seq.to_bytes(12, "little")

    def send(self, plaintext: bytes) -> None:
        """Seal + hand to the OS.  Charges the software GCM cost."""
        seq = self._send_seq
        self._send_seq += 1
        aad = seq.to_bytes(8, "little")
        sealed = self._gcm.seal(self._nonce(seq), plaintext, aad)
        self.machine.cost.charge_gcm(len(plaintext))
        self.machine.cost.charge_event("ipc_syscall")
        self.machine.counters.bump(ctr.GCM_SEAL)
        self.router.send(self.port, aad + sealed)

    def try_recv(self) -> bytes | None:
        """Receive + verify the next in-order message.

        Messages ahead of order (up to :data:`REORDER_WINDOW`) are
        stashed until their turn; duplicates and already-consumed
        sequence numbers are discarded silently (and without charging —
        the *sender* never paid to emit them, the OS manufactured them).
        Returns None when neither the stash nor the OS has the next
        message.  Raises :class:`ChannelError` when a message runs past
        the reorder window (a corrupt or hostile stream) and
        :class:`CryptoError` on forged/corrupt data.
        """
        while True:
            raw = self._stash.pop(self._recv_seq, None)
            if raw is None:
                raw = self.router.try_recv(self.port)
                if raw is None:
                    return None
                if len(raw) < 8 + self._gcm.TAG_LEN:
                    raise CryptoError("runt sealed message")
                seq = int.from_bytes(raw[:8], "little")
                if seq < self._recv_seq or seq in self._stash:
                    continue  # duplicate of a consumed/stashed message
                if seq > self._recv_seq:
                    if seq - self._recv_seq > REORDER_WINDOW:
                        raise ChannelError(
                            f"sequence gap: expected {self._recv_seq}, "
                            f"got {seq} — beyond the {REORDER_WINDOW}-"
                            "message reorder window")
                    self._stash[seq] = raw
                    continue
            seq = self._recv_seq
            plaintext = self._gcm.open(self._nonce(seq), raw[8:], raw[:8])
            self.machine.cost.charge_gcm(len(plaintext))
            self.machine.cost.charge_event("ipc_syscall")
            self.machine.counters.bump(ctr.GCM_OPEN)
            self._recv_seq += 1
            return plaintext

    def recv(self) -> bytes:
        message = self.try_recv()
        if message is None:
            raise ChannelError(f"no message pending on {self.port!r}")
        return message


def paired_channels(machine: Machine, router: IpcRouter, name: str,
                    key: bytes) -> tuple[GcmChannel, GcmChannel]:
    """A bidirectional link: (a→b, b→a) halves sharing one key."""
    router.create_port(name + ":fwd")
    router.create_port(name + ":rev")
    fwd = GcmChannel(machine, router, name + ":fwd", key)
    rev = GcmChannel(machine, router, name + ":rev", key)
    return fwd, rev


# ---------------------------------------------------------------------------
# Reliable request/response over a lossy router
# ---------------------------------------------------------------------------

#: Datagram kinds — also the first nonce byte, so client- and
#: server-originated datagrams live in disjoint nonce spaces under the
#: one shared key.
_KIND_REQUEST = 0x51   # 'Q'
_KIND_RESPONSE = 0x53  # 'S'

_HEADER_LEN = 12  # kind(1) + request id(8, little) + send counter(3)


class _ReliableEndpoint:
    """Shared sealing machinery for the two ends of a reliable link."""

    def __init__(self, machine: Machine, router: IpcRouter,
                 key: bytes, cipher=AesGcm) -> None:
        self.machine = machine
        self.router = router
        self._gcm = cipher(key)
        self._send_counter = 0
        #: Recently received headers (nonces), for silent dup discard.
        self._seen_headers: OrderedDict[bytes, None] = OrderedDict()

    def _is_duplicate(self, raw: bytes) -> bool:
        """True for a byte-replayed datagram (an OS-manufactured dup of
        one already processed).  Duplicates are discarded *without*
        decrypting and without charging: the sender never paid to emit
        them, so absorbing them must not perturb the simulated clock —
        that is what keeps benign ``dup`` fault plans byte-transparent
        in the chaos fingerprints."""
        header = bytes(raw[:_HEADER_LEN])
        if header in self._seen_headers:
            return True
        self._seen_headers[header] = None
        if len(self._seen_headers) > DUP_WINDOW:
            self._seen_headers.popitem(last=False)
        return False

    def _seal(self, port: str, kind: int, rid: int,
              payload: bytes) -> None:
        counter = self._send_counter
        self._send_counter += 1
        header = (bytes([kind]) + rid.to_bytes(8, "little")
                  + counter.to_bytes(3, "little"))
        sealed = self._gcm.seal(header, payload, header)
        self.machine.cost.charge_gcm(len(payload))
        self.machine.cost.charge_event("ipc_syscall")
        self.machine.counters.bump(ctr.GCM_SEAL)
        self.router.send(port, header + sealed)

    def _open(self, raw: bytes) -> tuple[int, int, bytes]:
        """-> (kind, rid, payload); raises CryptoError on forgery."""
        if len(raw) < _HEADER_LEN + self._gcm.TAG_LEN:
            raise CryptoError("runt reliable datagram")
        header = raw[:_HEADER_LEN]
        payload = self._gcm.open(header, raw[_HEADER_LEN:], header)
        self.machine.cost.charge_gcm(len(payload))
        self.machine.cost.charge_event("ipc_syscall")
        self.machine.counters.bump(ctr.GCM_OPEN)
        return header[0], int.from_bytes(header[1:9], "little"), payload


class ReliableLink(_ReliableEndpoint):
    """Client half: at-least-once requests, exactly-once effects.

    Each :meth:`call` retries the sealed request up to
    :data:`RELIABLE_MAX_ATTEMPTS` times, charging the
    :class:`BackoffPolicy` schedule (seeded exponential backoff with
    jitter) between attempts, and raises a typed
    :class:`ChannelTimeout` when the budget is spent.  Responses to
    earlier request IDs (stale re-answers) are discarded by ID match;
    byte-replayed responses are discarded by the dup window without
    charging.
    """

    def __init__(self, machine: Machine, router: IpcRouter,
                 request_port: str, response_port: str,
                 key: bytes, cipher=AesGcm,
                 backoff: BackoffPolicy | None = None) -> None:
        super().__init__(machine, router, key, cipher)
        self.request_port = request_port
        self.response_port = response_port
        self.backoff = BackoffPolicy() if backoff is None else backoff
        self._next_rid = 1

    def call(self, payload: bytes, pump=None,
             deadline_ns: float | None = None) -> bytes:
        """One request/response exchange.  ``pump`` (usually the
        responder's :meth:`ReliableResponder.pump`) is invoked after
        each send to give the synchronous peer a chance to answer.
        ``deadline_ns`` is an absolute simulated-clock deadline: once
        the clock passes it the call raises a typed
        :class:`DeadlineExceeded` instead of spending further attempts
        — a deadline can fire *between* attempts but never hangs."""
        rid = self._next_rid
        self._next_rid += 1
        waits = None    # built at the first retry; most calls never retry
        for attempt in range(RELIABLE_MAX_ATTEMPTS):
            if deadline_ns is not None \
                    and self.machine.clock.now_ns >= deadline_ns:
                raise DeadlineExceeded(
                    f"request {rid} on {self.request_port!r}: deadline "
                    f"passed before attempt {attempt + 1}")
            self._seal(self.request_port, _KIND_REQUEST, rid, payload)
            if pump is not None:
                pump()
            while True:
                raw = self.router.try_recv(self.response_port)
                if raw is None:
                    break
                if self._is_duplicate(raw):
                    continue
                kind, got_rid, body = self._open(raw)
                if kind == _KIND_RESPONSE and got_rid == rid:
                    return body
                # Stale response (an earlier rid the OS re-delivered or
                # a duplicate re-answer): ignore and keep draining.
            if attempt < RELIABLE_MAX_ATTEMPTS - 1:
                if waits is None:
                    waits = self.backoff.schedule(
                        rid, RELIABLE_MAX_ATTEMPTS - 1)
                self.machine.cost.charge("channel_backoff",
                                         waits[attempt])
        raise ChannelTimeout(
            f"request {rid} on {self.request_port!r}: no response after "
            f"{RELIABLE_MAX_ATTEMPTS} attempts (lossy transport)")


class ReliableResponder(_ReliableEndpoint):
    """Server half: dedupes requests by ID, re-answers duplicates from a
    cached reply (the handler runs exactly once per request ID)."""

    def __init__(self, machine: Machine, router: IpcRouter,
                 request_port: str, response_port: str, key: bytes,
                 handler, cipher=AesGcm) -> None:
        super().__init__(machine, router, key, cipher)
        self.request_port = request_port
        self.response_port = response_port
        self.handler = handler
        self._last_rid = 0
        self._last_reply: bytes | None = None

    def pump(self) -> int:
        """Drain pending requests; returns how many datagrams it saw."""
        seen = 0
        while True:
            raw = self.router.try_recv(self.request_port)
            if raw is None:
                return seen
            seen += 1
            if self._is_duplicate(raw):
                # A byte-replayed request the OS manufactured: the
                # client never resent it (a genuine resend has a fresh
                # counter), so it needs no re-answer and must not
                # charge.
                continue
            kind, rid, payload = self._open(raw)
            if kind != _KIND_REQUEST:
                continue  # a reflected response: authentication already
                # proved integrity, the kind byte proves direction
            if rid == self._last_rid and self._last_reply is not None:
                # Duplicate of the request we just served: re-seal the
                # cached reply under a fresh counter (fresh nonce).
                self._seal(self.response_port, _KIND_RESPONSE, rid,
                           self._last_reply)
                continue
            if rid < self._last_rid:
                continue  # ancient duplicate: the client has moved on
            reply = self.handler(payload)
            self._last_rid = rid
            self._last_reply = bytes(reply)
            self._seal(self.response_port, _KIND_RESPONSE, rid,
                       self._last_reply)


def reliable_pair(machine: Machine, router: IpcRouter, name: str,
                  key: bytes, handler, cipher=AesGcm,
                  backoff: BackoffPolicy | None = None,
                  ) -> tuple[ReliableLink, ReliableResponder]:
    """A client/server pair over two fresh ports, sharing one key."""
    req_port, resp_port = name + ":req", name + ":resp"
    router.create_port(req_port)
    router.create_port(resp_port)
    link = ReliableLink(machine, router, req_port, resp_port, key,
                        cipher, backoff)
    responder = ReliableResponder(machine, router, req_port, resp_port,
                                  key, handler, cipher)
    return link, responder
