"""minissl handshake: version/cipher negotiation and key derivation.

A pre-shared-key handshake in the TLS shape (the paper's echo server
likewise "assume[s] the key is distributed to the echo server and
client", §VI-A):

1. ``ClientHello``  — client nonce, offered versions, offered ciphers.
2. ``ServerHello``  — server nonce, chosen version, chosen cipher.
3. Both sides derive traffic keys = HKDF(psk, nonces, version, cipher).
4. ``Finished``     — each side MACs the full handshake transcript with a
   derived finished-key.  Because the transcript covers the *offered*
   lists, a man-in-the-middle who strips the strong version/cipher to
   force a downgrade breaks both Finished MACs — the rollback protection
   the paper credits the standard handshake with ("prevent the version
   rollback or the cipher suite rollback attack").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import hkdf, mac, mac_verify
from repro.errors import ChannelError
from repro.apps.minissl.records import SUPPORTED_VERSIONS

CIPHER_GCM128 = "AES128-GCM"
CIPHER_LEGACY = "LEGACY-XOR"  # deliberately weak, for rollback tests
SUPPORTED_CIPHERS = (CIPHER_GCM128, CIPHER_LEGACY)


@dataclass(frozen=True)
class ClientHello:
    nonce: bytes
    versions: tuple[int, ...] = SUPPORTED_VERSIONS
    ciphers: tuple[str, ...] = SUPPORTED_CIPHERS

    def encode(self) -> bytes:
        vers = b"".join(v.to_bytes(2, "big") for v in self.versions)
        ciphers = ",".join(self.ciphers).encode()
        return (self.nonce + bytes([len(self.versions)]) + vers
                + bytes([len(ciphers)]) + ciphers)

    @classmethod
    def decode(cls, data: bytes) -> "ClientHello":
        if len(data) < 33:
            raise ChannelError("runt ClientHello")
        nonce, rest = data[:32], data[32:]
        nvers = rest[0]
        vers = tuple(int.from_bytes(rest[1 + 2 * i:3 + 2 * i], "big")
                     for i in range(nvers))
        rest = rest[1 + 2 * nvers:]
        clen = rest[0]
        ciphers = tuple(rest[1:1 + clen].decode().split(","))
        return cls(nonce=nonce, versions=vers, ciphers=ciphers)


@dataclass(frozen=True)
class ServerHello:
    nonce: bytes
    version: int
    cipher: str

    def encode(self) -> bytes:
        return (self.nonce + self.version.to_bytes(2, "big")
                + self.cipher.encode())

    @classmethod
    def decode(cls, data: bytes) -> "ServerHello":
        if len(data) < 35:
            raise ChannelError("runt ServerHello")
        return cls(nonce=data[:32],
                   version=int.from_bytes(data[32:34], "big"),
                   cipher=data[34:].decode())


@dataclass
class HandshakeResult:
    version: int
    cipher: str
    client_write_key: bytes
    server_write_key: bytes
    finished_key: bytes
    transcript: bytes


def _derive(psk: bytes, hello_c: bytes, hello_s: bytes,
            version: int, cipher: str) -> HandshakeResult:
    transcript = hello_c + hello_s
    base = hkdf(psk, b"minissl", transcript,
                version.to_bytes(2, "big"), cipher.encode())
    return HandshakeResult(
        version=version, cipher=cipher,
        client_write_key=hkdf(base, b"client-write")[:16],
        server_write_key=hkdf(base, b"server-write")[:16],
        finished_key=hkdf(base, b"finished"),
        transcript=transcript)


def server_respond(psk: bytes, hello_raw: bytes,
                   server_nonce: bytes) -> tuple[bytes, HandshakeResult]:
    """Server side: consume a ClientHello, pick the best mutual version
    and cipher, return (ServerHello bytes, keys)."""
    hello = ClientHello.decode(hello_raw)
    version = next((v for v in SUPPORTED_VERSIONS if v in hello.versions),
                   None)
    cipher = next((c for c in SUPPORTED_CIPHERS if c in hello.ciphers),
                  None)
    if version is None or cipher is None:
        raise ChannelError("no mutually supported version/cipher")
    server_hello = ServerHello(server_nonce, version, cipher)
    result = _derive(psk, hello_raw, server_hello.encode(), version,
                     cipher)
    return server_hello.encode(), result


def client_complete(psk: bytes, hello_raw: bytes,
                    server_hello_raw: bytes) -> HandshakeResult:
    """Client side: consume the ServerHello and derive the same keys."""
    server_hello = ServerHello.decode(server_hello_raw)
    if server_hello.version not in SUPPORTED_VERSIONS:
        raise ChannelError("server chose an unsupported version")
    if server_hello.cipher not in SUPPORTED_CIPHERS:
        raise ChannelError("server chose an unsupported cipher")
    return _derive(psk, hello_raw, server_hello_raw,
                   server_hello.version, server_hello.cipher)


def finished_mac(result: HandshakeResult, role: str) -> bytes:
    """The Finished message each side sends after key derivation."""
    return mac(result.finished_key, role.encode() + result.transcript)


def verify_finished(result: HandshakeResult, role: str,
                    tag: bytes) -> bool:
    return mac_verify(result.finished_key, role.encode()
                      + result.transcript, tag)
