"""A byte flipped in untrusted memory after an in-process seal is still
a typed forgery at every real AEAD caller: the minissl record layer, the
DB service's sealed query and ``ReliableLink``'s datagrams.  The seal
leaves its plaintext in the seal→open handoff, so these opens run right
after the seal that made the untampered message, which is where a
handoff that trusted its entry would return the plaintext."""

import hashlib

import pytest

from repro.apps.minissl.client import SslClient
from repro.apps.minissl.records import CT_APPLICATION, HEADER_LEN
from repro.apps.ports.dbservice import MonolithicDbService, NestedDbService
from repro.apps.ports.echo import MonolithicEchoServer, NestedEchoServer
from repro.core import NestedValidator
from repro.crypto.gcm import AesGcm
from repro.crypto.hashaead import HashAead
from repro.errors import CryptoError
from repro.os import Kernel
from repro.sdk import EnclaveHost
from repro.sdk.secure_channel import reliable_pair
from repro.sgx import Machine
from repro.sgx.constants import SmallMachineConfig

PSK = hashlib.sha256(b"echo-demo-psk").digest()  # the echo servers' PSK
KEY = bytes(range(16))

#: Which byte of the sealed message is flipped: its first ciphertext
#: byte or its tag's last byte.
SPOTS = ("ciphertext", "tag")

FORGERY = {AesGcm: "GCM tag verification failed",
           HashAead: "hash-aead tag mismatch"}


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _host():
    machine = Machine(validator_cls=NestedValidator)
    return EnclaveHost(machine, Kernel(machine))


@pytest.mark.parametrize("spot", SPOTS)
@pytest.mark.parametrize("server_cls", [MonolithicEchoServer,
                                        NestedEchoServer])
class TestSslRecord:
    def _connected(self, server_cls):
        server = server_cls(_host())
        client = SslClient(psk=PSK, nonce=bytes(32))
        server.client_finished(client.finish(server.accept(client.hello())))
        return server, client

    def test_client_record_flipped_on_the_wire(self, server_cls, spot):
        server, client = self._connected(server_cls)
        wire = client.seal_record(CT_APPLICATION, b"hello server")
        index = HEADER_LEN if spot == "ciphertext" else -1
        with pytest.raises(CryptoError, match=FORGERY[AesGcm]):
            server.handle_wire(_flip(wire, index))

    def test_server_record_flipped_on_the_wire(self, server_cls, spot):
        server, client = self._connected(server_cls)
        reply = server.handle_wire(
            client.seal_record(CT_APPLICATION, b"echo me"))
        index = HEADER_LEN if spot == "ciphertext" else -1
        with pytest.raises(CryptoError, match=FORGERY[AesGcm]):
            client.open_record(_flip(reply, index))


@pytest.mark.parametrize("spot", SPOTS)
@pytest.mark.parametrize("service_cls", [MonolithicDbService,
                                         NestedDbService])
def test_sealed_query_flipped_on_the_wire(service_cls, spot):
    service = service_cls(_host())
    tenant = service.add_tenant(KEY)
    tenant.execute("CREATE TABLE t (k TEXT, v TEXT)")
    # Sealed as DbClientSession.execute seals its next query.
    nonce = (1).to_bytes(12, "little")
    sealed = nonce + AesGcm(KEY).seal(nonce, b"SELECT v FROM t")
    index = 12 if spot == "ciphertext" else -1
    with pytest.raises(CryptoError, match=FORGERY[AesGcm]):
        tenant.handle.ecall("query", _flip(sealed, index))


@pytest.mark.parametrize("spot", SPOTS)
@pytest.mark.parametrize("cipher", [AesGcm, HashAead])
class TestReliableDatagram:
    def _pair(self, cipher):
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        kernel = Kernel(machine)
        link, responder = reliable_pair(
            machine, kernel.ipc, "svc", KEY, lambda p: b"echo:" + p,
            cipher)
        return kernel, link, responder

    @staticmethod
    def _flip_pending(kernel, port, spot):
        """The OS flips one byte of the datagram waiting on ``port``."""
        queue = kernel.ipc._ports[port]
        raw = queue.popleft()
        queue.appendleft(_flip(raw, 12 if spot == "ciphertext" else -1))

    def test_request_flipped_in_the_router(self, cipher, spot):
        kernel, link, responder = self._pair(cipher)

        def pump():
            self._flip_pending(kernel, "svc:req", spot)
            responder.pump()

        with pytest.raises(CryptoError, match=FORGERY[cipher]):
            link.call(b"ping", pump=pump)

    def test_response_flipped_in_the_router(self, cipher, spot):
        kernel, link, responder = self._pair(cipher)

        def pump():
            responder.pump()
            self._flip_pending(kernel, "svc:resp", spot)

        with pytest.raises(CryptoError, match=FORGERY[cipher]):
            link.call(b"ping", pump=pump)
