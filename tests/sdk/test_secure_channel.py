"""GcmChannel tests: the sealed baseline channel and its limits."""

import pytest

from repro.errors import ChannelError, CryptoError
from repro.os import Kernel
from repro.faults.ipc import dropping_policy
from repro.sdk.secure_channel import (REORDER_WINDOW, GcmChannel,
                                      paired_channels)
from repro.sgx.constants import SmallMachineConfig
from repro.sgx.machine import Machine


@pytest.fixture
def world():
    machine = Machine(SmallMachineConfig())
    kernel = Kernel(machine)
    return machine, kernel


class TestHonestOs:
    def test_roundtrip(self, world):
        machine, kernel = world
        fwd, rev = paired_channels(machine, kernel.ipc, "link", bytes(16))
        fwd.send(b"hello")
        assert rev.try_recv() is None  # reverse direction is independent
        # The receiver owns the same port/key pair:
        receiver = GcmChannel(machine, kernel.ipc, "link:fwd", bytes(16))
        assert receiver.recv() == b"hello"

    def test_sequenced_stream(self, world):
        machine, kernel = world
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        for i in range(10):
            tx.send(f"msg{i}".encode())
        for i in range(10):
            assert rx.recv() == f"msg{i}".encode()

    def test_gcm_cost_charged(self, world):
        machine, kernel = world
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        snap = machine.counters.snapshot()
        t0 = machine.clock.now_ns
        tx.send(bytes(4096))
        assert machine.counters.delta_since(snap)["gcm_seal"] == 1
        assert machine.clock.now_ns - t0 >= 4096 \
            * machine.cost.params.gcm_byte_ns

    def test_empty_port_returns_none(self, world):
        machine, kernel = world
        kernel.ipc.create_port("p")
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        assert rx.try_recv() is None
        with pytest.raises(ChannelError):
            rx.recv()


class TestAttackers:
    def test_forged_message_rejected(self, world):
        """Sealing defeats forgery: attacker-crafted bytes fail the tag."""
        machine, kernel = world
        kernel.ipc.create_port("p")
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        # The OS is the router: forging is delivering its own bytes.
        kernel.ipc.deliver("p", bytes(8) + b"X" * 32)
        with pytest.raises(CryptoError):
            rx.recv()

    def test_replayed_message_rejected(self, world):
        """Sealing + sequence numbers defeat replay."""
        machine, kernel = world
        recorded = []

        def record(n, port, message):
            recorded.append((port, bytes(message)))
            return "deliver"

        kernel.ipc.policy = record
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        tx.send(b"pay me $1")
        assert rx.recv() == b"pay me $1"
        kernel.ipc.deliver(*recorded[0])
        with pytest.raises(ChannelError):
            rx.recv()  # sequence number already consumed

    def test_reordering_absorbed_within_window(self, world):
        """An OS-swapped queue is healed by the reorder stash: the
        receiver still sees the stream in sequence order."""
        machine, kernel = world
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        tx.send(b"first")
        tx.send(b"second")
        # OS swaps the queue order.
        queue = kernel.ipc._ports["p"]
        queue.rotate(1)
        assert rx.recv() == b"first"
        assert rx.recv() == b"second"

    def test_reordering_beyond_window_detected(self, world):
        """A message running past the reorder window is a corrupt or
        hostile stream, not a stashable straggler."""
        machine, kernel = world
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        tx._send_seq = REORDER_WINDOW + 1
        tx.send(b"from the far future")
        with pytest.raises(ChannelError):
            rx.recv()

    def test_silent_trailing_drop_is_invisible(self, world):
        """The residual weakness (§VII-B): a dropped message that nothing
        follows is undetectable at the channel layer — the receiver just
        sees an empty queue, identical to 'never sent'."""
        machine, kernel = world
        kernel.ipc.policy = dropping_policy(lambda port, msg: True)
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        tx.send(b"initialise the certificate check!")
        assert kernel.ipc.dropped == 1
        assert rx.try_recv() is None  # looks exactly like silence

    def test_interior_drop_detected_by_gap(self, world):
        """Drops *inside* a stream do surface once a later message lands."""
        machine, kernel = world
        drop_second = {"n": 0}

        def should_drop(port, msg):
            drop_second["n"] += 1
            return drop_second["n"] == 2

        kernel.ipc.policy = dropping_policy(should_drop)
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        tx.send(b"one")
        tx.send(b"two")     # dropped
        tx.send(b"three")
        assert rx.recv() == b"one"
        with pytest.raises(ChannelError):
            rx.recv()
