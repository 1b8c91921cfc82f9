"""IpcRouter.recv: bounded simulated-time blocking with typed timeout."""

import pytest

from repro.errors import ChannelError, IpcTimeout
from repro.os import Kernel
from repro.perf.costmodel import IPC_POLL_NS
from repro.sgx.constants import SmallMachineConfig
from repro.sgx.machine import Machine


@pytest.fixture
def kernel():
    return Kernel(Machine(SmallMachineConfig()))


class TestRecvTimeout:
    def test_message_present_returns_without_polling(self, kernel):
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"ready")
        t0 = kernel.machine.clock.now_ns
        assert kernel.ipc.recv("p", timeout_ns=1_000_000) == b"ready"
        assert kernel.machine.clock.now_ns == t0

    def test_empty_port_times_out_typed_and_bounded(self, kernel):
        kernel.ipc.create_port("p")
        t0 = kernel.machine.clock.now_ns
        with pytest.raises(IpcTimeout):
            kernel.ipc.recv("p", timeout_ns=10 * IPC_POLL_NS)
        # The wait burned exactly the simulated budget, poll by poll.
        assert kernel.machine.clock.now_ns - t0 == 10 * IPC_POLL_NS

    def test_timeout_is_a_channel_error(self, kernel):
        """Legacy callers catching ChannelError keep working."""
        kernel.ipc.create_port("p")
        with pytest.raises(ChannelError):
            kernel.ipc.recv("p", timeout_ns=IPC_POLL_NS)

    def test_no_timeout_raises_immediately(self, kernel):
        kernel.ipc.create_port("p")
        t0 = kernel.machine.clock.now_ns
        with pytest.raises(IpcTimeout):
            kernel.ipc.recv("p")
        assert kernel.machine.clock.now_ns == t0

    def test_message_arriving_during_wait_is_returned(self, kernel):
        """A sender racing the poll loop: try_recv sees the message on a
        later poll iteration (modelled by pre-seeding after first poll
        via a policy-held release)."""
        kernel.ipc.policy = lambda n, port, message: "delay"
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"late")   # held until a poll flushes it
        assert kernel.ipc.recv("p", timeout_ns=10 * IPC_POLL_NS) \
            == b"late"
