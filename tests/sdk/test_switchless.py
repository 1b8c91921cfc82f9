"""Switchless-call tests: functionality and cost structure."""

from __future__ import annotations

import pytest

from repro.core import NestedValidator
from repro.errors import SdkError
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sdk.switchless import SwitchlessChannel, make_switchless_region
from repro.sgx import Machine, isa

EDL = """
enclave {
    trusted {
        public int use_switchless(int x);
        public int classic_ocall(int x);
    };
    untrusted {
        int host_double(int x);
    };
};
"""


class _Slot:
    channel: SwitchlessChannel | None = None


def use_switchless(ctx, x):
    response = _Slot.channel.call(ctx.core, "double",
                                  x.to_bytes(8, "little"))
    return int.from_bytes(response, "little")


def classic_ocall(ctx, x):
    return ctx.ocall("host_double", x)


@pytest.fixture
def world():
    machine = Machine(validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    host.register_untrusted("host_double", lambda host, x: 2 * x)
    builder = EnclaveBuilder("sw", parse_edl(EDL),
                             signing_key=developer_key("sw"))
    builder.add_entry("use_switchless", use_switchless)
    builder.add_entry("classic_ocall", classic_ocall)
    handle = host.load(builder.build())
    channel = make_switchless_region(host)
    channel.register(
        "double",
        lambda req: (2 * int.from_bytes(req, "little"))
        .to_bytes(8, "little"))
    _Slot.channel = channel
    return machine, host, handle, channel


class TestSwitchlessCalls:
    def test_roundtrip(self, world):
        machine, host, handle, channel = world
        assert handle.ecall("use_switchless", 21) == 42
        assert channel.stats.calls == 1

    def test_no_transition_charged(self, world):
        """The whole point: a switchless call performs zero enclave
        transitions and zero TLB flushes."""
        machine, host, handle, channel = world
        isa.eenter(machine, host.core, handle.secs, handle.idle_tcs())
        snap = machine.counters.snapshot()
        t0 = machine.cost.snapshot()
        result = use_switchless(
            type("Ctx", (), {"core": host.core})(), 33)
        delta = machine.counters.delta_since(snap)
        isa.eexit(machine, host.core)
        assert result == 66
        assert "tlb_flush" not in delta
        assert "ocall" not in delta
        breakdown = machine.cost.snapshot()
        assert breakdown.get("switchless_poll", 0) \
            > t0.get("switchless_poll", 0)

    def test_cheaper_than_classic_ocall(self, world):
        machine, host, handle, channel = world
        t0 = machine.clock.now_ns
        handle.ecall("classic_ocall", 5)
        classic_ns = machine.clock.now_ns - t0
        t0 = machine.clock.now_ns
        handle.ecall("use_switchless", 5)
        switchless_ns = machine.clock.now_ns - t0
        # Both include the enclosing ecall; the ocall inside dominates
        # the classic path, so switchless must come out cheaper.
        assert switchless_ns < classic_ns

    def test_unknown_handler_rejected(self, world):
        machine, host, handle, channel = world
        isa.eenter(machine, host.core, handle.secs, handle.idle_tcs())
        with pytest.raises(SdkError):
            channel.call(host.core, "nonexistent")
        isa.eexit(machine, host.core)

    def test_oversized_payload_rejected(self, world):
        machine, host, handle, channel = world
        isa.eenter(machine, host.core, handle.secs, handle.idle_tcs())
        with pytest.raises(SdkError):
            channel.call(host.core, "double", bytes(1 << 16))
        isa.eexit(machine, host.core)

    def test_slot_too_small_rejected(self, world):
        machine, host, handle, channel = world
        with pytest.raises(SdkError):
            SwitchlessChannel(machine, 0x1000, 16)

    def test_many_sequential_calls(self, world):
        machine, host, handle, channel = world
        for i in range(10):
            assert handle.ecall("use_switchless", i) == 2 * i
        assert channel.stats.calls == 10
        assert channel.stats.worker_polls == 10
