"""Runtime edge cases: direct-entry n_ocall (NEEXIT call form), TCS
exhaustion, re-entrancy, multi-core usage, and handle helpers."""

import pytest

from repro.core import NestedValidator, audit_machine
from repro.errors import SdkError
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine

OUTER_EDL = """
enclave {
    trusted {
        public int lib_fn(int x);
    };
};
"""

INNER_EDL = """
enclave {
    trusted {
        public int entry_direct(int x);
    };
    nested_untrusted {
        int lib_fn(int x);
    };
};
"""


def entry_direct(ctx, x):
    """Reaches the outer library from a directly-EENTERed inner frame —
    exercising NEEXIT's call form."""
    return ctx.n_ocall("lib_fn", x) + 1


@pytest.fixture
def world():
    machine = Machine(validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("edge")
    outer_builder = EnclaveBuilder("outer", parse_edl(OUTER_EDL),
                                   signing_key=key, num_tcs=2)
    outer_builder.add_entry("lib_fn", lambda ctx, x: 2 * x)
    outer_probe = outer_builder.build()
    inner_builder = EnclaveBuilder("inner", parse_edl(INNER_EDL),
                                   signing_key=key, num_tcs=2)
    inner_builder.add_entry("entry_direct", entry_direct)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)
    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    return machine, host, outer, inner


class TestDirectEntryNOcall:
    def test_direct_ecall_into_inner_then_n_ocall(self, world):
        """Untrusted -> EENTER(inner) -> n_ocall -> outer, per Fig. 5."""
        machine, host, outer, inner = world
        assert inner.ecall("entry_direct", 21) == 43

    def test_mode_clean_after_call_form(self, world):
        machine, host, outer, inner = world
        inner.ecall("entry_direct", 1)
        assert not host.core.in_enclave_mode
        from repro.sgx.constants import TCS_IDLE
        for (eid, vaddr), tcs in machine.tcs_registry.items():
            assert tcs.state == TCS_IDLE

    def test_counters_record_n_ocall(self, world):
        machine, host, outer, inner = world
        snap = machine.counters.snapshot()
        inner.ecall("entry_direct", 1)
        delta = machine.counters.delta_since(snap)
        assert delta.get("n_ocall") == 1
        assert delta.get("ecall") == 1

    def test_invariants_after_call_form(self, world):
        machine, host, outer, inner = world
        inner.ecall("entry_direct", 5)
        assert audit_machine(machine) == []


class TestTcsManagement:
    def test_tcs_exhaustion_raises_sdk_error(self, world):
        machine, host, outer, inner = world
        from repro.sgx import isa
        # Occupy both inner TCSes from other cores.
        for core in machine.cores[1:3]:
            core.address_space = host.proc.space
            isa.eenter(machine, core, inner.secs, inner.idle_tcs())
        with pytest.raises(SdkError):
            inner.idle_tcs()

    def test_parallel_ecalls_on_two_cores(self, world):
        machine, host, outer, inner = world
        core_b = machine.cores[1]
        core_b.address_space = host.proc.space
        # Both cores run the same enclave concurrently on distinct TCSes.
        assert outer.ecall("lib_fn", 3) == 6
        assert outer.ecall("lib_fn", 4, core=core_b) == 8


class TestHandleHelpers:
    def test_addr_offsets(self, world):
        machine, host, outer, inner = world
        assert outer.addr(0) == outer.base_addr
        assert outer.addr(0x123) == outer.base_addr + 0x123

    def test_unload_then_ecall_fails(self, world):
        machine, host, outer, inner = world
        host.unload(inner)
        with pytest.raises(Exception):
            inner.ecall("entry_direct", 1)
