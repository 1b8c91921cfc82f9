"""Builder + runtime tests: images, measurement/tamper detection, the
four call kinds, EDL enforcement, heap bootstrap."""

import pytest

from repro.core.access import NestedValidator
from repro.errors import (SdkError, SigstructInvalid,
                          UnknownInterfaceError)
from repro.os import Kernel
from repro.sdk import (EnclaveBuilder, EnclaveHost, developer_key,
                       parse_edl)
from repro.sgx.constants import SmallMachineConfig
from repro.sgx.machine import Machine

OUTER_EDL = """
enclave {
    trusted {
        public int lib_add(int a, int b);
        public int run_inner(int x);
    };
    untrusted {
        int host_time(void);
    };
};
"""

INNER_EDL = """
enclave {
    trusted {
        public int ping(void);
    };
    nested_trusted {
        public int compute(int x);
    };
    nested_untrusted {
        int lib_add(int a, int b);
    };
};
"""


def lib_add(ctx, a, b):
    return a + b


def ping(ctx):
    return 99


def compute(ctx, x):
    return ctx.n_ocall("lib_add", x, 1000)


class Registry:
    inner_handle = None


def run_inner(ctx, x):
    return ctx.n_ecall(Registry.inner_handle, "compute", x)


def use_ocall(ctx):
    return ctx.ocall("host_time")


@pytest.fixture
def world():
    machine = Machine(SmallMachineConfig(), validator_cls=NestedValidator)
    kernel = Kernel(machine)
    host = EnclaveHost(machine, kernel)
    key = developer_key("world")

    outer_b = EnclaveBuilder("outer", parse_edl(OUTER_EDL), signing_key=key)
    outer_b.add_entry("lib_add", lib_add)
    outer_b.add_entry("run_inner", run_inner)
    outer_probe = outer_b.build()

    inner_b = EnclaveBuilder("inner", parse_edl(INNER_EDL), signing_key=key)
    inner_b.add_entry("ping", ping)
    inner_b.add_entry("compute", compute)
    inner_b.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                        outer_probe.sigstruct.mrsigner)
    inner_img = inner_b.build()

    outer_b.expect_peer(inner_img.sigstruct.expected_mrenclave,
                        inner_img.sigstruct.mrsigner)
    outer_img = outer_b.build()

    outer = host.load(outer_img)
    inner = host.load(inner_img)
    host.associate(inner, outer)
    Registry.inner_handle = inner
    return machine, kernel, host, outer, inner


class TestBuilder:
    def test_missing_entry_rejected(self):
        builder = EnclaveBuilder("x", parse_edl(INNER_EDL),
                                 signing_key=developer_key("x"))
        builder.add_entry("ping", ping)  # compute missing
        with pytest.raises(SdkError):
            builder.build()

    def test_undeclared_entry_rejected(self):
        builder = EnclaveBuilder("x", parse_edl(INNER_EDL),
                                 signing_key=developer_key("x"))
        with pytest.raises(SdkError):
            builder.add_entry("not_in_edl", ping)

    def test_same_code_same_measurement(self):
        def build_once():
            b = EnclaveBuilder("m", parse_edl(INNER_EDL),
                               signing_key=developer_key("m"))
            b.add_entry("ping", ping)
            b.add_entry("compute", compute)
            return b.build()
        assert build_once().sigstruct.expected_mrenclave \
            == build_once().sigstruct.expected_mrenclave

    def test_different_code_different_measurement(self):
        def build_with(entry):
            b = EnclaveBuilder("m", parse_edl(INNER_EDL),
                               signing_key=developer_key("m"))
            b.add_entry("ping", entry)
            b.add_entry("compute", compute)
            return b.build()

        def other_ping(ctx):
            return -1

        assert build_with(ping).sigstruct.expected_mrenclave \
            != build_with(other_ping).sigstruct.expected_mrenclave

    def test_tampered_image_fails_einit(self):
        """Swap a code function after signing: the loader must refuse."""
        machine = Machine(SmallMachineConfig())
        kernel = Kernel(machine)
        host = EnclaveHost(machine, kernel)
        b = EnclaveBuilder("m", parse_edl(INNER_EDL),
                           signing_key=developer_key("m"))
        b.add_entry("ping", ping)
        b.add_entry("compute", compute)
        image = b.build()

        def evil_ping(ctx):
            return 666

        # Re-derive pages for the tampered entry table but keep the old
        # (now-wrong) sigstruct.
        b2 = EnclaveBuilder("m", parse_edl(INNER_EDL),
                            signing_key=developer_key("m"))
        b2.add_entry("ping", evil_ping)
        b2.add_entry("compute", compute)
        tampered = b2.build()
        object.__setattr__  # no-op; images are plain dataclasses
        tampered_with_old_sig = type(image)(
            name=image.name, edl=image.edl, entries=tampered.entries,
            pages=tampered.pages, sigstruct=image.sigstruct,
            attributes=image.attributes, code_bytes=image.code_bytes,
            heap_bytes=image.heap_bytes, stack_bytes=image.stack_bytes,
            tcs_offsets=image.tcs_offsets, heap_offset=image.heap_offset)
        with pytest.raises(SigstructInvalid):
            host.load(tampered_with_old_sig)

    def test_extra_code_bytes_inflate_image(self):
        small = EnclaveBuilder("s", parse_edl(INNER_EDL),
                               signing_key=developer_key("s"))
        small.add_entry("ping", ping)
        small.add_entry("compute", compute)
        big = EnclaveBuilder("b", parse_edl(INNER_EDL),
                             signing_key=developer_key("b"),
                             extra_code_bytes=1 << 20)
        big.add_entry("ping", ping)
        big.add_entry("compute", compute)
        assert big.build().size_bytes \
            >= small.build().size_bytes + (1 << 20)


class TestCallKinds:
    def test_ecall(self, world):
        machine, kernel, host, outer, inner = world
        assert outer.ecall("lib_add", 2, 3) == 5

    def test_ocall(self, world):
        machine, kernel, host, outer, inner = world
        host.register_untrusted("host_time", lambda host: 12345)
        outer.image.entries["lib_add"] = use_ocall  # reuse a slot
        # Instead of mutating, do it properly: declare via a fresh image
        # is heavy; call ocall through a small adapter entry:
        outer.image.entries["lib_add"] = lib_add
        # Build a dedicated enclave for the ocall path:
        key = developer_key("oc")
        edl = parse_edl("""
        enclave {
            trusted { public int go(void); };
            untrusted { int host_time(void); };
        };
        """)
        b = EnclaveBuilder("oc", edl, signing_key=key)
        b.add_entry("go", lambda ctx: ctx.ocall("host_time") + 1)
        handle = host.load(b.build())
        assert handle.ecall("go") == 12346

    def test_nested_call_chain(self, world):
        machine, kernel, host, outer, inner = world
        # host -> outer.run_inner -> n_ecall inner.compute
        #      -> n_ocall outer.lib_add -> back out
        assert outer.ecall("run_inner", 7) == 1007
        snap = machine.counters.snapshot()
        outer.ecall("run_inner", 7)
        delta = machine.counters.delta_since(snap)
        assert delta["ecall"] == 1
        assert delta["n_ecall"] == 1
        assert delta["n_ocall"] == 1

    def test_direct_ecall_of_nested_trusted_refused(self, world):
        machine, kernel, host, outer, inner = world
        with pytest.raises(UnknownInterfaceError):
            inner.ecall("compute", 1)

    def test_undeclared_ocall_refused(self, world):
        machine, kernel, host, outer, inner = world
        key = developer_key("bad")
        edl = parse_edl(
            "enclave { trusted { public int go(void); }; };")
        b = EnclaveBuilder("bad", edl, signing_key=key)
        b.add_entry("go", lambda ctx: ctx.ocall("host_time"))
        handle = host.load(b.build())
        with pytest.raises(UnknownInterfaceError):
            handle.ecall("go")

    def test_n_ocall_without_outer_refused(self, world):
        machine, kernel, host, outer, inner = world
        key = developer_key("lone")
        b = EnclaveBuilder("lone", parse_edl(INNER_EDL), signing_key=key)
        b.add_entry("ping", ping)
        b.add_entry("compute", compute)
        lone = host.load(b.build())  # never associated
        with pytest.raises(UnknownInterfaceError):
            lone.ecall("compute", 1)  # nested_trusted not an ecall
        # Reach compute via a trusted wrapper to test n_ocall guard:
        b2 = EnclaveBuilder("lone2", parse_edl("""
            enclave {
                trusted { public int go(void); };
                nested_untrusted { int lib_add(int a, int b); };
            };"""), signing_key=key)
        b2.add_entry("go", lambda ctx: ctx.n_ocall("lib_add", 1, 2))
        lone2 = host.load(b2.build())
        with pytest.raises(SdkError):
            lone2.ecall("go")

    def test_mode_restored_after_exception_in_entry(self, world):
        machine, kernel, host, outer, inner = world
        key = developer_key("boom")
        edl = parse_edl("enclave { trusted { public int boom(void); }; };")
        b = EnclaveBuilder("boom", edl, signing_key=key)
        b.add_entry("boom", lambda ctx: 1 / 0)
        handle = host.load(b.build())
        with pytest.raises(ZeroDivisionError):
            handle.ecall("boom")
        assert not host.core.in_enclave_mode  # eexit ran via finally


class TestHeap:
    def test_malloc_inside_enclave(self, world):
        machine, kernel, host, outer, inner = world
        key = developer_key("heap")
        edl = parse_edl("enclave { trusted { public int go(void); }; };")

        def go(ctx):
            a = ctx.malloc(100)
            b = ctx.malloc(200)
            ctx.write(a, b"A" * 100)
            ctx.write(b, b"B" * 200)
            assert ctx.read(a, 100) == b"A" * 100
            ctx.free(a)
            c = ctx.malloc(50)   # reuses the freed block (first fit)
            assert c == a
            return 1

        b = EnclaveBuilder("heap", edl, signing_key=key)
        b.add_entry("go", go)
        handle = host.load(b.build())
        assert handle.ecall("go") == 1

    def test_heap_lives_in_epc(self, world):
        machine, kernel, host, outer, inner = world
        paddr = host.proc.space.translate(outer.heap.base)
        assert machine.phys.in_epc(paddr)
