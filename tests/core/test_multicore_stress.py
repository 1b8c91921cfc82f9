"""Multi-core stress: interleaved enclave activity on all cores with
invariant audits throughout.

The simulator is single-threaded, but its *architectural* state is
fully concurrent: four cores holding different enclave frames, TLBs
filling and flushing independently, evictions shooting down peers.
These tests interleave operations across cores the way a parallel host
would schedule them.
"""

import pytest

from repro.core import NestedValidator, audit_machine
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine, isa
from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig

EDL = """
enclave {
    trusted {
        public int bump(int addr);
    };
};
"""


def bump(ctx, addr):
    value = int.from_bytes(ctx.read(addr, 8), "little") + 1
    ctx.write(addr, value.to_bytes(8, "little"))
    return value


@pytest.fixture
def world():
    machine = Machine(SmallMachineConfig(num_cores=4),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("stress")
    outer_builder = EnclaveBuilder("s-outer", parse_edl(EDL),
                                   signing_key=key, num_tcs=4,
                                   heap_bytes=8 * PAGE_SIZE)
    outer_builder.add_entry("bump", bump)
    outer_probe = outer_builder.build()

    inners = []
    inner_images = []
    for i in range(2):
        builder = EnclaveBuilder(f"s-inner-{i}", parse_edl(EDL),
                                 signing_key=key, num_tcs=2)
        builder.add_entry("bump", bump)
        builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                            outer_probe.sigstruct.mrsigner)
        inner_images.append(builder.build())
        outer_builder.expect_peer(
            inner_images[-1].sigstruct.expected_mrenclave,
            inner_images[-1].sigstruct.mrsigner)
    outer = host.load(outer_builder.build())
    for image in inner_images:
        handle = host.load(image)
        host.associate(handle, outer)
        inners.append(handle)
    return machine, host, outer, inners


class TestInterleavedCores:
    def test_four_cores_in_three_enclaves(self, world):
        """Each core enters a different enclave; all mutate the OUTER
        heap (inners may), interleaved, with per-step audits."""
        machine, host, outer, inners = world
        counter_addr = outer.heap.base + 256
        cores = machine.cores
        for core in cores:
            core.address_space = host.proc.space

        isa.eenter(machine, cores[0], outer.secs, outer.idle_tcs())
        isa.eenter(machine, cores[1], inners[0].secs,
                   inners[0].idle_tcs())
        isa.eenter(machine, cores[2], inners[1].secs,
                   inners[1].idle_tcs())
        # Initialise the shared counter from the outer enclave.
        cores[0].write(counter_addr, (0).to_bytes(8, "little"))

        expected = 0
        for round_number in range(10):
            for core in cores[:3]:
                value = int.from_bytes(core.read(counter_addr, 8),
                                       "little") + 1
                core.write(counter_addr, value.to_bytes(8, "little"))
                expected += 1
                assert audit_machine(machine) == []
        assert int.from_bytes(cores[0].read(counter_addr, 8),
                              "little") == expected

        for core in cores[:3]:
            isa.eexit(machine, core)
        assert audit_machine(machine) == []

    def test_eviction_storm_under_activity(self, world):
        """Evict outer heap pages repeatedly while inner threads keep
        touching them; every eviction round trips correctly."""
        machine, host, outer, inners = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE
        inner_core = machine.cores[1]
        inner_core.address_space = host.proc.space

        outer.ecall("bump", target)   # initialise to 1
        for round_number in range(5):
            tcs_vaddr = inners[0].idle_tcs()
            isa.eenter(machine, inner_core, inners[0].secs, tcs_vaddr)
            inner_core.read(target, 8)          # warm the inner TLB
            host.kernel.driver.evict_page(outer.secs, target)
            assert not inner_core.in_enclave_mode   # AEX'd
            assert host.kernel.driver.handle_page_fault(outer.secs,
                                                        target)
            # The OS resumes the interrupted inner thread, which then
            # finishes and exits (otherwise its TCS stays parked).
            isa.eresume(machine, inner_core, inners[0].secs, tcs_vaddr)
            isa.eexit(machine, inner_core)
            assert outer.ecall("bump", target) == round_number + 2
        assert audit_machine(machine) == []

    def test_tcs_contention_resolves(self, world):
        """All four outer TCSes occupied -> the fifth entry fails; after
        any exit, entry succeeds again."""
        machine, host, outer, inners = world
        cores = machine.cores
        for core in cores:
            core.address_space = host.proc.space
        for core in cores:
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        from repro.errors import SdkError
        with pytest.raises(SdkError):
            outer.idle_tcs()
        isa.eexit(machine, cores[3])
        isa.eenter(machine, cores[3], outer.secs, outer.idle_tcs())
        for core in cores:
            isa.eexit(machine, core)
