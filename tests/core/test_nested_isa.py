"""NEENTER/NEEXIT/NEREPORT tests (paper Table I, §IV-B)."""

import pytest

from repro.core import nested_isa
from repro.core.association import nasso
from repro.crypto.rsa import generate_keypair
from repro.errors import GeneralProtectionFault, TcsBusy
from repro.sgx import isa
from repro.sgx.constants import (PAGE_SIZE, PT_TCS, SmallMachineConfig,
                                 TCS_ACTIVE, TCS_IDLE)
from repro.sgx.machine import Machine
from repro.sgx.sigstruct import sign_sigstruct


@pytest.fixture(scope="module")
def key():
    return generate_keypair(b"nested-isa-author", bits=512)


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


def build(machine, key, name, base, content, peers=()):
    secs = isa.ecreate(machine, base, 3 * PAGE_SIZE)
    isa.eadd(machine, secs, base, page_type=PT_TCS, tcs_entry="main")
    isa.eadd(machine, secs, base + PAGE_SIZE, page_type=PT_TCS,
             tcs_entry="main")
    isa.eadd(machine, secs, base + 2 * PAGE_SIZE, content=content)
    isa.eextend(machine, secs, base + 2 * PAGE_SIZE, content)
    digest = isa.measurement_log(secs).digest()
    isa.einit(machine, secs, sign_sigstruct(
        key, name, digest, expected_peer_digests=tuple(peers)))
    return secs


def digests(key, name, base, content, peers=()):
    probe = Machine(SmallMachineConfig())
    secs = build(probe, key, name, base, content, peers)
    return secs.mrenclave, secs.mrsigner


@pytest.fixture
def pair(machine, key):
    """(outer, inner), associated; core 0 not yet in any enclave."""
    inner_d = digests(key, "inner", 0x200000, b"inner")
    outer_d = digests(key, "outer", 0x100000, b"outer", peers=[inner_d])
    outer = build(machine, key, "outer", 0x100000, b"outer",
                  peers=[inner_d])
    inner = build(machine, key, "inner", 0x200000, b"inner",
                  peers=[outer_d])
    nasso(machine, inner, outer)
    return outer, inner


class TestNeenter:
    def test_happy_path(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        assert core.current_eid == inner.eid
        assert core.enclave_stack == [outer.eid, inner.eid]
        assert machine.tcs(inner.eid, inner.base_addr).state == TCS_ACTIVE

    def test_outside_enclave_mode_gp(self, machine, pair):
        """'the core must be in the enclave mode of the outer enclave'."""
        outer, inner = pair
        with pytest.raises(GeneralProtectionFault):
            nested_isa.neenter(machine, machine.cores[0], inner,
                               inner.base_addr)

    def test_from_unrelated_enclave_gp(self, machine, pair, key):
        outer, inner = pair
        stranger = build(machine, key, "stranger", 0x400000, b"s")
        core = machine.cores[0]
        isa.eenter(machine, core, stranger, stranger.base_addr)
        with pytest.raises(GeneralProtectionFault):
            nested_isa.neenter(machine, core, inner, inner.base_addr)

    def test_peer_inner_to_inner_gp(self, machine, key):
        """'nested enclave never allow any direct calls among inner
        enclaves' (§VII-B)."""
        i1_d = digests(key, "i1", 0x200000, b"i1")
        i2_d = digests(key, "i2", 0x300000, b"i2")
        outer = build(machine, key, "outer", 0x100000, b"o",
                      peers=[i1_d, i2_d])
        o_d = (outer.mrenclave, outer.mrsigner)
        i1 = build(machine, key, "i1", 0x200000, b"i1", peers=[o_d])
        i2 = build(machine, key, "i2", 0x300000, b"i2", peers=[o_d])
        nasso(machine, i1, outer)
        nasso(machine, i2, outer)
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        nested_isa.neenter(machine, core, i1, i1.base_addr)
        with pytest.raises(GeneralProtectionFault):
            nested_isa.neenter(machine, core, i2, i2.base_addr)

    def test_busy_inner_tcs_faults(self, machine, pair):
        outer, inner = pair
        core0, core1 = machine.cores[0], machine.cores[1]
        isa.eenter(machine, core0, outer, outer.base_addr)
        nested_isa.neenter(machine, core0, inner, inner.base_addr)
        isa.eenter(machine, core1, outer, outer.base_addr + PAGE_SIZE)
        with pytest.raises(TcsBusy):
            nested_isa.neenter(machine, core1, inner, inner.base_addr)

    def test_neenter_flushes_tlb(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        before = core.tlb.flush_count
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        assert core.tlb.flush_count == before + 1


class TestNeexit:
    def _enter_nested(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        return core, outer, inner

    def test_returns_to_outer(self, machine, pair):
        core, outer, inner = self._enter_nested(machine, pair)
        nested_isa.neexit(machine, core)
        assert core.current_eid == outer.eid
        assert machine.tcs(inner.eid, inner.base_addr).state == TCS_IDLE

    def test_scrubs_registers_and_flushes(self, machine, pair):
        core, outer, inner = self._enter_nested(machine, pair)
        core.registers["rcx"] = 0x5EC4E7
        before = core.tlb.flush_count
        nested_isa.neexit(machine, core)
        assert core.registers["rcx"] == 0
        assert core.tlb.flush_count == before + 1

    def test_from_unnested_frame_gp(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        with pytest.raises(GeneralProtectionFault):
            nested_isa.neexit(machine, core)

    def test_outside_enclave_gp(self, machine):
        with pytest.raises(GeneralProtectionFault):
            nested_isa.neexit(machine, machine.cores[0])

    def test_eexit_from_nested_frame_gp(self, machine, pair):
        """EEXIT may only unwind the base frame; NEEXIT the nested one."""
        core, outer, inner = self._enter_nested(machine, pair)
        with pytest.raises(GeneralProtectionFault):
            isa.eexit(machine, core)


class TestAexFromNested:
    def test_aex_saves_whole_stack(self, machine, pair):
        """AEX from an inner enclave exits enclave mode entirely
        (§IV-B) and ERESUME restores the nested stack."""
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        isa.aex(machine, core)
        assert not core.in_enclave_mode
        isa.eresume(machine, core, outer, outer.base_addr)
        assert core.enclave_stack == [outer.eid, inner.eid]
        assert core.current_eid == inner.eid


class TestNereport:
    def test_report_includes_topology(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        report = nested_isa.nereport(machine, core, outer.mrenclave)
        assert report.mrenclave == outer.mrenclave
        assert report.inner_measurements == (
            (inner.mrenclave, inner.mrsigner),)
        assert report.outer_measurements == ()

    def test_inner_report_names_outer(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        report = nested_isa.nereport(machine, core, inner.mrenclave)
        assert report.outer_measurements == (
            (outer.mrenclave, outer.mrsigner),)

    def test_report_verifies_on_target_only(self, machine, pair):
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        # Target = inner; verify inside inner succeeds, inside outer fails.
        report = nested_isa.nereport(machine, core, inner.mrenclave)
        assert not nested_isa.verify_nested_report(machine, core, report)
        nested_isa.neenter(machine, core, inner, inner.base_addr)
        assert nested_isa.verify_nested_report(machine, core, report)

    def test_tampered_topology_detected(self, machine, pair):
        """A challenger can detect a forged association list."""
        outer, inner = pair
        core = machine.cores[0]
        isa.eenter(machine, core, outer, outer.base_addr)
        report = nested_isa.nereport(machine, core, outer.mrenclave)
        forged = nested_isa.NestedReport(
            report.mrenclave, report.mrsigner, report.isv_prod_id,
            report.isv_svn, report.report_data,
            report.outer_measurements, (), report.mac_tag)  # drop inner
        assert not nested_isa.verify_nested_report(machine, core, forged)

    def test_report_outside_enclave_gp(self, machine):
        with pytest.raises(GeneralProtectionFault):
            nested_isa.nereport(machine, machine.cores[0], b"\x00" * 32)
