"""Enclave lifecycle ISA tests: ECREATE/EADD/EEXTEND/EINIT/EREMOVE."""

import pytest

from repro.errors import (EnclaveStateError, GeneralProtectionFault,
                          SigstructInvalid)
from repro.sgx import isa
from repro.sgx.constants import (PAGE_SIZE, PT_TCS, SmallMachineConfig,
                                 ST_DESTROYED, ST_INITIALIZED,
                                 ST_UNINITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.sigstruct import sign_sigstruct
from repro.crypto.rsa import generate_keypair


@pytest.fixture(scope="module")
def author_key():
    return generate_keypair(b"isa-test-author", bits=512)


@pytest.fixture
def machine():
    return Machine(SmallMachineConfig())


def build_and_init(machine, author_key, base=0x100000, pages=2):
    secs = isa.ecreate(machine, base, pages * PAGE_SIZE)
    for i in range(pages):
        content = f"page-{i}".encode()
        isa.eadd(machine, secs, base + i * PAGE_SIZE, content=content)
        isa.eextend(machine, secs, base + i * PAGE_SIZE, content)
    digest = isa.measurement_log(secs).digest()
    sig = sign_sigstruct(author_key, "test", digest)
    isa.einit(machine, secs, sig)
    return secs


class TestEcreate:
    def test_creates_uninitialised_enclave(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        assert secs.state == ST_UNINITIALIZED
        assert secs.elrange() == (0x100000, 0x110000)
        assert machine.enclave(secs.eid) is secs

    def test_eid_is_secs_frame_address(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        assert machine.phys.in_epc(secs.eid)
        assert machine.epcm.entry(secs.eid).valid

    def test_misaligned_elrange_rejected(self, machine):
        with pytest.raises(GeneralProtectionFault):
            isa.ecreate(machine, 0x100001, 0x10000)
        with pytest.raises(GeneralProtectionFault):
            isa.ecreate(machine, 0x100000, 0x10001)

    def test_distinct_enclaves_distinct_eids(self, machine):
        a = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        b = isa.ecreate(machine, 0x200000, PAGE_SIZE)
        assert a.eid != b.eid


class TestEadd:
    def test_adds_owned_page(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        frame = isa.eadd(machine, secs, 0x100000, content=b"hello")
        entry = machine.epcm.entry(frame)
        assert entry.valid and entry.eid == secs.eid
        assert entry.vaddr == 0x100000
        assert machine.epc_read(frame, 5) == b"hello"

    def test_outside_elrange_rejected(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        with pytest.raises(GeneralProtectionFault):
            isa.eadd(machine, secs, 0x200000)

    def test_after_einit_rejected(self, machine, author_key):
        secs = build_and_init(machine, author_key)
        with pytest.raises(EnclaveStateError):
            isa.eadd(machine, secs, secs.base_addr + PAGE_SIZE)

    def test_tcs_page_registers_tcs(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        isa.eadd(machine, secs, 0x101000, page_type=PT_TCS,
                 tcs_entry="main")
        tcs = machine.tcs(secs.eid, 0x101000)
        assert tcs.entry == "main"
        assert 0x101000 in secs.tcs_vaddrs

    def test_tcs_without_entry_rejected(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        with pytest.raises(GeneralProtectionFault):
            isa.eadd(machine, secs, 0x101000, page_type=PT_TCS)

    def test_oversized_content_rejected(self, machine):
        secs = isa.ecreate(machine, 0x100000, 0x10000)
        with pytest.raises(GeneralProtectionFault):
            isa.eadd(machine, secs, 0x100000, content=bytes(PAGE_SIZE + 1))


class TestEinit:
    def test_good_signature_initialises(self, machine, author_key):
        secs = build_and_init(machine, author_key)
        assert secs.state == ST_INITIALIZED
        assert secs.mrenclave
        assert secs.mrsigner

    def test_measurement_mismatch_rejected(self, machine, author_key):
        secs = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, secs, 0x100000, content=b"actual")
        isa.eextend(machine, secs, 0x100000, b"actual")
        sig = sign_sigstruct(author_key, "test", b"\x00" * 32)
        with pytest.raises(SigstructInvalid):
            isa.einit(machine, secs, sig)
        assert secs.state == ST_UNINITIALIZED

    def test_forged_signature_rejected(self, machine, author_key):
        secs = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, secs, 0x100000)
        digest = isa.measurement_log(secs).digest()
        sig = sign_sigstruct(author_key, "test", digest)
        forged = type(sig)(**{**sig.__dict__,
                              "signature": bytes(len(sig.signature))})
        with pytest.raises(SigstructInvalid):
            isa.einit(machine, secs, forged)

    def test_double_einit_rejected(self, machine, author_key):
        secs = build_and_init(machine, author_key)
        sig = sign_sigstruct(author_key, "test", secs.mrenclave)
        with pytest.raises(EnclaveStateError):
            isa.einit(machine, secs, sig)

    def test_mrsigner_is_author_key_hash(self, machine, author_key):
        from repro.sgx.measure import mrsigner_of
        secs = build_and_init(machine, author_key)
        assert secs.mrsigner == mrsigner_of(
            author_key.public_key.to_bytes())

    def test_expected_peers_copied_to_secs(self, machine, author_key):
        secs = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, secs, 0x100000)
        digest = isa.measurement_log(secs).digest()
        peers = ((b"\x01" * 32, b"\x02" * 32),)
        sig = sign_sigstruct(author_key, "test", digest,
                             expected_peer_digests=peers)
        isa.einit(machine, secs, sig)
        assert secs.expected_peer_digests == list(peers)


class TestMeasurementProperties:
    def test_same_layout_same_measurement(self, machine, author_key):
        """Two loads of the same image at different bases measure equal
        (measurement is ELRANGE-relative)."""
        a = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, a, 0x100000, content=b"code")
        isa.eextend(machine, a, 0x100000, b"code")
        b = isa.ecreate(machine, 0x700000, PAGE_SIZE)
        isa.eadd(machine, b, 0x700000, content=b"code")
        isa.eextend(machine, b, 0x700000, b"code")
        assert isa.measurement_log(a).digest() \
            == isa.measurement_log(b).digest()

    def test_different_content_different_measurement(self, machine):
        a = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, a, 0x100000, content=b"code-A")
        isa.eextend(machine, a, 0x100000, b"code-A")
        b = isa.ecreate(machine, 0x200000, PAGE_SIZE)
        isa.eadd(machine, b, 0x200000, content=b"code-B")
        isa.eextend(machine, b, 0x200000, b"code-B")
        assert isa.measurement_log(a).digest() \
            != isa.measurement_log(b).digest()

    def test_unextended_page_content_not_measured(self, machine):
        """EADD without EEXTEND measures layout only (heap pages)."""
        a = isa.ecreate(machine, 0x100000, PAGE_SIZE)
        isa.eadd(machine, a, 0x100000, content=b"heap-A")
        b = isa.ecreate(machine, 0x200000, PAGE_SIZE)
        isa.eadd(machine, b, 0x200000, content=b"heap-B")
        assert isa.measurement_log(a).digest() \
            == isa.measurement_log(b).digest()

    def test_fresh_machines_keep_separate_logs(self, author_key):
        """EIDs are SECS frame addresses, so two fresh machines hand out
        the same ones; each build still measures only its own pages."""
        def build(machine, secs, i):
            vaddr = 0x100000 + i * PAGE_SIZE
            isa.eadd(machine, secs, vaddr, content=b"code")
            isa.eextend(machine, secs, vaddr, b"code")

        alone = Machine(SmallMachineConfig())
        secs = isa.ecreate(alone, 0x100000, 2 * PAGE_SIZE)
        for i in range(2):
            build(alone, secs, i)
        sig = sign_sigstruct(author_key, "test",
                             isa.measurement_log(secs).digest())
        one, two = (Machine(SmallMachineConfig()) for _ in range(2))
        a = isa.ecreate(one, 0x100000, 2 * PAGE_SIZE)
        b = isa.ecreate(two, 0x100000, 2 * PAGE_SIZE)
        assert a.eid == b.eid
        for i in range(2):
            build(one, a, i)
            build(two, b, i)
        isa.einit(one, a, sig)
        isa.einit(two, b, sig)
        assert a.mrenclave == b.mrenclave == sig.expected_mrenclave

    def test_eremove_leaves_another_machines_build(self, author_key):
        one, two = (Machine(SmallMachineConfig()) for _ in range(2))
        a = isa.ecreate(one, 0x100000, 2 * PAGE_SIZE)
        b = isa.ecreate(two, 0x100000, 2 * PAGE_SIZE)
        isa.eadd(one, a, 0x100000)
        isa.eadd(two, b, 0x100000)
        isa.eremove(one, a)
        isa.eadd(two, b, 0x100000 + PAGE_SIZE)
        reference = isa.ecreate(one, 0x100000, 2 * PAGE_SIZE)
        for vaddr in (0x100000, 0x100000 + PAGE_SIZE):
            isa.eadd(one, reference, vaddr)
        digest = isa.measurement_log(b).digest()
        assert digest == isa.measurement_log(reference).digest()
        isa.einit(two, b, sign_sigstruct(author_key, "test", digest))
        assert b.state == ST_INITIALIZED


class TestEremove:
    def test_frees_all_pages(self, machine, author_key):
        free_before = machine.epc_alloc.free_pages
        secs = build_and_init(machine, author_key)
        isa.eremove(machine, secs)
        assert secs.state == ST_DESTROYED
        assert machine.epc_alloc.free_pages == free_before

    def test_outer_with_live_inner_rejected(self, machine, author_key):
        outer = build_and_init(machine, author_key, base=0x100000)
        inner = build_and_init(machine, author_key, base=0x200000)
        outer.inner_eids.append(inner.eid)
        inner.outer_eids.append(outer.eid)
        inner.outer_eid = outer.eid
        with pytest.raises(EnclaveStateError):
            isa.eremove(machine, outer)
        isa.eremove(machine, inner)
        isa.eremove(machine, outer)  # now fine
