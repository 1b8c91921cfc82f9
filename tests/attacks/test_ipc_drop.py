"""Panoply-style OS message-drop attack tests (§VII-B, Table VII row 3)."""

from repro.attacks.ipc_drop import (BOGUS_CERT, run_over_nested_ring,
                                    run_over_os_ipc,
                                    run_over_reliable_link,
                                    _verify_certificate)
from repro.core import NestedValidator
from repro.core.channel import SharedRing
from repro.faults.ipc import dropping_policy
from repro.os import Kernel
from repro.sdk import EnclaveHost
from repro.sgx import Machine


def fresh():
    machine = Machine(validator_cls=NestedValidator)
    return machine, Kernel(machine)


class TestCertificateLogic:
    def test_bogus_cert_fails_verification(self):
        assert not _verify_certificate(BOGUS_CERT)

    def test_valid_cert_passes(self):
        assert _verify_certificate(
            b"CERT:subject=me.example;signer=trust-root.example")

    def test_garbage_cert_fails(self):
        assert not _verify_certificate(b"not a cert at all")


class TestOsIpcTransport:
    def test_honest_os_check_runs_and_rejects(self):
        machine, kernel = fresh()
        outcome = run_over_os_ipc(machine, kernel, os_drops=False)
        assert outcome.check_executed
        assert outcome.explicit_failure_seen
        assert not outcome.app_accepted
        assert not outcome.attack_succeeded

    def test_dropping_os_bypasses_the_check(self):
        """The attack: silence looks like success."""
        machine, kernel = fresh()
        outcome = run_over_os_ipc(machine, kernel, os_drops=True)
        assert not outcome.check_executed
        assert outcome.app_accepted
        assert outcome.attack_succeeded


class TestReliableLinkTransport:
    def test_honest_os_check_runs_and_rejects(self):
        machine, kernel = fresh()
        outcome = run_over_reliable_link(machine, kernel)
        assert outcome.check_executed
        assert outcome.explicit_failure_seen
        assert not outcome.attack_succeeded

    def test_intermittent_drops_absorbed_by_resend(self):
        machine, kernel = fresh()
        outcome = run_over_reliable_link(machine, kernel, drop_first=2)
        assert outcome.check_executed   # the retry got through
        assert not outcome.attack_succeeded

    def test_total_blackout_fails_closed(self):
        """The drop attack degrades from silent bypass to a typed
        timeout the application treats as failure."""
        machine, kernel = fresh()
        outcome = run_over_reliable_link(machine, kernel, drop_all=True)
        assert not outcome.check_executed
        assert not outcome.app_accepted   # no silence-is-consent
        assert not outcome.attack_succeeded


class TestNestedRingTransport:
    def _rings(self):
        from repro.apps.ports.fastcomm import NestedChannelDeployment
        from repro.sgx import isa
        machine = Machine(validator_cls=NestedValidator)
        host = EnclaveHost(machine, Kernel(machine))
        deployment = NestedChannelDeployment(host,
                                             footprint_bytes=1 << 16)
        core_a, core_b = machine.cores[0], machine.cores[2]
        core_b.address_space = core_a.address_space
        isa.eenter(machine, core_a, deployment.producer.secs,
                   deployment.producer.idle_tcs())
        isa.eenter(machine, core_b, deployment.consumer.secs,
                   deployment.consumer.idle_tcs())
        to_mgr = SharedRing(deployment.ring_base, 1 << 12)
        to_app = SharedRing(deployment.ring_base + (1 << 13), 1 << 12)
        to_mgr.initialise(core_a)
        to_app.initialise(core_a)
        return machine, core_a, core_b, to_mgr, to_app

    def test_check_runs_and_rejects(self):
        machine, core_a, core_b, to_mgr, to_app = self._rings()
        outcome = run_over_nested_ring(machine, core_a, core_b,
                                       to_mgr, to_app)
        assert outcome.check_executed
        assert outcome.explicit_failure_seen
        assert not outcome.attack_succeeded

    def test_os_has_no_interposition_point(self):
        """Structural property: the ring bytes never transit the kernel
        IPC router, so a dropping router has nothing to drop."""
        machine, core_a, core_b, to_mgr, to_app = self._rings()
        kernel = Kernel(machine)
        kernel.ipc.policy = dropping_policy(lambda p, m: True)
        outcome = run_over_nested_ring(machine, core_a, core_b,
                                       to_mgr, to_app)
        assert outcome.check_executed            # unaffected
        assert kernel.ipc.dropped == 0           # nothing ever passed by
