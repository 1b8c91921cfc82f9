"""The first-class transition log: canonical events, rollback, the
per-worker session fold, the orderings a running machine logs, and the
digest's determinism guarantees (fault-plan transparency,
fast-vs-reference identity)."""

import pytest

from repro.apps.ports.fastcomm import NestedChannelDeployment
from repro.core import NestedValidator
from repro.errors import AccessViolation
from repro.faults.plan import FaultPlan
from repro.os import Kernel
from repro.perf.fingerprint import (WORKLOADS, machine_fingerprint,
                                    nested_pair, transition_digest)
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import isa, transitions
from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig
from repro.sgx.machine import Machine
from repro.sgx.transitions import TransitionLog


class TestTransitionLog:
    def test_record_canonicalizes_extra(self):
        log = TransitionLog()
        log.record("EENTER", 0, 1, 0x1000, 1, {"b": 2, "a": 1})
        log.record("NASSO", None, 2, 0, 0, {})
        assert log.events == [
            ("EENTER", 0, 1, 0x1000, 1, (("a", 1), ("b", 2))),
            ("NASSO", None, 2, 0, 0, ()),
        ]
        assert len(log) == 2

    def test_digest_deterministic_and_order_sensitive(self):
        a, b, c = TransitionLog(), TransitionLog(), TransitionLog()
        for log in (a, b):
            log.record("EENTER", 0, 1, 0x1000, 1, {})
            log.record("EEXIT", 0, 1, 0x1000, 0, {})
        c.record("EEXIT", 0, 1, 0x1000, 0, {})
        c.record("EENTER", 0, 1, 0x1000, 1, {})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 64
        int(a.digest(), 16)

    def test_rollback_restores_digest(self):
        log = TransitionLog()
        log.record("EENTER", 0, 1, 0x1000, 1, {})
        before = log.digest()
        mark = log.mark()
        log.record("AEX", 0, 1, 0x1000, 0, {"parked": 1})
        log.record("ERESUME", 0, 1, 0x1000, 1, {})
        assert log.digest() != before
        log.rollback(mark)
        assert log.digest() == before
        assert len(log) == 1


class TestSessions:
    def test_session_folds_logs_in_registration_order(self):
        transitions.begin_session()
        a, b = TransitionLog(), TransitionLog()
        a.record("ECREATE", None, 1, 0, 0, {})
        transitions.register(a)
        transitions.register(b)
        first = transitions.end_session()

        transitions.begin_session()
        transitions.register(b)
        transitions.register(a)
        assert transitions.end_session() != first

    def test_register_is_noop_outside_session(self):
        transitions.begin_session()
        baseline = transitions.end_session()
        transitions.register(TransitionLog())  # no active session
        transitions.begin_session()
        assert transitions.end_session() == baseline

    def test_machine_construction_registers_its_log(self):
        transitions.begin_session()
        try:
            machine = Machine(SmallMachineConfig())
        finally:
            digest = transitions.end_session()
        # The session digest folds exactly this machine's (empty) log.
        empty = TransitionLog()
        assert machine.transitions.digest() == empty.digest()
        transitions.begin_session()
        transitions.register(empty)
        assert transitions.end_session() == digest


class TestMachineRecording:
    def test_nested_pair_records_lifecycle_and_association(self):
        host, outer, inner = nested_pair()
        kinds = {event[0] for event in host.machine.transitions.events}
        assert {"ECREATE", "EINIT", "NASSO"} <= kinds

    def test_workload_records_nested_transitions(self):
        machine = WORKLOADS["transitions"]()
        kinds = [event[0] for event in machine.transitions.events]
        for kind in ("EENTER", "NEENTER", "NEEXIT", "EEXIT", "AEX",
                     "ERESUME"):
            assert kind in kinds, kind

    def test_logging_charges_no_simulated_cost(self):
        machine = Machine(SmallMachineConfig())
        before = machine_fingerprint(machine)
        machine.log_transition("EENTER", 0, eid=1, tcs=0x1000, depth=1)
        assert machine_fingerprint(machine) == before
        assert len(machine.transitions) == 1


EDL = """
enclave {
    trusted {
        public int read_at(int addr);
    };
};
"""


def _kinds_since(machine: Machine, mark: int) -> "list[str]":
    return [event[0] for event in machine.transitions.events[mark:]]


class TestEventSequences:
    """Orderings the log must show on a running machine."""

    @pytest.fixture
    def world(self):
        machine = Machine(SmallMachineConfig(),
                          validator_cls=NestedValidator)
        host = EnclaveHost(machine, Kernel(machine))
        builder = EnclaveBuilder("logged", parse_edl(EDL),
                                 signing_key=developer_key("logged"))
        builder.add_entry(
            "read_at",
            lambda ctx, addr: int.from_bytes(ctx.read(addr, 8),
                                             "little"))
        handle = host.load(builder.build())
        return machine, host, handle

    def test_transition_events(self, world):
        machine, host, handle = world
        mark = len(machine.transitions)
        handle.ecall("read_at", handle.heap.base)
        kinds = _kinds_since(machine, mark)
        assert kinds.index("EENTER") < kinds.index("EEXIT")

    def test_violation_names_the_prm(self, world):
        machine, host, handle = world
        with pytest.raises(AccessViolation, match="PRM"):
            host.core.read(handle.heap.base, 8)

    def test_eviction_sequence(self, world):
        """The §IV-E ordering: AEX of tracked threads precedes EWB."""
        machine, host, handle = world
        target = (handle.heap.base & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        core = machine.cores[1]
        core.address_space = host.proc.space
        isa.eenter(machine, core, handle.secs, handle.idle_tcs())
        core.read(target, 8)
        mark = len(machine.transitions)
        host.kernel.driver.evict_page(handle.secs, target)
        kinds = _kinds_since(machine, mark)
        assert kinds.index("AEX") < kinds.index("EWB")

    def test_nasso_logged(self, world):
        machine, host, handle = world
        mark = len(machine.transitions)
        NestedChannelDeployment(host, footprint_bytes=1 << 16)
        assert _kinds_since(machine, mark).count("NASSO") == 2


class TestDigestDeterminism:
    def test_same_workload_same_digest(self):
        assert transition_digest(WORKLOADS["transitions"]()) == \
            transition_digest(WORKLOADS["transitions"]())

    def test_benign_fault_plan_is_digest_transparent(self, monkeypatch):
        """The fault engine's transparency doctrine covers the log:
        every benign injection rolls its transition events back, so the
        digest matches the fault-free run byte for byte."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        clean = WORKLOADS["transitions"]()
        for seed in (1, 2):
            monkeypatch.setenv("REPRO_FAULT_PLAN",
                               FaultPlan.benign(seed).to_json())
            faulted = WORKLOADS["transitions"]()
            assert transition_digest(faulted) == \
                transition_digest(clean), f"seed {seed}"
            assert machine_fingerprint(faulted) == \
                machine_fingerprint(clean), f"seed {seed}"

    def test_reference_paths_record_identical_transitions(self):
        """The slow reference memory paths must perform the exact same
        transition sequence as the fast paths (DIFF002's invariant)."""
        fast = nested_pair()[0].machine
        ref = nested_pair(reference_paths=True)[0].machine
        assert fast.transitions.events == ref.transitions.events
        assert transition_digest(fast) == transition_digest(ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_digest_is_hex(name):
    digest = transition_digest(WORKLOADS[name]())
    assert len(digest) == 64
    int(digest, 16)
