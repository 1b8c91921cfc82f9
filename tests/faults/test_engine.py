"""FaultEngine: benign injections must be invisible in every simulated
observable an experiment folds into its fingerprint; malicious ones must
fail loudly with typed errors."""

import pytest

from repro.core import NestedValidator, audit_machine
from repro.errors import IntegrityViolation
from repro.faults import FaultPlan, FaultSpec
from repro.faults.engine import attach_engine
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig
from repro.sgx.machine import Machine

EDL = """
enclave {
    trusted {
        public int churn(int rounds);
    };
};
"""


def churn(ctx, rounds):
    heap = ctx.handle.heap
    lines = heap.size // 64
    total = 0
    for i in range(rounds):
        addr = heap.base + (i % lines) * 64
        ctx.write(addr, (i * 7919).to_bytes(8, "little"))
        total += int.from_bytes(ctx.read(addr, 8), "little")
    return total


def run_workload(plan=None, rounds=700):
    """One full deterministic workload; returns observables to diff."""
    machine = Machine(SmallMachineConfig(num_cores=2),
                      validator_cls=NestedValidator)
    engine = attach_engine(machine, plan.to_json()) \
        if plan is not None else None
    kernel = Kernel(machine)
    host = EnclaveHost(machine, kernel)
    builder = EnclaveBuilder("churner", parse_edl(EDL),
                             signing_key=developer_key("faults"),
                             heap_bytes=4 * PAGE_SIZE)
    builder.add_entry("churn", churn)
    handle = host.load(builder.build())
    result = handle.ecall("churn", rounds)
    return machine, engine, result


def observables(machine):
    return (machine.clock.now_ns,
            dict(machine.counters.snapshot()),
            machine.cost.snapshot())


class TestBenignTransparency:
    def test_aex_bubbles_leave_no_trace(self):
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="aex", at=600),
                                         FaultSpec(kind="aex", at=900)))
        base_machine, _, base_result = run_workload()
        machine, engine, result = run_workload(plan)
        assert [s.kind for s in engine.injected] == ["aex", "aex"]
        assert result == base_result
        assert observables(machine) == observables(base_machine)
        assert audit_machine(machine) == []

    def test_evict_bubble_leaves_no_trace(self):
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="evict",
                                                   at=700),))
        base_machine, _, base_result = run_workload()
        machine, engine, result = run_workload(plan)
        assert [s.kind for s in engine.injected] == ["evict"]
        assert result == base_result
        assert observables(machine) == observables(base_machine)
        assert audit_machine(machine) == []

    def test_mixed_benign_plan_fires_everything(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(kind="aex", at=500),
            FaultSpec(kind="evict", at=800),
            FaultSpec(kind="aex", at=1100),
        ))
        base_machine, _, base_result = run_workload()
        machine, engine, result = run_workload(plan)
        assert [s.kind for s in engine.injected] == ["aex", "evict",
                                                     "aex"]
        assert result == base_result
        assert observables(machine) == observables(base_machine)

    def test_aex_leaves_architectural_bookkeeping(self):
        """What deliberately persists: the interrupt really happened."""
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="aex", at=600),))
        machine, engine, _ = run_workload(plan)
        counts = [tcs.aex_count
                  for tcs in machine.tcs_registry.values()]
        assert sum(counts) >= 1


class TestMaliciousDetection:
    def test_bitflip_raises_typed_integrity_violation(self):
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="bitflip",
                                                   at=600,
                                                   flip_mask=0x10),))
        with pytest.raises(IntegrityViolation):
            run_workload(plan)

    def test_bitflip_plan_forces_byte_accurate_mee(self):
        plan = FaultPlan.bitflip(1)
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        attach_engine(machine, plan.to_json())
        assert machine._mee_bytes


class TestWiring:
    def test_env_var_attaches_engine(self, monkeypatch):
        plan = FaultPlan(seed=4, faults=(FaultSpec(kind="aex", at=50),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        assert machine.fault_engine is not None
        assert machine.fault_engine.plan == plan
        for core in machine.cores:
            assert core.access_hook is not None

    def test_no_env_var_no_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        machine = Machine(SmallMachineConfig(num_cores=2))
        assert machine.fault_engine is None
        for core in machine.cores:
            assert core.access_hook is None

    def test_postponed_fault_waits_for_enclave_mode(self):
        """An AEX trigger landing outside enclave mode stays pending:
        with no enclave in the world it can never fire, however many
        accesses go by."""
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="aex", at=1),))
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        engine = attach_engine(machine, plan.to_json())
        kernel = Kernel(machine)
        host = EnclaveHost(machine, kernel)
        base = kernel.mmap(host.proc, PAGE_SIZE)
        for _ in range(50):
            host.core.write(base, b"untrusted")
            host.core.read(base, 8)
        assert engine.injected == []
        assert engine.access_count >= 100
