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
        assert all(core._mee_bytes for core in machine.cores)

    @staticmethod
    def _ring_under(monkeypatch, plan):
        """A nested ring on a machine built without byte-accurate MEE
        (as every performance experiment's is), under ``plan``."""
        from repro.apps.ports.fastcomm import NestedChannelDeployment
        from repro.experiments.common import nested_host
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        host = nested_host()
        return host.machine, NestedChannelDeployment(
            host, footprint_bytes=1 << 16)

    def test_unfired_bitflip_plan_leaves_a_ring_error_free(self,
                                                           monkeypatch):
        """Every access, TLB-hit serves included, goes through the MEE:
        the transfer raises nothing, and every non-zero PRM line in DRAM
        is a written line's ciphertext, never its plaintext."""
        plan = FaultPlan(seed=0, faults=(FaultSpec(
            kind="bitflip", at=10 ** 9, flip_mask=0x01),))
        machine, deployment = self._ring_under(monkeypatch, plan)
        deployment.transfer(64, 16 << 10)
        assert machine.fault_engine.injected == []
        phys, mee = machine.phys, machine.mee
        phys.digest()       # settle every stale line
        checked = 0
        for pfn in sorted(phys._frames):
            base = pfn * PAGE_SIZE
            if not phys.in_prm(base):
                continue
            for line in range(base, base + PAGE_SIZE, 64):
                raw = phys.read(line, 64)
                if any(raw):
                    assert mee.decrypt_lines(line, raw) != raw
                    checked += 1
        assert checked > 100

    def test_fired_bitflip_names_the_flipped_line(self, monkeypatch):
        from repro.os import malicious
        flipped = []
        tamper = malicious.dram_tamper

        def recording_tamper(machine, paddr, flip_mask=0x01):
            flipped.append(paddr)
            tamper(machine, paddr, flip_mask)

        monkeypatch.setattr(malicious, "dram_tamper", recording_tamper)
        plan = FaultPlan(seed=0, faults=(FaultSpec(
            kind="bitflip", at=900, flip_mask=0x04),))
        machine, deployment = self._ring_under(monkeypatch, plan)
        with pytest.raises(IntegrityViolation) as caught:
            deployment.transfer(64, 16 << 10)
        assert [spec.kind for spec in machine.fault_engine.injected] \
            == ["bitflip"]
        (line,) = flipped
        assert str(caught.value) \
            == f"DRAM tampering detected on line {line:#x}"


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
