"""IPC fault-policy semantics on the OS router and GcmChannel recovery
over a lossy OS."""

from repro.core import NestedValidator
from repro.faults import FaultPlan, FaultSpec
from repro.faults.engine import FaultEngine, attach_engine
from repro.faults.ipc import dropping_policy, plan_policy
from repro.os import Kernel
from repro.sdk.secure_channel import GcmChannel
from repro.sgx.constants import SmallMachineConfig
from repro.sgx.machine import Machine


def fresh():
    machine = Machine(SmallMachineConfig(num_cores=2),
                      validator_cls=NestedValidator)
    return machine, Kernel(machine)


def actions_policy(script):
    """Policy mapping 1-based delivery index -> action."""
    return lambda n, port, message: script.get(n, "deliver")


class TestLossyRouterActions:
    def test_drop_vanishes_silently(self):
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "drop"})
        router = kernel.ipc
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"gone")
        kernel.ipc.send("p", b"kept")
        assert kernel.ipc.try_recv("p") == b"kept"
        assert kernel.ipc.try_recv("p") is None
        assert router.dropped == 1
        assert router.actions == [(1, "drop")]

    def test_dup_enqueues_twice(self):
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "dup"})
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"twice")
        assert kernel.ipc.try_recv("p") == b"twice"
        assert kernel.ipc.try_recv("p") == b"twice"
        assert kernel.ipc.try_recv("p") is None

    def test_delay_preserves_fifo(self):
        """A delayed message is released *before* the next one: pure
        latency wobble, no visible inversion."""
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "delay"})
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"one")   # held
        kernel.ipc.send("p", b"two")   # releases 'one' first
        assert kernel.ipc.try_recv("p") == b"one"
        assert kernel.ipc.try_recv("p") == b"two"

    def test_reorder_inverts_order(self):
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "reorder"})
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"one")   # held
        kernel.ipc.send("p", b"two")   # delivered first
        assert kernel.ipc.try_recv("p") == b"two"
        assert kernel.ipc.try_recv("p") == b"one"

    def test_held_messages_flush_on_empty_poll(self):
        """A synchronous receiver never observes a spurious empty queue:
        polling flushes anything held back."""
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "delay"})
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"held")
        assert kernel.ipc.try_recv("p") == b"held"

    def test_dropping_policy_preset_matches_legacy_contract(self):
        machine, kernel = fresh()
        kernel.ipc.policy = dropping_policy(
            lambda port, msg: port == "victim")
        kernel.ipc.create_port("victim")
        kernel.ipc.create_port("bystander")
        kernel.ipc.send("victim", b"x")
        kernel.ipc.send("bystander", b"y")
        assert kernel.ipc.try_recv("victim") is None
        assert kernel.ipc.try_recv("bystander") == b"y"


class TestPlanPolicy:
    def test_plan_specs_fire_at_delivery_indices(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(kind="ipc", at=2, action="dup"),
            FaultSpec(kind="ipc", at=4, action="drop"),
        ))
        machine, kernel = fresh()
        kernel.ipc.policy = plan_policy(plan)
        router = kernel.ipc
        kernel.ipc.create_port("p")
        for i in range(5):
            kernel.ipc.send("p", bytes([i]))
        got = []
        while True:
            message = kernel.ipc.try_recv("p")
            if message is None:
                break
            got.append(message[0])
        assert got == [0, 1, 1, 2, 4]  # #1 duplicated, #3 dropped
        assert router.actions == [(2, "dup"), (4, "drop")]

    def test_engine_installs_lossy_router_on_kernel_attach(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(kind="ipc", at=1, action="delay"),))
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        attach_engine(machine, plan.to_json())
        kernel = Kernel(machine)
        assert kernel.ipc.policy is not None
        kernel.ipc.create_port("p")
        kernel.ipc.send("p", b"held")   # delivery #1: delayed
        assert kernel.ipc.actions == [(1, "delay")]
        assert kernel.ipc.try_recv("p") == b"held"

    def test_engine_attach_keeps_the_kernel_router(self):
        """The engine sets a policy on the router the kernel already
        has; it never swaps the router out from under its users."""
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(kind="ipc", at=1, action="drop"),))
        machine, kernel = fresh()
        router = kernel.ipc
        engine = FaultEngine(machine, plan)
        engine.attach_kernel(kernel)
        assert kernel.ipc is router
        assert router.policy is not None

    def test_memory_only_plan_keeps_honest_router(self):
        plan = FaultPlan(seed=0, faults=(FaultSpec(kind="aex", at=50),))
        machine = Machine(SmallMachineConfig(num_cores=2),
                          validator_cls=NestedValidator)
        attach_engine(machine, plan.to_json())
        kernel = Kernel(machine)
        assert kernel.ipc.policy is None


class TestGcmChannelRecovery:
    def _channel_pair(self, kernel, machine):
        kernel.ipc.create_port("p")
        tx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        rx = GcmChannel(machine, kernel.ipc, "p", bytes(16))
        return tx, rx

    def _stream(self, tx, rx, count=6):
        for i in range(count):
            tx.send(f"msg{i}".encode())
        return [rx.recv() for i in range(count)]

    def test_stream_survives_reorder(self):
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({2: "reorder"})
        tx, rx = self._channel_pair(kernel, machine)
        assert self._stream(tx, rx) \
            == [f"msg{i}".encode() for i in range(6)]

    def test_stream_survives_dup_and_delay(self):
        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "dup", 3: "delay"})
        tx, rx = self._channel_pair(kernel, machine)
        assert self._stream(tx, rx) \
            == [f"msg{i}".encode() for i in range(6)]

    def test_duplicate_discard_charges_nothing(self):
        """Cost transparency: the receiver never pays to open bytes the
        OS manufactured, so dup faults stay fingerprint-invisible."""
        base_machine, base_kernel = fresh()
        tx, rx = self._channel_pair(base_kernel, base_machine)
        self._stream(tx, rx)
        base_ns = base_machine.clock.now_ns
        base_counts = dict(base_machine.counters.snapshot())

        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({2: "dup", 4: "dup"})
        tx, rx = self._channel_pair(kernel, machine)
        assert self._stream(tx, rx) \
            == [f"msg{i}".encode() for i in range(6)]
        assert machine.clock.now_ns == base_ns
        assert dict(machine.counters.snapshot()) == base_counts

    def test_reorder_keeps_charges_identical(self):
        base_machine, base_kernel = fresh()
        tx, rx = self._channel_pair(base_kernel, base_machine)
        self._stream(tx, rx)
        base_ns = base_machine.clock.now_ns

        machine, kernel = fresh()
        kernel.ipc.policy = actions_policy({1: "reorder", 4: "reorder"})
        tx, rx = self._channel_pair(kernel, machine)
        assert self._stream(tx, rx) \
            == [f"msg{i}".encode() for i in range(6)]
        assert machine.clock.now_ns == base_ns

    def test_policy_set_after_channels_exist_governs_them(self):
        """Channels hold the kernel's one router, so a drop-all policy
        set after a GcmChannel pair was built still drops its traffic."""
        machine, kernel = fresh()
        tx, rx = self._channel_pair(kernel, machine)
        kernel.ipc.policy = dropping_policy(lambda port, msg: True)
        tx.send(b"initialise the certificate check!")
        assert kernel.ipc.dropped == 1
        assert rx.try_recv() is None
