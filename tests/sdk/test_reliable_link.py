"""ReliableLink/ReliableResponder: forward progress over a lossy OS
router — resends, seeded exponential backoff, dedupe, stale-response
handling, typed timeout and deadline."""

import pytest

from repro.core import NestedValidator
from repro.errors import ChannelTimeout, DeadlineExceeded
from repro.os import Kernel
from repro.perf.costmodel import CHANNEL_RETRY_BACKOFF_NS
from repro.sdk.secure_channel import (RELIABLE_MAX_ATTEMPTS,
                                      BackoffPolicy, reliable_pair)
from repro.sgx.constants import SmallMachineConfig
from repro.sgx.machine import Machine

KEY = bytes(range(16))


def expected_backoff(rid: int, retries: int) -> float:
    """Simulated wait the default policy charges for ``retries``
    failed attempts of request ``rid``."""
    return sum(BackoffPolicy().schedule(
        rid, RELIABLE_MAX_ATTEMPTS - 1)[:retries])


def fresh():
    machine = Machine(SmallMachineConfig(num_cores=2),
                      validator_cls=NestedValidator)
    return machine, Kernel(machine)


def make_pair(machine, kernel, handler=None):
    calls = []

    def default_handler(payload):
        calls.append(bytes(payload))
        return b"echo:" + payload

    link, responder = reliable_pair(machine, kernel.ipc, "svc", KEY,
                                    handler or default_handler)
    return link, responder, calls


class TestHonestTransport:
    def test_call_round_trip(self):
        machine, kernel = fresh()
        link, responder, calls = make_pair(machine, kernel)
        assert link.call(b"ping", pump=responder.pump) == b"echo:ping"
        assert calls == [b"ping"]

    def test_rids_are_monotone_across_calls(self):
        machine, kernel = fresh()
        link, responder, calls = make_pair(machine, kernel)
        for i in range(3):
            assert link.call(f"m{i}".encode(), pump=responder.pump) \
                == f"echo:m{i}".encode()
        assert calls == [b"m0", b"m1", b"m2"]


def drop_first_requests(kernel, count):
    remaining = {"n": count}

    def policy(n, port, message):
        if port.endswith(":req") and remaining["n"] > 0:
            remaining["n"] -= 1
            return "drop"
        return "deliver"

    kernel.ipc.policy = policy


class TestLossyTransport:
    def test_resend_absorbs_interior_drops(self):
        machine, kernel = fresh()
        drop_first_requests(kernel, 2)
        link, responder, calls = make_pair(machine, kernel)
        before = machine.cost.breakdown.get("channel_backoff", 0.0)
        assert link.call(b"ping", pump=responder.pump) == b"echo:ping"
        assert calls == [b"ping"]  # handler ran exactly once
        spent = machine.cost.breakdown["channel_backoff"] - before
        assert spent == pytest.approx(expected_backoff(rid=1, retries=2))

    def test_total_blackout_times_out_typed(self):
        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "drop" if port.endswith(":req") else "deliver")
        link, responder, calls = make_pair(machine, kernel)
        before = machine.cost.breakdown.get("channel_backoff", 0.0)
        with pytest.raises(ChannelTimeout):
            link.call(b"ping", pump=responder.pump)
        assert calls == []
        spent = machine.cost.breakdown["channel_backoff"] - before
        assert spent == pytest.approx(
            expected_backoff(rid=1, retries=RELIABLE_MAX_ATTEMPTS - 1))

    def test_duplicated_request_served_once(self):
        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "dup" if port.endswith(":req") else "deliver")
        link, responder, calls = make_pair(machine, kernel)
        assert link.call(b"ping", pump=responder.pump) == b"echo:ping"
        assert calls == [b"ping"]  # dedupe by request id
        # The byte-identical duplicate hits the responder's dup window
        # and is discarded without a re-answer (and without charging).
        assert link.call(b"pong", pump=responder.pump) == b"echo:pong"
        assert calls == [b"ping", b"pong"]

    def test_stale_response_discarded_by_id(self):
        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "dup" if port.endswith(":resp") else "deliver")
        link, responder, calls = make_pair(machine, kernel)
        assert link.call(b"one", pump=responder.pump) == b"echo:one"
        # The duplicated rid-1 response still sits in the queue; the
        # next call must skip it and match on its own rid.
        assert link.call(b"two", pump=responder.pump) == b"echo:two"
        assert calls == [b"one", b"two"]

    def test_lost_response_recovered_by_reanswer(self):
        """Request arrives, response is dropped: the resend hits the
        responder's dedupe path and the cached reply comes back."""
        machine, kernel = fresh()
        dropped = {"n": 0}

        def policy(n, port, message):
            if port.endswith(":resp") and dropped["n"] == 0:
                dropped["n"] = 1
                return "drop"
            return "deliver"

        kernel.ipc.policy = policy
        link, responder, calls = make_pair(machine, kernel)
        assert link.call(b"ping", pump=responder.pump) == b"echo:ping"
        assert calls == [b"ping"]  # handler did NOT run twice


class TestBackoffSchedule:
    """The satellite contract: seeded deterministic exponential backoff
    with jitter, replayable per request ID."""

    def test_same_seed_same_rid_is_identical(self):
        policy = BackoffPolicy(seed=7)
        assert policy.schedule(3, 4) == policy.schedule(3, 4)

    def test_different_rids_decorrelate(self):
        policy = BackoffPolicy(seed=7)
        assert policy.schedule(1, 4) != policy.schedule(2, 4)

    def test_different_seeds_decorrelate(self):
        assert BackoffPolicy(seed=1).schedule(1, 4) != \
            BackoffPolicy(seed=2).schedule(1, 4)

    def test_exponential_envelope_with_cap_and_jitter(self):
        policy = BackoffPolicy(base_ns=1000.0, multiplier=2.0,
                               cap_ns=4000.0, jitter=0.5, seed=0)
        waits = policy.schedule(9, 6)
        raw = [1000.0, 2000.0, 4000.0, 4000.0, 4000.0, 4000.0]
        for wait, ceiling in zip(waits, raw):
            assert ceiling * 0.5 <= wait <= ceiling

    def test_zero_jitter_is_pure_exponential(self):
        policy = BackoffPolicy(base_ns=100.0, multiplier=3.0,
                               cap_ns=1e9, jitter=0.0)
        assert policy.schedule(1, 3) == [100.0, 300.0, 900.0]

    def test_link_charges_the_policy_schedule(self):
        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "drop" if port.endswith(":req") else "deliver")
        policy = BackoffPolicy(base_ns=CHANNEL_RETRY_BACKOFF_NS, seed=5)
        link, responder = reliable_pair(
            machine, kernel.ipc, "svc", KEY,
            lambda payload: payload, backoff=policy)[:2]
        with pytest.raises(ChannelTimeout):
            link.call(b"ping", pump=responder.pump)
        spent = machine.cost.breakdown["channel_backoff"]
        assert spent == pytest.approx(sum(policy.schedule(
            1, RELIABLE_MAX_ATTEMPTS - 1)))


class TestLazySchedule:
    """The backoff schedule is built at the first retry, so a call that
    never retries never seeds a ``random.Random``."""

    @pytest.fixture
    def built(self, monkeypatch):
        rids = []
        schedule = BackoffPolicy.schedule

        def counted(policy, rid, attempts):
            rids.append(rid)
            return schedule(policy, rid, attempts)

        monkeypatch.setattr(BackoffPolicy, "schedule", counted)
        return rids

    def test_lossless_call_builds_no_schedule(self, built):
        machine, kernel = fresh()
        link, responder, _calls = make_pair(machine, kernel)
        for _ in range(3):
            link.call(b"ping", pump=responder.pump)
        assert built == []

    def test_lossy_call_charges_each_scheduled_wait(self, built,
                                                    monkeypatch):
        machine, kernel = fresh()
        drop_first_requests(kernel, 3)
        link, responder, _calls = make_pair(machine, kernel)
        charged = []
        charge = machine.cost.charge

        def spy(event, ns):
            if event == "channel_backoff":
                charged.append(ns)
            charge(event, ns)

        monkeypatch.setattr(machine.cost, "charge", spy)
        assert link.call(b"ping", pump=responder.pump) == b"echo:ping"
        assert link.call(b"pong", pump=responder.pump) == b"echo:pong"
        assert built == [1]     # only the call that retried
        assert charged == BackoffPolicy().schedule(
            1, RELIABLE_MAX_ATTEMPTS - 1)[:3]


class TestDeadline:
    def test_deadline_in_the_past_fails_before_any_attempt(self):
        machine, kernel = fresh()
        link, responder, calls = make_pair(machine, kernel)
        machine.cost.charge("warmup", 1000.0)
        with pytest.raises(DeadlineExceeded):
            link.call(b"ping", pump=responder.pump, deadline_ns=500.0)
        assert calls == []

    def test_deadline_fires_between_attempts_never_hangs(self):
        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "drop" if port.endswith(":req") else "deliver")
        link, responder, calls = make_pair(machine, kernel)
        deadline = machine.clock.now_ns + 1.0  # < one backoff wait
        with pytest.raises(DeadlineExceeded):
            link.call(b"ping", pump=responder.pump, deadline_ns=deadline)
        assert calls == []

    def test_generous_deadline_does_not_interfere(self):
        machine, kernel = fresh()
        link, responder, calls = make_pair(machine, kernel)
        deadline = machine.clock.now_ns + 1e12
        assert link.call(b"ping", pump=responder.pump,
                         deadline_ns=deadline) == b"echo:ping"


class TestDupTransparency:
    """OS-manufactured duplicates must be absorbed without charging —
    the property that keeps benign `dup` fault plans byte-invisible in
    the chaos fingerprints."""

    def _cost_state(self, machine):
        return (machine.clock.now_ns, dict(machine.cost.breakdown))

    def test_request_dup_leaves_costs_identical(self):
        baseline_machine, baseline_kernel = fresh()
        link, responder, _ = make_pair(baseline_machine, baseline_kernel)
        link.call(b"ping", pump=responder.pump)
        baseline = self._cost_state(baseline_machine)

        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "dup" if port.endswith(":req") else "deliver")
        link, responder, _ = make_pair(machine, kernel)
        link.call(b"ping", pump=responder.pump)
        assert self._cost_state(machine) == baseline

    def test_response_dup_leaves_costs_identical(self):
        baseline_machine, baseline_kernel = fresh()
        link, responder, _ = make_pair(baseline_machine, baseline_kernel)
        link.call(b"one", pump=responder.pump)
        link.call(b"two", pump=responder.pump)
        baseline = self._cost_state(baseline_machine)

        machine, kernel = fresh()
        kernel.ipc.policy = (
            lambda n, port, message:
            "dup" if port.endswith(":resp") else "deliver")
        link, responder, _ = make_pair(machine, kernel)
        link.call(b"one", pump=responder.pump)
        link.call(b"two", pump=responder.pump)
        assert self._cost_state(machine) == baseline
