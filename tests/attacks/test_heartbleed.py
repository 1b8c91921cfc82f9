"""Heartbleed attack tests (case study VI-A, Table VII row 1)."""

from repro.apps.ports.echo import MonolithicEchoServer, NestedEchoServer
from repro.attacks.heartbleed import run_heartbleed
from repro.core import NestedValidator
from repro.os import Kernel
from repro.sdk import EnclaveHost
from repro.sgx import Machine
from repro.sgx.access import BaselineValidator

SECRET = b"PRIVATE-KEY:deadbeef-0123456789abcdef"


def host(validator=NestedValidator, **config):
    machine = Machine(validator_cls=validator)
    return EnclaveHost(machine, Kernel(machine))


class TestMonolithic:
    def test_live_secret_leaks(self):
        outcome = run_heartbleed(MonolithicEchoServer(
            host(BaselineValidator)), secret=SECRET)
        assert outcome.secret_leaked
        assert len(outcome.leaked) > 1000

    def test_freed_secret_leaks(self):
        """The CVE wording: 'arbitrary freed buffers ... which is freed
        but might contain security-critical contents'."""
        outcome = run_heartbleed(MonolithicEchoServer(
            host(BaselineValidator)), secret=SECRET,
            free_secret_first=True)
        assert outcome.secret_leaked

    def test_patched_library_stops_it(self):
        outcome = run_heartbleed(MonolithicEchoServer(
            host(BaselineValidator), patched=True), secret=SECRET)
        assert outcome.response_empty
        assert not outcome.secret_leaked

    def test_honest_length_leaks_nothing(self):
        outcome = run_heartbleed(MonolithicEchoServer(
            host(BaselineValidator)), secret=SECRET, probe=b"ping",
            claimed_length=4)
        assert not outcome.secret_leaked
        assert outcome.leaked == b""


class TestNested:
    def test_secret_protected(self):
        outcome = run_heartbleed(NestedEchoServer(host()),
                                 secret=SECRET)
        assert not outcome.secret_leaked

    def test_attack_still_leaks_outer_bytes(self):
        """Confinement, not a fix: the bug still over-reads — but only
        outer-enclave (library) memory."""
        outcome = run_heartbleed(NestedEchoServer(host()),
                                 secret=SECRET)
        assert len(outcome.leaked) > 1000

    def test_freed_secret_protected_too(self):
        outcome = run_heartbleed(NestedEchoServer(host()),
                                 secret=SECRET, free_secret_first=True)
        assert not outcome.secret_leaked

    def test_various_claimed_lengths(self):
        for claimed in (128, 1024, 4096):
            outcome = run_heartbleed(NestedEchoServer(host()),
                                     secret=SECRET,
                                     claimed_length=claimed)
            assert not outcome.secret_leaked, claimed
