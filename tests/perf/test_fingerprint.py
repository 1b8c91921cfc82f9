"""Golden determinism fingerprints for the simulated memory system.

These digests fold together the simulated clock, every event counter,
the per-event cost breakdown, the raw DRAM image (MEE ciphertext) and
the MEE integrity-tree root for fixed workloads.  They were recorded on
the straightforward (pre-fast-path) memory system; the optimized LLC /
cost-charging / translation paths must reproduce them bit-for-bit.

If a change legitimately alters simulated behaviour (new cost params, a
different eviction policy), regenerate with::

    PYTHONPATH=src python -m repro.perf.fingerprint

and update GOLDEN below — in its own commit, with the behavioural reason
in the message.  A pure performance optimization must never touch them.
"""

from __future__ import annotations

import pytest

from repro.perf.fingerprint import (WORKLOADS, compute_fingerprints,
                                    machine_fingerprint)

GOLDEN = {
    "ring_channel":
        "53297b3839bebfa653900faf4b03e21b60d7160b6d0d70de65d83e0f2ed53ac1",
    "gcm_channel":
        "e753a22bab0a0f4f792484cdba6bd0fd7c0b1be8d474870be0cf5205e39ff34c",
    "transitions":
        "950b29cf7316f1a0e7eaa02c9a89268e03283804222b02252d45334b3f684c2a",
    "eviction_pressure":
        "179ec7ac3cf560c8e012ae6377791ab09c6fbf99ca465e2199f824cd581c2797",
    "bulk_copy":
        "2ff9a98df0b4edc4640888b62fe04169ac10428ef73de586984f36bc4c6cf1eb",
}


def test_every_workload_has_a_golden():
    assert set(GOLDEN) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_matches_golden(name):
    machine = WORKLOADS[name]()
    assert machine_fingerprint(machine) == GOLDEN[name], (
        f"workload {name!r} drifted from its golden fingerprint: some "
        f"simulated-time observable (clock, counters, cost breakdown, "
        f"DRAM ciphertext, or MEE root) changed")


def test_fingerprints_are_reproducible_within_process():
    assert compute_fingerprints() == compute_fingerprints()


def test_bulk_copy_compiled_matches_reference_paths():
    """The bulk-copy shape served inline from the TLB must be
    byte-identical to the per-page reference path
    (``MachineConfig.reference_paths`` turns the inline serve off),
    including the transition-log digest — the inline serve records no
    transitions."""
    from repro.perf.fingerprint import bulk_pair, transition_digest
    from repro.sgx.constants import PAGE_SIZE

    def run(**overrides):
        host, outer, _inner = bulk_pair(**overrides)
        span, dst = 6 * PAGE_SIZE, 8 * PAGE_SIZE
        outer.ecall("fill", 0, span, 0x5A)
        outer.ecall("blast", 0, dst, span, 2)
        outer.ecall("delegate", dst, 0, span)
        assert outer.ecall("checksum", 0, span) \
            == outer.ecall("checksum", dst, span)
        machine = host.machine
        return machine_fingerprint(machine), transition_digest(machine)

    assert run() == run(reference_paths=True) \
        == (GOLDEN["bulk_copy"],
            "057c0c8f5b42d887302334d2ecc37f54d2feb23cde23cbcc6157bb52b8c754dc")


class TestResultFingerprint:
    """Per-experiment result digests used by repro.runner."""

    @staticmethod
    def _sample():
        from repro.experiments.report import ExperimentResult
        result = ExperimentResult("Demo", "fingerprint sample",
                                  ("k", "v"))
        result.add("x", 0.1 + 0.2)     # exact-float folding matters
        result.add("y", 3)
        result.metric("headline", 0.30000000000000004)
        result.note("a note")
        return result

    def test_object_and_dict_forms_agree(self):
        import json

        from repro.perf.fingerprint import result_fingerprint
        result = self._sample()
        direct = result_fingerprint(result)
        assert direct == result_fingerprint(result.to_dict())
        # ...and survives a JSON round trip (what the runner ships).
        reloaded = json.loads(json.dumps(result.to_dict()))
        assert direct == result_fingerprint(reloaded)

    def test_sensitive_to_any_value(self):
        from repro.perf.fingerprint import result_fingerprint
        base = result_fingerprint(self._sample())

        bumped = self._sample()
        bumped.rows[0] = ("x", 0.1 + 0.2 + 1e-16)
        row_change = result_fingerprint(bumped)

        renamed = self._sample()
        renamed.metrics["headline"] = 0.3
        metric_change = result_fingerprint(renamed)

        assert len({base, row_change, metric_change}) == 3
