"""Orchestrator tests: deterministic aggregation across worker counts,
budget/timeout enforcement, retry-once, and the results schema.

The expensive experiments never run here — these tests use the cheap
corner of the registry plus the env-gated ``selftest-*`` entries, so
every timeout/crash/retry path is exercised through real worker
processes in seconds.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.experiments import registry as reg
from repro.runner import (build_document, build_timings, canonical_json,
                          run_suite)
from repro.runner.__main__ import main as runner_main

#: Cheap, deterministic experiments (~1 s or less each).  table7's
#: cost hint (0.6) exceeds the others (at most 0.06), so LPT scheduling
#: starts it first even though it is not first in canonical order —
#: which is what makes the order assertions below meaningful.
CHEAP = ["table3", "table5", "table7", "ablation-d1", "ablation-d4"]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="selftest experiments reach workers via fork-inherited env")


@pytest.fixture(scope="module")
def cheap_runs():
    """The cheap subset run at -j1 and -j4 (workers far exceeding
    items, so completion order differs from canonical order)."""
    return (run_suite(CHEAP, jobs=1), run_suite(CHEAP, jobs=4))


class TestDeterminism:
    def test_results_document_byte_identical_j1_vs_j4(self, cheap_runs):
        serial, parallel = cheap_runs
        assert canonical_json(build_document(serial)) == \
            canonical_json(build_document(parallel))

    def test_canonical_order_not_scheduling_order(self, cheap_runs):
        _, parallel = cheap_runs
        # LPT scheduling starts table7 (highest cost hint) first, but
        # the document keeps canonical registry order.
        assert list(parallel.outcomes) == \
            [n for n in reg.specs() if n in CHEAP]

    def test_every_experiment_fingerprinted(self, cheap_runs):
        serial, _ = cheap_runs
        for outcome in serial.outcomes.values():
            assert outcome.ok
            assert len(outcome.fingerprint) == 64
            int(outcome.fingerprint, 16)

    def test_fingerprints_match_across_worker_counts(self, cheap_runs):
        serial, parallel = cheap_runs
        for name in CHEAP:
            assert serial.outcomes[name].fingerprint == \
                parallel.outcomes[name].fingerprint

    def test_every_experiment_has_transition_digest(self, cheap_runs):
        serial, _ = cheap_runs
        for outcome in serial.outcomes.values():
            assert len(outcome.transition_digest) == 64
            int(outcome.transition_digest, 16)

    def test_transition_digests_match_across_worker_counts(
            self, cheap_runs):
        """The transition-log digest is a determinism observable like
        the result fingerprint: -j1 and -j4 must agree byte for byte."""
        serial, parallel = cheap_runs
        for name in CHEAP:
            assert serial.outcomes[name].transition_digest == \
                parallel.outcomes[name].transition_digest

    def test_document_digest_covers_experiments(self, cheap_runs):
        serial, _ = cheap_runs
        document = build_document(serial)
        assert document["digest"] == \
            build_document(serial)["digest"]
        document["experiments"][0]["result"]["rows"][0][-1] = "tamper"
        from repro.runner.results import document_digest
        assert document_digest(document["experiments"]) != \
            document["digest"]


class TestSchema:
    def test_document_shape(self, cheap_runs):
        serial, _ = cheap_runs
        document = build_document(serial)
        assert document["schema"] == 1
        assert document["suite"] == "quick"
        entry = document["experiments"][0]
        assert set(entry) == {"name", "status", "result",
                              "fingerprint", "transition_digest"}
        result = entry["result"]
        assert set(result) == {"experiment", "title", "columns",
                               "rows", "notes", "metrics"}
        assert result["metrics"], "harness reported no typed metrics"

    def test_timings_document_separate_from_results(self, cheap_runs):
        serial, _ = cheap_runs
        timings = build_timings(serial)
        assert set(timings["experiments"]) == set(CHEAP)
        for entry in timings["experiments"].values():
            assert entry["host_s"] >= 0.0
            assert entry["attempts"] == 1
        # Host time must never leak into the deterministic document.
        assert "host" not in canonical_json(build_document(serial))

    def test_json_round_trip_preserves_rows(self, cheap_runs):
        serial, _ = cheap_runs
        document = build_document(serial)
        reloaded = json.loads(canonical_json(document))
        assert reloaded == document

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_suite(["no-such-experiment"])


@needs_fork
class TestFailureHandling:
    def test_crash_is_retried_then_reported(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        run = run_suite(["selftest-crash"], jobs=1)
        outcome = run.outcomes["selftest-crash"]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "deliberate harness failure" in outcome.error

    def test_hang_hits_budget_and_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        # Pin enforcement: CI exports REPRO_SKIP_HOST_BUDGET=1, which
        # would otherwise let the hang run to completion.
        run = run_suite(["selftest-hang"], jobs=1,
                        enforce_budgets=True)
        outcome = run.outcomes["selftest-hang"]
        assert outcome.status == "timeout"
        assert outcome.attempts == 2
        assert "host-time budget" in outcome.error
        # Two 1 s budgets, not the 60 s the hang would have taken.
        assert run.elapsed_s < 30

    def test_flake_recovers_on_retry(self, monkeypatch, tmp_path):
        marker = tmp_path / "flaky-marker"
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        monkeypatch.setenv("REPRO_RUNNER_FLAKY_PATH", str(marker))
        run = run_suite(["selftest-flaky"], jobs=1)
        outcome = run.outcomes["selftest-flaky"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert marker.exists()

    def test_failure_recorded_in_document(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        run = run_suite(["selftest-crash", "selftest-ok"], jobs=2)
        document = build_document(run)
        by_name = {entry["name"]: entry
                   for entry in document["experiments"]}
        assert by_name["selftest-ok"]["status"] == "ok"
        assert by_name["selftest-crash"]["status"] == "failed"
        assert "error" in by_name["selftest-crash"]
        assert "result" not in by_name["selftest-crash"]

    def test_budgets_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SKIP_HOST_BUDGET", "1")
        run = run_suite(["table5"], jobs=1)
        assert not run.budgets_enforced
        assert run.outcomes["table5"].budget_s is None


class TestCli:
    def test_json_to_stdout(self, capsys):
        assert runner_main(["table5", "--json", "-", "--quiet"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiments"][0]["name"] == "table5"

    def test_prefix_match_and_exit_codes(self, capsys):
        assert runner_main(["no-such", "--quiet"]) == 2
        assert "no experiment matches" in capsys.readouterr().err

    def test_list_shows_registry(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in reg.specs():
            assert name in out

    @needs_fork
    def test_failed_experiment_exits_nonzero(self, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        assert runner_main(["selftest-crash", "--quiet"]) == 1
        assert "selftest-crash" in capsys.readouterr().err


@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SPEEDUP") != "1"
    or (os.cpu_count() or 1) < 4,
    reason="minutes-long wall-clock benchmark; needs >=4 cores and "
           "REPRO_RUN_SPEEDUP=1")
def test_quick_suite_2x_faster_at_j4():
    """ISSUE acceptance: full quick suite >=2x faster at -j4 than
    serially on a 4-core host (LPT scheduling keeps the long
    experiments off one worker)."""
    serial = run_suite(jobs=1)
    parallel = run_suite(jobs=4)
    assert canonical_json(build_document(serial)) == \
        canonical_json(build_document(parallel))
    assert serial.elapsed_s / parallel.elapsed_s >= 2.0
