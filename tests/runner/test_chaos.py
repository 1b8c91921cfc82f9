"""Chaos mode end to end: benign transparency, loud bitflips, plan
serialization, and the CLI wiring — all through real worker processes
against the cheap ``selftest-memory`` experiment."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.faults import FaultPlan
from repro.runner.__main__ import main as runner_main
from repro.runner.chaos import run_chaos
from repro.runner.pool import run_suite

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="selftest experiments reach workers via fork-inherited env")


@needs_fork
class TestChaosProtocol:
    def test_full_protocol_passes_on_selftest(self, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        report = run_chaos(["selftest-memory"], jobs=1, chaos=1,
                           chaos_dir=str(tmp_path))
        assert report.ok, report.problems
        # baseline + 1 benign + 1 bitflip
        assert report.suites_run == 3
        assert report.bitflip_detections == 1
        # The bitflip plan is always serialized and replayable.
        plan_path = tmp_path / "bitflip.json"
        assert plan_path.exists()
        plan = FaultPlan.from_json(plan_path.read_text())
        assert plan.has_bitflip

    def test_broken_baseline_aborts_early(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        report = run_chaos(["selftest-crash"], jobs=1, chaos=2)
        assert not report.ok
        assert report.suites_run == 1  # no point injecting faults
        assert any("baseline" in p for p in report.problems)

    def test_replay_reproduces_the_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        plan = FaultPlan.bitflip(1)
        run = run_suite(["selftest-memory"], jobs=1,
                        fault_plan=plan.to_json())
        outcome = run.outcomes["selftest-memory"]
        assert outcome.status == "failed"
        assert "IntegrityViolation" in outcome.error
        # Deterministic: the same plan fails the same way again.
        rerun = run_suite(["selftest-memory"], jobs=1,
                          fault_plan=plan.to_json())
        assert rerun.outcomes["selftest-memory"].status == "failed"

    def test_benign_replay_matches_fault_free_fingerprint(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        base = run_suite(["selftest-memory"], jobs=1)
        faulted = run_suite(["selftest-memory"], jobs=1,
                            fault_plan=FaultPlan.benign(2).to_json())
        assert faulted.outcomes["selftest-memory"].fingerprint \
            == base.outcomes["selftest-memory"].fingerprint
        # The transition-log digest is held to the same transparency
        # bar: every injection must roll its events back.
        assert faulted.outcomes["selftest-memory"].transition_digest \
            == base.outcomes["selftest-memory"].transition_digest


@needs_fork
class TestEnvPlumbing:
    def test_fault_plan_env_restored_after_suite(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        run_suite(["selftest-ok"], jobs=1,
                  fault_plan=FaultPlan.benign(1).to_json())
        assert "REPRO_FAULT_PLAN" not in os.environ

    def test_preexisting_env_value_preserved(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        sentinel = FaultPlan(seed=99).to_json()
        monkeypatch.setenv("REPRO_FAULT_PLAN", sentinel)
        run_suite(["selftest-ok"], jobs=1,
                  fault_plan=FaultPlan.benign(1).to_json())
        assert os.environ["REPRO_FAULT_PLAN"] == sentinel


@needs_fork
class TestCli:
    def test_chaos_flag_passes_and_exits_zero(self, monkeypatch,
                                              tmp_path, capsys):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        status = runner_main(["--chaos", "1", "-j1", "--quiet",
                              "--chaos-dir", str(tmp_path),
                              "selftest-memory"])
        assert status == 0
        assert (tmp_path / "bitflip.json").exists()

    def test_chaos_needs_positive_k(self, capsys):
        assert runner_main(["--chaos", "0"]) == 2

    def test_faults_cli_generate_show_replay(self, monkeypatch, capsys):
        """Replay is the runner under REPRO_FAULT_PLAN: a malicious plan
        fails loudly (exit 1) and names the typed integrity error."""
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           FaultPlan.bitflip(1).to_json())
        assert runner_main(["-j1", "--quiet", "selftest-memory"]) == 1
        assert "IntegrityViolation" in capsys.readouterr().err

    def test_faults_cli_benign_replay_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           FaultPlan.benign(3).to_json())
        assert runner_main(["-j1", "--quiet", "selftest-memory"]) == 0
