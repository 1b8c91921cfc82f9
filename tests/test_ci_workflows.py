"""The GitHub Actions workflows are checked-in executable config;
parse them and assert the contract the repo depends on.

Tier-1 guarantees: the YAML is schema-valid (loadable, jobs/steps
shaped correctly), the CI gate runs the same commands ROADMAP.md's
tier-1 line names, the runner's host-time budgets are off on shared
runners, and the nightly pipeline runs the parallel runner with the
docs drift check and uploads the results artifacts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = REPO_ROOT / ".github" / "workflows"


def _load(name: str) -> dict:
    workflow = yaml.safe_load((WORKFLOWS / name).read_text())
    assert isinstance(workflow, dict), f"{name}: not a mapping"
    return workflow


def _triggers(workflow: dict) -> dict:
    # YAML 1.1 parses the bare key `on` as boolean True.
    return workflow.get("on", workflow.get(True))


def _runs(workflow: dict) -> "list[str]":
    return [step["run"]
            for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]


def _assert_schema_valid(name: str, workflow: dict) -> None:
    assert _triggers(workflow), f"{name}: no `on:` triggers"
    assert workflow.get("jobs"), f"{name}: no jobs"
    for job_name, job in workflow["jobs"].items():
        assert "runs-on" in job, f"{name}:{job_name}: no runs-on"
        steps = job.get("steps")
        assert steps, f"{name}:{job_name}: no steps"
        for index, step in enumerate(steps):
            assert ("run" in step) != ("uses" in step), (
                f"{name}:{job_name} step {index}: need exactly one "
                f"of run/uses")


class TestSchemaValidity:
    @pytest.mark.parametrize("name", ["ci.yml", "nightly.yml"])
    def test_workflow_parses_and_is_well_formed(self, name):
        _assert_schema_valid(name, _load(name))

    def test_no_other_workflows_sneak_in_unchecked(self):
        assert sorted(p.name for p in WORKFLOWS.glob("*.yml")) == \
            ["ci.yml", "nightly.yml"]


class TestTier1Gate:
    def test_triggers_every_push_and_pr(self):
        triggers = _triggers(_load("ci.yml"))
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_nine_separate_jobs(self):
        assert set(_load("ci.yml")["jobs"]) == \
            {"tests", "ruff", "analysis", "modelcheck", "chaos",
             "orderliness", "bench-smoke", "host", "quick-suite"}

    def test_python_matrix_is_39_and_312(self):
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["strategy"]["matrix"]["python-version"] == \
            ["3.9", "3.12"]

    def test_runs_the_roadmap_tier1_command(self):
        # ROADMAP.md: PYTHONPATH=src python -m pytest -x -q
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["env"]["PYTHONPATH"] == "src"
        assert any(run.strip() == "python -m pytest -x -q"
                   for step in tests["steps"]
                   for run in [step.get("run", "")])

    def test_host_budget_skipped_on_shared_runners(self):
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"

    def test_ruff_job_matches_local_gate(self):
        # Same target set as tests/test_ruff_clean.py.
        assert any("ruff check src tests" in run
                   for run in _runs(_load("ci.yml")))

    def test_analysis_gate_enforces_checked_in_baseline(self):
        assert any(
            "--baseline analysis-baseline.json" in run
            and run.startswith("python -m repro.analysis ")
            for run in _runs(_load("ci.yml")))

    def test_analysis_gate_publishes_sarif(self):
        workflow = _load("ci.yml")
        analysis = workflow["jobs"]["analysis"]
        assert any("--sarif" in step.get("run", "")
                   for step in analysis["steps"])
        uploads = [step for step in analysis["steps"]
                   if "upload-sarif" in step.get("uses", "")]
        assert uploads, "analysis job must upload the SARIF report"
        assert analysis["permissions"]["security-events"] == "write"

    def test_chaos_job_runs_seeded_fault_injection(self):
        chaos = _load("ci.yml")["jobs"]["chaos"]
        assert chaos["env"]["PYTHONPATH"] == "src"
        assert chaos["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any("python -m repro.runner" in run
                   and "--chaos 3" in run
                   for step in chaos["steps"]
                   for run in [step.get("run", "")])

    def test_host_job_runs_serving_layer_under_chaos(self):
        host = _load("ci.yml")["jobs"]["host"]
        assert host["env"]["PYTHONPATH"] == "src"
        assert host["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any(
            run.strip() == "python -m repro.runner -j 2 --chaos 2 host"
            for step in host["steps"]
            for run in [step.get("run", "")])

    def test_quick_suite_job_runs_the_registry_with_docs_check(self):
        quick = _load("ci.yml")["jobs"]["quick-suite"]
        assert quick["env"]["PYTHONPATH"] == "src"
        assert quick["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any(
            run.strip() == "python -m repro.runner -j 2 --check-docs "
                           "--timings quick-timings.json"
            for step in quick["steps"]
            for run in [step.get("run", "")])

    def test_quick_suite_job_uploads_its_timings(self):
        steps = _load("ci.yml")["jobs"]["quick-suite"]["steps"]
        uploads = [step for step in steps
                   if step.get("uses") == "actions/upload-artifact@v4"]
        assert len(uploads) == 1
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["path"].strip() == "quick-timings.json"

    def test_orderliness_job_replays_workload_logs(self):
        orderliness = _load("ci.yml")["jobs"]["orderliness"]
        assert orderliness["env"]["PYTHONPATH"] == "src"
        assert any(
            "python -m repro.analysis orderliness" in run
            for step in orderliness["steps"]
            for run in [step.get("run", "")])

    def test_bench_smoke_runs_the_benchmark_smoke_test(self):
        smoke = _load("ci.yml")["jobs"]["bench-smoke"]
        assert smoke["env"]["PYTHONPATH"] == "src"
        assert "REPRO_SKIP_HOST_BUDGET" not in smoke["env"]
        assert any(
            run.strip() == "python -m pytest -q bench/tests"
            for step in smoke["steps"]
            for run in [step.get("run", "")])

    def test_analysis_gate_runs_flow_under_the_baseline(self):
        """FLOW001-FLOW004 findings reach code scanning through the
        gate's SARIF, held to the same checked-in baseline."""
        analysis = _load("ci.yml")["jobs"]["analysis"]
        assert analysis["env"]["PYTHONPATH"] == "src"
        assert any(
            run.strip() == "python -m repro.analysis edl sim flow "
            "--baseline analysis-baseline.json --sarif analysis.sarif"
            for step in analysis["steps"]
            for run in [step.get("run", "")])

    def test_modelcheck_job_exhausts_default_scope(self):
        modelcheck = _load("ci.yml")["jobs"]["modelcheck"]
        assert modelcheck["env"]["PYTHONPATH"] == "src"
        assert any(
            "python -m repro.analysis modelcheck" in run
            and "--scope default" in run
            for step in modelcheck["steps"]
            for run in [step.get("run", "")])


class TestNightlyPipeline:
    def test_scheduled_and_dispatchable(self):
        triggers = _triggers(_load("nightly.yml"))
        assert "schedule" in triggers
        assert any("cron" in entry for entry in triggers["schedule"])
        assert "workflow_dispatch" in triggers

    def test_runs_the_parallel_runner(self):
        runs = _runs(_load("nightly.yml"))
        assert any("python -m repro.runner" in run
                   and "--json" in run and "--timings" in run
                   for run in runs)

    def test_checks_docs_drift(self):
        assert any("--check-docs" in run
                   for run in _runs(_load("nightly.yml")))

    def test_uploads_results_and_regenerated_tables(self):
        workflow = _load("nightly.yml")
        uploads = [step for job in workflow["jobs"].values()
                   for step in job["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads, "nightly must publish artifacts"
        quick_paths = " ".join(
            step["with"]["path"] for step in uploads)
        for artifact in ("results.json", "timings.json",
                         "EXPERIMENTS.md"):
            assert artifact in quick_paths

    def test_deep_modelcheck_and_mutation_kill_list(self):
        runs = _runs(_load("nightly.yml"))
        assert any("repro.analysis modelcheck" in run and "--scope deep" in run
                   for run in runs)
        assert any("--mutate all" in run and "flow --mutate" not in run
                   for run in runs)

    def test_flow_mutate_job_kills_the_corpus_and_uploads_log(self):
        flow = _load("nightly.yml")["jobs"]["flow-mutate"]
        assert flow["env"]["PYTHONPATH"] == "src"
        runs = [run for step in flow["steps"]
                for run in [step.get("run", "")]]
        mutate_runs = [run for run in runs
                       if "flow --mutate all" in run]
        assert mutate_runs
        # The kill-list output is tee'd to the artifact; a pipe must
        # not swallow a survivor's exit code.
        assert "pipefail" in mutate_runs[0]
        uploads = [step for step in flow["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"
        assert "flow-mutate.log" in uploads[0]["with"]["path"]

    def test_deep_chaos_sweep_uploads_replayable_plans(self):
        workflow = _load("nightly.yml")
        chaos = workflow["jobs"]["chaos-deep"]
        assert any("--chaos 20" in run and "--chaos-dir" in run
                   for step in chaos["steps"]
                   for run in [step.get("run", "")])
        uploads = [step for step in chaos["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"

    def test_host_soak_runs_benchmark_scale_chaos_and_uploads(self):
        """Nightly soak: the serving layer at 100k sessions under 10
        benign plans + bitflip, with SLO numbers published."""
        soak = _load("nightly.yml")["jobs"]["host-soak"]
        assert soak["env"]["PYTHONPATH"] == "src"
        assert soak["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        runs = [run for step in soak["steps"]
                for run in [step.get("run", "")]]
        chaos_runs = [run for run in runs
                      if "--chaos 10" in run and "--full" in run
                      and run.rstrip().endswith("host")]
        assert chaos_runs
        assert "--chaos-dir" in chaos_runs[0]
        assert any("--json results-host.json" in run for run in runs)
        uploads = [step for step in soak["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"
        assert "results-host.json" in uploads[0]["with"]["path"]

    def test_difffuzz_deep_job_fuzzes_200_schedules(self):
        """Nightly depth: at least 200 seeded schedules with fault
        plans threaded through, reproducers published as artifacts."""
        difffuzz = _load("nightly.yml")["jobs"]["difffuzz-deep"]
        assert difffuzz["env"]["PYTHONPATH"] == "src"
        runs = [run for step in difffuzz["steps"]
                for run in [step.get("run", "")]]
        fuzz_runs = [run for run in runs
                     if "python -m repro.analysis.difffuzz" in run]
        assert fuzz_runs
        tokens = fuzz_runs[0].split()
        assert int(tokens[tokens.index("--schedules") + 1]) >= 200
        assert "--with-faults" in tokens
        assert "--artifacts" in tokens
        uploads = [step for step in difffuzz["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"

    def test_no_workflow_runs_a_pytest_benchmark_tree(self):
        """The paper-shape checks are claims on the registry, which the
        runner jobs gate; no workflow installs a pytest benchmark
        plugin or runs a ``benchmarks`` tree."""
        for path in sorted(WORKFLOWS.glob("*.yml")):
            for run in _runs(_load(path.name)):
                installed = run.split("pip install", 1)[1].split() \
                    if "pip install" in run else []
                assert not [p for p in installed if "benchmark" in p], \
                    path.name
                assert "benchmarks" not in run, path.name

    def test_scheduled_run_includes_full_scale_with_timings(self):
        """The benchmark-scale suite is minutes, not hours: every
        scheduled run includes it and publishes its timings."""
        full = _load("nightly.yml")["jobs"]["full-suite"]
        assert "if" not in full
        runs = [step.get("run", "") for step in full["steps"]]
        assert any("python -m repro.runner" in run and "--full" in run
                   and "--timings" in run for run in runs)
        uploads = [step for step in full["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"
        timings = [token for run in runs for token in run.split()
                   if token.endswith(".json") and "timings" in token]
        assert timings and timings[0] in uploads[0]["with"]["path"]
