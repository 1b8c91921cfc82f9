"""The tier-1 gate: the repo itself must pass every analysis pass with
an *empty* baseline.

If this test fails, some change re-introduced a class of bug the
analyses exist to prevent — direct DRAM access, wall-clock in a cost
path, an unseeded RNG, a broad except, a stray latency constant, dead
or secret-leaking EDL surface.  Fix the code (or, for a deliberate
attack model, add a per-line ``# simlint: disable=RULE`` with a comment
saying why); do not add a baseline.
"""

from repro.analysis import run_repo_analysis
from repro.analysis.findings import load_baseline
from repro.analysis.runner import PASSES, repo_root


def test_repo_root_detection():
    root = repo_root()
    assert (root / "src" / "repro" / "analysis").is_dir()


def test_checked_in_baseline_is_empty():
    # The repo-level baseline exists so `--baseline analysis-baseline.json`
    # always works, but nothing may ever be grandfathered into it.
    baseline = load_baseline(repo_root() / "analysis-baseline.json")
    assert baseline == frozenset()


def test_repo_is_clean_with_empty_baseline():
    report = run_repo_analysis()
    assert sorted(report.passes) == ["edl_lint", "simlint"]
    assert report.findings == [], (
        "static analysis regressions:\n" + report.render_text())


def test_every_pass_runs_individually():
    for name in PASSES:
        report = run_repo_analysis(passes=(name,))
        assert report.findings == [], report.render_text()


def test_suppressions_are_rare_and_deliberate():
    # The sanctioned inline disables today: the two physical-attacker
    # accesses in repro.os.malicious (SIM001), the runner worker's
    # crash barrier (SIM004 in repro.runner.pool, which must forward
    # *any* harness failure across the process boundary as data), and
    # the SDK runtime's unwind-and-reraise (SIM004 in repro.sdk.runtime:
    # every failure class must leave the core out of enclave mode before
    # propagating, so the handler is broad by design).  Growing this
    # number should be a conscious review decision, not drift.
    report = run_repo_analysis()
    assert report.suppressed <= 4
