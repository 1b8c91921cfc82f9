"""Paper-shape claims: every paper experiment carries them, the runner
fails an experiment whose result breaks one, and the sub-second quick
experiments show theirs."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.errors import ClaimFailed
from repro.experiments import registry as reg
from repro.experiments.claims import Claim
from repro.experiments.report import ExperimentResult
from repro.runner import run_suite
from repro.runner.__main__ import main

#: A citation names a paper table, figure or section.
CITATION = re.compile(r"Table [IVX]+\b|Fig\. \d+\b|§[IVX]+\b")

FALSE_CLAIM = Claim("Table II: a shape this result never shows",
                    lambda result: False)

FAST_QUICK = ("table3", "table4", "table5", "table7", "ablation-d1",
              "ablation-d2", "ablation-d4")


class TestCoverage:
    def test_every_paper_experiment_has_a_claim(self):
        bare = [name for name, spec in reg.specs().items()
                if not name.startswith("host-") and not spec.claims]
        assert bare == []

    def test_every_citation_names_the_paper(self):
        for name, spec in reg.specs().items():
            for claim in spec.claims:
                assert CITATION.search(claim.cite), (name, claim.cite)


class TestCheckClaims:
    def _fig9(self, predict: float) -> ExperimentResult:
        result = ExperimentResult("Figure 9", "demo",
                                  ("dataset", "train (norm.)",
                                   "predict (norm.)"))
        for name in ("cod-rna", "colon-cancer", "dna", "phishing",
                     "protein"):
            result.add(name, 1.0, predict)
        return result

    def test_full_only_claim_is_checked_at_full_scale_only(self):
        spec = reg.specs()["fig9"]
        slow_predict = self._fig9(predict=1.204)
        reg.check_claims(spec, slow_predict, full=False)
        with pytest.raises(ClaimFailed, match="fig9 at full scale.*Fig. 9"):
            reg.check_claims(spec, slow_predict, full=True)
        reg.check_claims(spec, self._fig9(predict=1.01), full=True)

    def test_table5_claim_catches_a_changed_paper_value(self):
        spec = reg.specs()["table5"]
        result = spec.quick()
        result.rows = [row[:4] + (row[4] + 1,) for row in result.rows]
        with pytest.raises(ClaimFailed, match="Table V"):
            reg.check_claims(spec, result)


@pytest.fixture
def false_claim_on_selftest_ok(monkeypatch):
    """``selftest-ok`` with a claim its result never shows."""
    monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
    real_specs = reg.specs

    def specs():
        table = real_specs()
        table["selftest-ok"] = dataclasses.replace(
            table["selftest-ok"], claims=(FALSE_CLAIM,))
        return table

    monkeypatch.setattr(reg, "specs", specs)


class TestRunnerGatesClaims:
    def test_false_claim_fails_without_retry(
            self, false_claim_on_selftest_ok):
        outcome = run_suite(["selftest-ok"], jobs=1).outcomes[
            "selftest-ok"]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "ClaimFailed" in outcome.error
        assert FALSE_CLAIM.cite in outcome.error
        assert "quick scale" in outcome.error

    def test_main_exits_1(self, false_claim_on_selftest_ok, capsys):
        assert main(["selftest-ok", "-j1", "--quiet"]) == 1
        assert "selftest-ok" in capsys.readouterr().err

    def test_quiet_failure_names_the_claim(
            self, false_claim_on_selftest_ok, capsys, tmp_path):
        """``--quiet`` silences progress, not the reason for a failure:
        live runs and ``--report`` both print the claim citation."""
        doc = str(tmp_path / "results.json")
        assert main(["selftest-ok", "-j1", "--quiet", "--json", doc]) == 1
        live = capsys.readouterr().err
        assert main(["--report", doc, "--quiet"]) == 1
        replayed = capsys.readouterr().err
        for err in (live, replayed):
            assert "selftest-ok: ClaimFailed: selftest-ok at quick " \
                "scale" in err
            assert FALSE_CLAIM.cite in err

    def test_progress_prints_the_table(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        lines = []
        run_suite(["selftest-ok"], jobs=1, progress=lines.append)
        assert any(line.startswith("== Selftest: runner self-test: ok")
                   for line in lines)


@pytest.mark.parametrize("name", FAST_QUICK)
def test_fast_quick_claims_hold_in_process(name):
    spec = reg.specs()[name]
    reg.check_claims(spec, spec.quick(), full=False)
