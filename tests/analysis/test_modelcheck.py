"""Bounded model checker: clean-scope exhaustion pins, permutation
invariance of the canonical state hash, golden minimized
counterexamples for every validator mutation, and the CLI surface.

The state/transition counts are deliberate regression pins: a change
that silently shrinks the explored space (a transition no longer
enabled, a canonical key that over-merges) is as dangerous as one that
introduces a violation, because the checker would keep reporting
"clean" over a smaller world.  The ~20 s ``default`` scope is exercised
by the dedicated CI job, not here.
"""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import Finding, Report
from repro.analysis.modelcheck import (MUTATIONS, SCOPES, build_world,
                                       explore, run_modelcheck,
                                       run_mutation_kill)

TINY_STATES = 88
TINY_TRANSITIONS = 472
DEEP_STATES = 3016
DEEP_TRANSITIONS = 25552

#: Golden 1-minimal counterexamples: mutation name -> (rule, trace).
GOLDEN_KILLS = {
    "accept-unrelated-owner": (
        "MC002",
        "eenter(core0, E0) -> probe cross-enclave(core0, E1.data0)"),
    "drop-va-match": (
        "MC002",
        "nasso(E1 -> outer E0) -> eenter(core0, E1) "
        "-> probe alias-outer(core0, E0.data0)"),
    "skip-outside-elrange-pf": (
        "MC003",
        "nasso(E1 -> outer E0) -> eenter(core0, E1) "
        "-> probe shadow-outer(core0, E0.data0)"),
    "unbounded-outer-walk": (
        "MC004",
        "nasso(E1 -> outer E0) -> eenter(core0, E1) "
        "-> probe walk-budget(core0)"),
    # The flush that keeps its entries: the enclave page touched inside
    # E0 is still in core0's TLB after EEXIT, which the §VII-A audit
    # flags.  Each label is load-bearing: drop the eenter and the touch
    # runs untrusted and aborts; drop the touch and the TLB is empty;
    # drop the eexit and the core is still in enclave mode.
    "tlb-flush-keeps-entries": (
        "MC001",
        "eenter(core0, E0) -> touch(core0, E0.data0) -> eexit(core0) "
        "-> audit"),
}


class TestCleanScopes:
    def test_tiny_scope_exhausts_clean(self):
        result = run_modelcheck("tiny")
        assert result.exhausted
        assert not result.findings
        assert result.state_count == TINY_STATES
        assert result.transition_count == TINY_TRANSITIONS

    def test_deep_scope_exhausts_clean(self):
        # 3-level chain plus the lattice edge: the scope whose traces
        # found the transitive-outer audit bug in the first place.
        result = run_modelcheck("deep")
        assert result.exhausted
        assert not result.findings
        assert result.state_count == DEEP_STATES
        assert result.transition_count == DEEP_TRANSITIONS

    def test_scope_table_is_the_documented_one(self):
        assert set(SCOPES) == {"tiny", "default", "deep"}
        assert SCOPES["default"].num_cores == 2
        assert SCOPES["deep"].allow_lattice


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_transition_order_does_not_change_the_space(self, seed):
        """The canonical key must make exploration order irrelevant:
        shuffling the successor order reaches the same set of states
        with the same digest."""
        baseline = run_modelcheck("tiny")
        world = build_world(SCOPES["tiny"])
        shuffled = explore(world, shuffle_seed=seed)
        assert shuffled.state_count == baseline.state_count
        assert shuffled.transition_count == baseline.transition_count
        assert shuffled.digest == baseline.digest


class TestMutationKillList:
    def test_every_mutation_is_killed(self):
        outcomes = run_mutation_kill("tiny")
        assert sorted(o.mutation for o in outcomes) == sorted(MUTATIONS)
        for outcome in outcomes:
            assert outcome.killed, (
                f"{outcome.mutation} survived: expected "
                f"{outcome.expected_rule}, got {outcome.rules}")

    @pytest.mark.parametrize("name", sorted(GOLDEN_KILLS))
    def test_golden_minimized_counterexample(self, name):
        rule, trace = GOLDEN_KILLS[name]
        (outcome,) = run_mutation_kill("tiny", [name])
        assert outcome.killed
        assert rule in outcome.rules
        hits = [f for f in outcome.findings if f.rule == rule]
        assert any(f.message.endswith("trace: " + trace) for f in hits), (
            f"no {rule} finding ends with the golden trace; got "
            f"{[f.message for f in hits]}")

    def test_mutation_table_matches_golden(self):
        assert {name: m.expected_rule for name, m in MUTATIONS.items()} \
            == {name: rule for name, (rule, _) in GOLDEN_KILLS.items()}


class TestCli:
    def test_check_modelcheck_clean(self, capsys):
        assert main(["modelcheck", "--scope", "tiny"]) == 0
        assert "modelcheck" in capsys.readouterr().out

    def test_unknown_scope_is_usage_error(self, capsys):
        # argparse rejects the choice itself and exits with code 2.
        with pytest.raises(SystemExit) as exc:
            main(["modelcheck", "--scope", "bogus"])
        assert exc.value.code == 2

    def test_mutate_all_exits_zero_when_killed(self, capsys):
        assert main(["--mutate", "all", "--scope", "tiny"]) == 0
        out = capsys.readouterr().out
        assert f"{len(MUTATIONS)}/{len(MUTATIONS)} mutation(s) killed" \
            in out
        assert "SURVIVED" not in out

    def test_mutate_unknown_name_is_usage_error(self, capsys):
        assert main(["--mutate", "no-such-mutation"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_sarif_output_is_written(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        assert main(["modelcheck", "--scope", "tiny",
                     "--sarif", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == \
            "repro.analysis"
        assert doc["runs"][0]["results"] == []


class TestReportDedupe:
    def test_dedupe_collapses_and_orders(self):
        a = Finding("b.py", 2, "MC002", "m2")
        b = Finding("a.py", 1, "MC001", "m1")
        report = Report(findings=[a, b, a])
        report.dedupe()
        assert report.findings == [b, a]
