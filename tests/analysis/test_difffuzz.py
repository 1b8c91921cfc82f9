"""Differential schedule fuzzer: seeded schedule generation, the
fast-vs-reference oracles on real machines (benign corpus must be
divergence-free with bit-identical transition digests), and divergence
reporting/minimization exercised through a stub runner."""

import json

import pytest

from repro.analysis.difffuzz import (OP_KINDS, RunOutcome, Schedule,
                                     diff_schedule, fuzz,
                                     generate_schedule, main,
                                     minimize_schedule, run_schedule)


class TestScheduleGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_schedule(7) == generate_schedule(7)
        assert generate_schedule(7, with_faults=True) == \
            generate_schedule(7, with_faults=True)

    def test_ops_are_well_formed(self):
        for seed in range(10):
            schedule = generate_schedule(seed)
            assert 4 <= len(schedule.ops) <= 10
            assert schedule.fault_seed is None
            for op in schedule.ops:
                assert op[0] in OP_KINDS

    def test_with_faults_attaches_a_seed(self):
        schedule = generate_schedule(3, with_faults=True)
        assert isinstance(schedule.fault_seed, int)

    def test_bulk_storm_is_drawn_by_the_corpus(self):
        """The op alphabet includes bulk_storm and the CI quick corpus
        (seeds 0..19) actually exercises it."""
        assert "bulk_storm" in OP_KINDS
        drawn = [op for seed in range(20)
                 for op in generate_schedule(seed).ops
                 if op[0] == "bulk_storm"]
        assert drawn
        for _kind, pages, pattern_seed in drawn:
            assert 1 <= pages <= 4
            assert 0 <= pattern_seed < 256

    def test_round_trips_through_json_dict(self):
        schedule = generate_schedule(11, with_faults=True)
        reloaded = Schedule.from_dict(
            json.loads(json.dumps(schedule.to_dict())))
        assert reloaded == schedule

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            Schedule.from_dict({"schema": 99, "seed": 0})


class TestRealOracles:
    """Acceptance: benign schedules never diverge — values, machine
    fingerprint, and transition digest are all byte-identical between
    the fast paths and the reference replay."""

    def test_fast_and_reference_agree_bit_for_bit(self):
        for seed in range(3):
            schedule = generate_schedule(seed)
            rules, fast, ref = diff_schedule(schedule)
            assert rules == [], f"seed {seed}: {rules}"
            assert fast.values == ref.values
            assert fast.fingerprint == ref.fingerprint
            assert fast.digest == ref.digest

    def test_run_schedule_is_deterministic(self):
        schedule = generate_schedule(4)
        first = run_schedule(schedule)
        again = run_schedule(schedule)
        assert first.values == again.values
        assert first.fingerprint == again.fingerprint
        assert first.digest == again.digest

    def test_benign_corpus_is_clean(self):
        """20 benign schedules (the CI quick corpus) yield zero
        findings: no DIFF divergence and no ORD violation."""
        report = fuzz(20)
        assert report.findings == []
        assert report.passes == ["difffuzz", "orderliness"] or \
            set(report.passes) == {"difffuzz", "orderliness"}

    def test_fault_plans_are_oracle_transparent(self):
        """Benign fault plans are transparency bubbles: threading one
        through both runs must not perturb either oracle.  The plans
        fire inside the schedules' own access counts, so faults are
        really injected."""
        report = fuzz(5, with_faults=True)
        assert report.findings == []
        assert report.faults_injected > 0

    def test_fault_plan_fires_aex_and_evict_inside_the_schedule(self):
        """Every drawn trigger lies inside the schedule's access count,
        the plan has no IPC faults, and the fast and reference runs
        fire the same faults."""
        import repro.analysis.difffuzz as difffuzz
        from repro.faults.plan import FaultPlan
        injected = 0
        kinds = set()
        for seed in range(6):
            schedule = generate_schedule(seed, with_faults=True)
            plan = FaultPlan.from_json(difffuzz._fault_plan(
                schedule.ops, schedule.fault_seed))
            assert plan.faults and not plan.ipc_faults()
            _outcome, accesses = difffuzz._execute(
                schedule.ops, False, FaultPlan(seed=0).to_json())
            assert all(1 <= f.at <= accesses for f in plan.faults)
            kinds.update(f.kind for f in plan.faults)
            rules, fast, ref = diff_schedule(schedule)
            assert rules == []
            assert fast.injected == ref.injected
            injected += fast.injected
        assert kinds == {"aex", "evict"}
        assert injected > 0

    def test_fault_plan_never_touches_the_process_environment(
            self, monkeypatch):
        """The benign plan is attached to the run's own machine: no
        other machine built meanwhile could inherit it."""
        import os

        class RecordingEnviron(dict):
            def __init__(self, base):
                super().__init__(base)
                self.writes = []

            def __setitem__(self, key, value):
                self.writes.append(("set", key))
                super().__setitem__(key, value)

            def __delitem__(self, key):
                self.writes.append(("del", key))
                super().__delitem__(key)

        environ = RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        schedule = generate_schedule(0, with_faults=True)
        assert schedule.fault_seed is not None
        run_schedule(schedule)
        assert environ.writes == []
        assert "REPRO_FAULT_PLAN" not in environ

    def test_bulk_storm_bursts_agree_across_paths(self):
        """A schedule of back-to-back multi-page bursts interleaved
        with evictions: the hardest shape for plan-cache invalidation,
        pinned fast-vs-reference directly rather than hoping a seed
        draws it."""
        schedule = Schedule(seed=0, ops=(
            ("bulk_storm", 4, 0x11), ("evict_reload", 2),
            ("bulk_storm", 1, 0x22), ("poke", 0, 7),
            ("bulk_storm", 3, 0x33), ("peek", 0)))
        rules, fast, ref = diff_schedule(schedule)
        assert rules == []
        assert fast.fingerprint == ref.fingerprint
        assert fast.digest == ref.digest


def _stub(fast_values=None, ref_values=None, digest_drop=None):
    """A stub runner: per-op values differ where the dicts say so, and
    the reference digest omits ``digest_drop`` ops."""
    def runner(schedule, *, reference=False):
        table = (ref_values if reference else fast_values) or {}
        values = tuple(table.get(op[0], 0) for op in schedule.ops)
        kinds = [op[0] for op in schedule.ops
                 if not (reference and op[0] == digest_drop)]
        return RunOutcome(values=values, fingerprint="fp",
                          digest=",".join(kinds), events=())
    return runner


class TestDivergenceHandling:
    def test_value_divergence_fires_diff001(self):
        runner = _stub(ref_values={"storm": 1})
        schedule = Schedule(seed=0, ops=(("poke", 0, 5), ("storm", 2)))
        rules, _fast, _ref = diff_schedule(schedule, runner=runner)
        assert rules == ["DIFF001"]

    def test_digest_divergence_fires_diff002(self):
        runner = _stub(digest_drop="interrupted")
        schedule = Schedule(seed=0, ops=(("peek", 8), ("interrupted", 0)))
        rules, _fast, _ref = diff_schedule(schedule, runner=runner)
        assert rules == ["DIFF002"]

    def test_minimization_is_1_minimal_per_rule_set(self):
        runner = _stub(ref_values={"storm": 1}, digest_drop="interrupted")
        schedule = Schedule(seed=0, ops=(
            ("poke", 0, 5), ("storm", 2), ("interrupted", 8),
            ("peek", 0), ("storm", 3)))
        rules, _fast, _ref = diff_schedule(schedule, runner=runner)
        assert rules == ["DIFF001", "DIFF002"]
        minimized = minimize_schedule(schedule, rules, runner=runner)
        # Exactly one storm (DIFF001) and one interrupted (DIFF002)
        # survive; greedy front-to-back deletion keeps the *last* storm,
        # so the result is deterministic and pinnable.
        assert minimized.ops == (("interrupted", 8), ("storm", 3))
        assert minimized.seed == schedule.seed

    def test_minimize_rejects_non_diverging_schedule(self):
        runner = _stub()
        with pytest.raises(ValueError, match="does not diverge"):
            minimize_schedule(Schedule(seed=0, ops=(("peek", 0),)),
                              ["DIFF001"], runner=runner)

    def test_fuzz_reports_and_writes_artifacts(self, tmp_path):
        runner = _stub(ref_values={kind: 1 for kind in OP_KINDS})
        report = fuzz(2, runner=runner, artifacts=tmp_path)
        assert {f.rule for f in report.findings} == {"DIFF001"}
        assert all("minimal schedule [" in f.message
                   for f in report.findings)
        for seed in (0, 1):
            payload = json.loads(
                (tmp_path / f"divergence-{seed}.json").read_text())
            assert payload["rules"] == ["DIFF001"]
            assert payload["schedule"]["seed"] == seed
            # Every op diverges, so the 1-minimal reproducer is one op.
            assert len(payload["minimized"]["ops"]) == 1
            assert payload["fast"]["fingerprint"] == "fp"
            assert Schedule.from_dict(payload["minimized"])

    def test_fuzz_replays_fast_log_through_orderliness(self):
        """Fast and reference agreeing does not excuse an illegal
        transition sequence: the ORD automaton still runs."""
        forged = (("ERESUME", 0, 1, 0x1000, 1, ()),)

        def runner(schedule, *, reference=False):
            return RunOutcome(values=(), fingerprint="fp",
                              digest="d", events=forged)

        report = fuzz(1, runner=runner)
        assert [f.rule for f in report.findings] == ["ORD004"]


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["--schedules", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "2 schedule(s) fuzzed" in out

    def test_fault_run_reports_injected_faults(self, capsys):
        assert main(["--schedules", "2", "--with-faults"]) == 0
        out = capsys.readouterr().out
        assert "2 schedule(s) fuzzed (base seed 0, faults on, " in out
        injected = int(out.split("faults on, ")[1].split()[0])
        assert injected > 0

    def test_fault_run_that_injects_nothing_exits_two(self, monkeypatch,
                                                      capsys):
        """A --with-faults corpus whose plans fire nothing cannot pass
        vacuously."""
        import repro.analysis.difffuzz as difffuzz
        from repro.faults.plan import FaultPlan
        monkeypatch.setattr(difffuzz, "_fault_plan",
                            lambda ops, seed: FaultPlan(seed=seed).to_json())
        assert main(["--schedules", "1", "--with-faults"]) == 2
        captured = capsys.readouterr()
        assert "faults on, 0 injected" in captured.out
        assert "injected no fault" in captured.err
