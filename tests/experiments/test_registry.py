"""The experiment registry: which experiments exist, in what order,
and what each is budgeted to cost."""

from repro.experiments import registry as reg


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        names = set(reg.specs())
        for wanted in ("table2", "table3", "table4", "table5", "table6",
                       "table7", "fig7", "fig9", "fig10", "fig11",
                       "ablation-d1", "ablation-d2", "ablation-d3",
                       "ablation-d4"):
            assert wanted in names

    def test_quick_and_full_cover_same_names(self):
        for spec in reg.specs().values():
            assert callable(spec.quick) and callable(spec.full), spec.name

    def test_selftest_entries_hidden_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_TEST_EXPERIMENTS",
                           raising=False)
        assert not [n for n in reg.specs() if n.startswith("selftest")]
        monkeypatch.setenv("REPRO_RUNNER_TEST_EXPERIMENTS", "1")
        assert [n for n in reg.specs() if n.startswith("selftest")]

    def test_specs_carry_budgets_and_hints(self):
        for spec in reg.specs().values():
            assert spec.budget_s > 0
            assert spec.full_budget_s >= spec.budget_s
            assert spec.cost_hint > 0

    def test_select_prefix_keeps_canonical_order(self):
        assert reg.select(["table"]) == \
            [n for n in reg.specs() if n.startswith("table")]
        assert reg.select([]) == list(reg.specs())
        assert reg.select(["zzz"]) == []
