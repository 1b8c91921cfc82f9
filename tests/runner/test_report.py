"""EXPERIMENTS.md regeneration/drift tests.

The positive check runs cheap experiments for real and asserts the
checked-in tables match their measured values (the nightly workflow
does the same over the whole registry).  The negative checks perturb a
measured value — once at the document level, and once by changing a
real harness constant — and assert the docs check fails.
"""

from __future__ import annotations

import copy
import multiprocessing

import pytest

from repro.runner import build_document, run_suite
from repro.runner import report as docs

#: Experiments cheap enough to re-measure in a unit test.
SUBSET = ["table3", "table4", "table5", "ablation-d1", "ablation-d2",
          "ablation-d4"]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="constant perturbation reaches workers via fork")


@pytest.fixture(scope="module")
def document():
    return build_document(run_suite(SUBSET, jobs=2))


@pytest.fixture(scope="module")
def checked_in():
    return docs.docs_path().read_text(encoding="utf-8")


class TestCheckedInDocs:
    def test_tables_match_measured_values(self, document, checked_in):
        assert docs.check_docs(document, checked_in) == []

    def test_every_registered_experiment_has_a_marker(self,
                                                      checked_in):
        from repro.experiments import registry as reg
        tables = docs.extract_tables(checked_in)
        missing = [name for name in reg.specs() if name not in tables]
        assert not missing, \
            f"EXPERIMENTS.md lacks runner:table markers for {missing}"

    def test_update_docs_is_a_fixed_point(self, document, checked_in):
        new_text, changed = docs.update_docs(document, checked_in)
        assert changed == []
        assert new_text == checked_in


class TestDrift:
    def test_perturbed_value_fails_check(self, document, checked_in):
        perturbed = copy.deepcopy(document)
        entry = next(e for e in perturbed["experiments"]
                     if e["name"] == "table3")
        entry["result"]["rows"][0][2] += 1
        drift = docs.check_docs(perturbed, checked_in)
        assert any(message.startswith("table3:")
                   for message in drift)

    def test_perturbation_is_localized(self, document, checked_in):
        perturbed = copy.deepcopy(document)
        entry = next(e for e in perturbed["experiments"]
                     if e["name"] == "table3")
        entry["result"]["rows"][0][2] += 1
        drift = docs.check_docs(perturbed, checked_in)
        assert len(drift) == 1

    def test_missing_marker_is_drift(self, document, checked_in):
        broken = copy.deepcopy(document)
        broken["experiments"][0]["name"] = "unmarked-experiment"
        drift = docs.check_docs(broken, checked_in)
        assert any("unmarked-experiment" in message
                   for message in drift)

    def test_failed_experiment_is_drift(self, document, checked_in):
        broken = copy.deepcopy(document)
        entry = broken["experiments"][0]
        entry["status"] = "timeout"
        del entry["result"], entry["fingerprint"]
        drift = docs.check_docs(broken, checked_in)
        assert any("no result to check" in message
                   for message in drift)

    def test_update_docs_rewrites_perturbed_table(self, document,
                                                  checked_in):
        perturbed = copy.deepcopy(document)
        entry = next(e for e in perturbed["experiments"]
                     if e["name"] == "table5")
        entry["result"]["rows"][0][1] += 1
        new_text, changed = docs.update_docs(perturbed, checked_in)
        assert changed == ["table5"]
        assert docs.check_docs(perturbed, new_text) == []

    @needs_fork
    def test_harness_constant_perturbation_fails_check(
            self, checked_in, monkeypatch):
        """End-to-end negative test: change a real harness constant,
        re-measure through real workers (fork inherits the patch), and
        the docs check must fail.  Only dna's feature count moves: the
        Table V claim pins colon-cancer's, so perturbing that one fails
        the run before the docs check (``tests/experiments/
        test_claims.py`` covers that path)."""
        import dataclasses

        from repro.apps import datasets
        from repro.experiments import table5 as table5_module

        perturbed_specs = tuple(
            dataclasses.replace(spec, features=spec.features + 1)
            if spec.name == "dna" else spec
            for spec in datasets.TABLE_V)
        monkeypatch.setattr(datasets, "TABLE_V", perturbed_specs)
        monkeypatch.setattr(datasets, "SPECS_BY_NAME",
                            {spec.name: spec
                             for spec in perturbed_specs})
        # table5 binds TABLE_V at import time; patch its view too so
        # the harness is self-consistent, just differently calibrated.
        monkeypatch.setattr(table5_module, "TABLE_V", perturbed_specs)
        run = run_suite(["table5"], jobs=1)
        outcome = run.outcomes["table5"]
        assert outcome.ok, outcome.error
        drift = docs.check_docs(build_document(run), checked_in)
        assert any(message.startswith("table5:")
                   for message in drift)


class TestRendering:
    def test_render_extract_round_trip(self):
        result = {"columns": ["a", "b"],
                  "rows": [["x", 1.5], ["y", 123456.0]]}
        body = docs.render_markdown_table(result)
        assert body == ("| a | b |\n|---|---|\n| x | 1.500 |\n"
                        "| y | 123,456 |\n")
        text = (f"prose\n<!-- runner:table:demo:begin -->\n{body}"
                f"<!-- runner:table:demo:end -->\nmore prose\n")
        assert docs.extract_tables(text) == {"demo": body}

    def test_formatting_shared_with_text_renderer(self):
        # The markdown cells and the aligned-text cells must come from
        # the same formatter, or the docs could drift on formatting.
        from repro.experiments.report import format_value
        assert format_value(0.12345) == "0.123"
        assert format_value(1234.5) == "1,234"
        assert format_value(42) == "42"
