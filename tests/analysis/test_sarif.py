"""SARIF rendering: a pinned snapshot of a merged multi-pass report.

One synthetic report carrying a finding from every rule family the
pipeline can emit (EDL/SIM/MC/ORD/DIFF/FLOW), rendered with a
baseline that grandfathers one finding — the full document shape is
pinned so any drift in schema, rule metadata, ordering, or demotion
semantics is a deliberate test update, not an accident.
"""

import json

from repro.analysis.findings import Finding, Report
from repro.analysis.sarif import RULE_SUMMARIES, SARIF_SCHEMA, render_sarif

FAMILY_FINDINGS = [
    Finding("repro/apps/ports/x.py", 3, "EDL003", "secret on boundary",
            symbol="stash"),
    Finding("repro/sgx/cpu.py", 7, "SIM002", "wall clock", symbol="now"),
    Finding("", 0, "MC002", "forbidden access inserted", symbol="probe"),
    Finding("", 0, "ORD002", "exit skips frames", symbol="replay"),
    Finding("", 0, "DIFF001", "fingerprint divergence", symbol="storm"),
    Finding("repro/os/kernel.py", 11, "FLOW001",
            "key material reaches sink: a → b → ocall sink at line 5",
            symbol="a"),
    Finding("repro/sgx/machine.py", 2, "FLOW002",
            "uncharged path: f → return at line 2", symbol="f"),
]


def _merged_report():
    """Simulate multiple passes contributing in arbitrary order."""
    report = Report(passes=["edl_lint", "simlint", "modelcheck",
                            "orderliness", "difffuzz", "flow"])
    report.findings.extend(reversed(FAMILY_FINDINGS))
    report.dedupe()
    return report


class TestSarifSnapshot:
    def test_document_shape(self):
        doc = json.loads(render_sarif(_merged_report()))
        assert doc["$schema"] == SARIF_SCHEMA
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert len(run["results"]) == len(FAMILY_FINDINGS)

    def test_rule_metadata_covers_every_family(self):
        doc = json.loads(render_sarif(_merged_report()))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        by_id = {r["id"]: r["shortDescription"]["text"] for r in rules}
        assert sorted(by_id) == ["DIFF001", "EDL003", "FLOW001", "FLOW002",
                                 "MC002", "ORD002", "SIM002"]
        # Every emitted rule has real catalog prose, not the id-fallback.
        for rule_id, text in by_id.items():
            assert text == RULE_SUMMARIES[rule_id]
            assert text != rule_id

    def test_catalog_lists_all_known_families(self):
        families = {rule[:-3] for rule in RULE_SUMMARIES}
        assert families == {"EDL", "SIM", "MC", "ORD", "DIFF", "FLOW"}
        assert {"FLOW001", "FLOW002", "FLOW003", "FLOW004"} \
            <= set(RULE_SUMMARIES)

    def test_results_follow_canonical_report_order(self):
        doc = json.loads(render_sarif(_merged_report()))
        rule_ids = [r["ruleId"] for r in doc["runs"][0]["results"]]
        assert rule_ids == ["DIFF001", "EDL003", "FLOW001", "FLOW002",
                            "MC002", "ORD002", "SIM002"]

    def test_baseline_demotes_to_note(self):
        report = _merged_report()
        grandfathered = FAMILY_FINDINGS[0].fingerprint
        doc = json.loads(render_sarif(report,
                                      frozenset({grandfathered})))
        levels = {r["ruleId"]: r["level"]
                  for r in doc["runs"][0]["results"]}
        assert levels["EDL003"] == "note"
        assert all(level == "error" for rule, level in levels.items()
                   if rule != "EDL003")

    def test_locations_and_fingerprints(self):
        doc = json.loads(render_sarif(_merged_report()))
        for result in doc["runs"][0]["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith("src/")
            assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert location["region"]["startLine"] >= 1
            assert result["partialFingerprints"]["reproAnalysis/v1"]

    def test_rendering_is_byte_deterministic(self):
        first = render_sarif(_merged_report())
        second = render_sarif(_merged_report())
        assert first == second
