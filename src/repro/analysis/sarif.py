"""SARIF 2.1.0 rendering of an analysis report.

One ``run`` from the ``repro.analysis`` driver; every finding becomes a
``result`` anchored to its repo-relative source path so GitHub
code-scanning can annotate the diff.  Findings grandfathered by the
baseline are demoted to ``note`` level (still visible, never failing).
"""

from __future__ import annotations

import json

from repro.analysis.findings import Report

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: One-line summaries for every rule any pass can emit; also the
#: reference table rendered in README.md.
RULE_SUMMARIES = {
    "EDL001": "duplicate interface name across EDL sections",
    "EDL002": "nested section shadows a plain ecall/ocall",
    "EDL003": "secret-named parameter on an untrusted boundary",
    "EDL004": "dead EDL surface never bound by any port runtime",
    "SIM001": "direct DRAM/PRM access outside the validation automaton",
    "SIM002": "wall-clock read in simulated-time code",
    "SIM003": "unseeded RNG in deterministic simulation code",
    "SIM004": "bare/broad except hides simulation faults",
    "SIM005": "hard-coded latency constant outside perf.costmodel",
    "SIM006": "host time/shared RNG consulted in fault-injection or "
              "recovery code",
    "SIM008": "per-access validator call outside the allowlisted "
              "translation leaves",
    "MC001": "reachable state violates a §VII-A TLB invariant",
    "MC002": "lattice-forbidden access was inserted (untrusted->EPC, "
             "peer, outer->inner, or VA alias)",
    "MC003": "shadowed/evicted outer address fell through to unsecure "
             "memory",
    "MC004": "outer-chain walk failed to terminate within budget",
    "ORD001": "illegal entry (busy TCS, re-entry, or unassociated "
              "nested pair)",
    "ORD002": "LIFO violation: exit skips or mismatches live nested "
              "frames",
    "ORD003": "AEX misuse: parked outside enclave mode or onto a "
              "parked/foreign TCS",
    "ORD004": "ERESUME misuse: double resume or no parked context",
    "ORD005": "enclave-only operation or exit recorded outside enclave "
              "mode",
    "DIFF001": "fast/reference runs diverged in a value or the machine "
               "fingerprint",
    "DIFF002": "fast/reference transition-log digests diverged",
    "FLOW001": "key material reaches an ocall/transition-log sink, "
               "directly or through a helper call chain",
    "FLOW002": "memory-touch entry point has a path that never charges "
               "the cost model",
    "FLOW003": "host-clock/unseeded-RNG effect reachable from "
               "fingerprint-feeding code",
    "FLOW004": "Tcs/Secs lifecycle field assigned outside the ISA "
               "allowlist",
}


def render_sarif(report: Report,
                 baseline: frozenset = frozenset()) -> str:
    rules_seen = sorted({f.rule for f in report.findings})
    results = []
    for finding in sorted(report.findings, key=Report.order_key):
        results.append({
            "ruleId": finding.rule,
            "level": ("note" if finding.fingerprint in baseline
                      else "error"),
            "message": {"text": finding.message},
            "partialFingerprints": {
                "reproAnalysis/v1": finding.fingerprint,
            },
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": "src/" + finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
        })
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "rules": [{
                        "id": rule,
                        "shortDescription": {
                            "text": RULE_SUMMARIES.get(rule, rule)},
                    } for rule in rules_seen],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)
