"""Flow-engine entry point: build the graph, run the four checks.

``run_flow(root)`` loads every module under ``src/repro`` (reusing the
:mod:`repro.analysis.pysource` loader, so suppressions and ``# flow:
charged`` annotations come along), builds the call graph, and runs
FLOW001–FLOW004, returning a :class:`FlowResult` whose ``report`` slots
into the existing findings/baseline/SARIF pipeline and whose ``stats``
are pinned by the test suite as a drift tripwire for the graph builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import AnalysisError, Report
from repro.analysis.flow.charges import check_charge_coverage
from repro.analysis.flow.config import DEFAULT_CONFIG, FlowConfig
from repro.analysis.flow.determinism import check_determinism_reachability
from repro.analysis.flow.graph import CallGraph, build_graph
from repro.analysis.flow.lifecycle import check_lifecycle_escape
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import iter_modules


@dataclass
class FlowResult:
    """Findings plus the engine's self-describing statistics."""

    report: Report
    graph: CallGraph
    stats: dict = field(default_factory=dict)


def analyze_graph(graph: CallGraph,
                  config: FlowConfig = DEFAULT_CONFIG) -> FlowResult:
    """Run the four checks over an already-built graph."""
    report = Report()
    secret_findings, secret_summaries = check_secret_flow(graph)
    report.findings.extend(secret_findings)
    charge_findings, charge_summaries = check_charge_coverage(
        graph, config.charge_entry_points)
    report.findings.extend(charge_findings)
    report.findings.extend(check_determinism_reachability(graph, config))
    report.findings.extend(check_lifecycle_escape(graph, config))
    report.dedupe()
    report.passes.append("flow")
    stats = dict(graph.stats())
    stats["secret_summaries"] = sum(
        1 for summary in secret_summaries.values() if summary.nontrivial())
    stats["always_charging"] = sum(
        1 for summary in charge_summaries.values() if summary.always_charges)
    return FlowResult(report=report, graph=graph, stats=stats)


def load_tree(root: Path) -> list:
    """Every parsed module of the ``src/repro`` tree under ``root``."""
    package = root / "src" / "repro"
    if not package.is_dir():
        raise AnalysisError(f"no src/repro package under {root}")
    return list(iter_modules(package, root / "src"))


def run_flow(root: Path, config: FlowConfig = DEFAULT_CONFIG) -> FlowResult:
    """Analyze the ``src/repro`` tree under repo root ``root``."""
    return analyze_graph(build_graph(load_tree(root)), config)
