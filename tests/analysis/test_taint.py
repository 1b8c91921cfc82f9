"""Real-tree sweeps of the FLOW001 secret-flow check: the enclave ports
send no key material to an ocall, and no transition-log call in the
tree (the ISA leaves, the driver) carries key material in its payload.

The per-case source/sink/sanitizer verdicts live in the FLOW001
fixture table in ``test_flow.py``."""

import pytest

from repro.analysis.flow.graph import build_graph
from repro.analysis.flow.secret import RULE, check_secret_flow
from repro.analysis.pysource import iter_modules
from repro.analysis.runner import repo_root


@pytest.fixture(scope="module")
def sweep():
    """FLOW001 over every module of the real tree → (graph, findings)."""
    root = repo_root()
    graph = build_graph(iter_modules(root / "src" / "repro", root / "src"))
    findings, _ = check_secret_flow(graph)
    assert {f.rule for f in findings} <= {RULE}
    return graph, findings


class TestTransitionLogSink:
    def test_real_isa_leaves_are_clean(self, sweep):
        graph, findings = sweep
        assert "repro.sgx.isa" in graph.modules
        assert [f for f in findings
                if "transition-log payload" in f.message] == []


class TestSuppressionAndSweep:
    def test_real_ports_are_clean(self, sweep):
        graph, findings = sweep
        ports = [name for name in graph.modules
                 if name.startswith("repro.apps.ports.")]
        assert ports, "the sweep must cover the enclave ports"
        assert [f for f in findings
                if f.path.startswith("repro/apps/ports/")] == []
