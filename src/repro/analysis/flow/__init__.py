"""Whole-repo interprocedural dataflow engine.

Builds a call graph over every module in ``src/repro`` and runs four
checks through the shared findings/baseline/SARIF pipeline:

* **FLOW001** — key material reaching ocall / transition-log sinks,
  directly or through any helper chain;
* **FLOW002** — every successful path through a memory-touch entry
  point passes a CostModel charge seam;
* **FLOW003** — host-clock / unseeded-RNG effects reachable from the
  fingerprint-feeding modules;
* **FLOW004** — Tcs/Secs lifecycle fields assigned outside the ISA
  allowlist, with the driver call chain when helpers smuggle the write.

The engine self-validates via a named mutation corpus
(:mod:`repro.analysis.flow.mutations`): ``flow --mutate all`` must
kill every defect with a call-path witness.
"""

from repro.analysis.flow.config import DEFAULT_CONFIG, FlowConfig
from repro.analysis.flow.engine import FlowResult, analyze_graph, run_flow
from repro.analysis.flow.graph import CallGraph, FunctionInfo, build_graph
from repro.analysis.flow.mutations import (MUTATIONS, FlowMutation,
                                           MutationOutcome,
                                           run_flow_mutations)

__all__ = [
    "DEFAULT_CONFIG", "FlowConfig", "FlowResult", "analyze_graph",
    "run_flow", "CallGraph", "FunctionInfo", "build_graph",
    "MUTATIONS", "FlowMutation", "MutationOutcome", "run_flow_mutations",
]
