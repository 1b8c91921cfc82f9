"""Static-analysis passes guarding the repro's constructive guarantees.

The whole reproduction rests on two properties that nothing at runtime
re-checks: every simulated memory access funnels through the Fig. 2 /
Fig. 6 validation automaton, and simulated time is fully deterministic.
This package makes both *machine-checked* properties of the source tree
(the same move Guardian makes for enclave interface orderliness and
Occlum for SFI: validate at build time, don't trust convention):

* :mod:`repro.analysis.edl_lint` — interface linter over the ports'
  embedded EDL sources (rules ``EDL001``–``EDL004``): cross-section
  duplicates, nested sections shadowing plain ecalls/ocalls,
  secret-named parameters declared on untrusted boundaries, and dead
  interface surface never bound by any port runtime.
* :mod:`repro.analysis.simlint` — an ``ast`` pass over all of
  ``src/repro`` (rules ``SIM001``–``SIM006`` and ``SIM008``): direct
  DRAM/PRM access outside the validation automaton, wall-clock reads,
  unseeded RNGs, bare/broad ``except``, hard-coded latency constants
  outside :mod:`repro.perf.costmodel`, host time on fault paths, and
  per-access validator calls outside the translation leaf.
* :mod:`repro.analysis.flow` — the whole-repo dataflow engine
  (``python -m repro.analysis flow``, rules ``FLOW001``–``FLOW004``) over one call graph
  of the tree: key material must never reach an ocall argument or a
  transition-log payload, memory-touch entry points must charge the
  cost model, host clocks must not reach fingerprint code, and only the
  ISA modules may assign Tcs/Secs lifecycle fields.
* :mod:`repro.analysis.orderliness` — replays recorded transition logs
  through the Fig. 6 entry/exit automaton (``orderliness``,
  rules ``ORD001``–``ORD005``).
* :mod:`repro.analysis.difffuzz` — a differential schedule fuzzer
  (``python -m repro.analysis.difffuzz``, rules ``DIFF001``/``DIFF002``)
  comparing the memory-system fast paths with the reference replay.
* :mod:`repro.analysis.modelcheck` — a bounded model checker
  (``python -m repro.analysis modelcheck``, rules ``MC001``–``MC004``):
  BFS over every reachable configuration of a small bounded machine
  driving the *real* ISA transitions and the real access validator,
  auditing the §VII-A invariants plus executable MLS-lattice properties
  at every state, and a ``--mutate`` self-validation mode where each
  named single-edit weakening of the validator or the TLB must be
  killed with a minimized counterexample trace.

All passes run from one CLI — ``python -m repro.analysis`` — with
``--format text|json``, ``--sarif FILE`` for code-scanning upload, an
optional ``--baseline`` file for grandfathered findings, and exit
code 1 on any new finding.  ``edl`` and ``sim`` run by default; the
tier-1 gates ``tests/analysis/test_repo_clean.py`` and
``tests/analysis/test_flow.py`` keep the repo at zero findings with an
empty baseline.
"""

from repro.analysis.findings import Finding, Report
from repro.analysis.runner import run_repo_analysis

__all__ = ["Finding", "Report", "run_repo_analysis"]
