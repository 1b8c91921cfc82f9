"""Declared-intent configuration for the flow engine.

Everything here is a *contract*, not a heuristic: entry points are the
functions whose every successful path must charge simulated time,
sanctioned modules are the ones whose host-time reads are segregated
from results by construction (a superset of simlint's
``sim002_allowed``), and the lifecycle allowlist names the only modules
that may drive the enclave state machine directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the four interprocedural checks."""

    # -- FLOW002: charge coverage ------------------------------------------
    #: ``module:qualname`` functions on the memory-touch boundary: every
    #: successful (non-raising) path through one of these must pass at
    #: least one CostModel/clock charge seam, directly or via a callee
    #: that provably always charges.
    charge_entry_points: tuple = (
        "repro.sgx.cpu:Core.read",
        "repro.sgx.cpu:Core.write",
        "repro.sgx.cpu:Core._access",
        "repro.sgx.cpu:Core._translate",
        "repro.sgx.cpu:Core.flush_tlb",
        "repro.sgx.machine:Machine.memside_read",
        "repro.sgx.machine:Machine.memside_write",
        "repro.sgx.machine:Machine._charge_lines",
        "repro.sgx.machine:Machine.epc_read",
        "repro.sgx.machine:Machine.epc_write",
        "repro.sgx.machine:Machine.flush_all_tlbs",
    )

    # -- FLOW003: determinism reachability ---------------------------------
    #: Modules whose functions *feed digests*: every function defined in
    #: one of these is a root of the reachability closure.
    fingerprint_root_modules: tuple = (
        "repro.perf.fingerprint",
        "repro.sgx.transitions",
        "repro.runner.results",
        # The serving layer feeds the chaos fingerprints end to end
        # (admission decisions, breaker trajectories, latency digests),
        # so every repro.host function roots the closure too.
        "repro.host",
    )
    #: Modules whose host-clock/RNG effects are sanctioned: wallclock is
    #: the one blessed helper (SIM002 allowlist), and the runner
    #: layers measure host time into the segregated --timings document,
    #: never into fingerprints or digests (DESIGN.md §11 documents this
    #: as a declared soundness boundary, not an inference).
    sanctioned_effect_modules: tuple = (
        "repro.perf.wallclock",
        "repro.runner.pool",
        "repro.experiments.registry",
    )

    # -- FLOW004: lifecycle-mutation escape --------------------------------
    #: Modules that may assign Tcs/Secs lifecycle fields.
    lifecycle_allowed: frozenset = frozenset({
        "repro.sgx.isa",         # baseline leaves own the state machine
        "repro.core.nested_isa",  # nested leaves likewise
        # The model checker snapshots/restores lifecycle state by design
        # (it explores the automaton, it does not simulate through it).
        "repro.analysis.modelcheck.state",
    })
    #: Modules whose functions count as lifecycle drivers for the
    #: witness-path search (ISA leaves and the OS driver above them).
    lifecycle_entry_modules: tuple = (
        "repro.sgx.isa",
        "repro.core.nested_isa",
        "repro.os.driver",
    )


DEFAULT_CONFIG = FlowConfig()
