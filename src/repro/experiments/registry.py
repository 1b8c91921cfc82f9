"""Central registry of the experiment harnesses.

One place knows every table/figure/ablation the reproduction can run,
at which scales, what each run is expected to cost on the host, and
which paper shapes its result must show:

* ``specs()`` — name → :class:`ExperimentSpec` with per-experiment
  host-time budgets (the parallel runner's hang/flake guard), a
  relative cost hint (longest-processing-time-first scheduling) and the
  paper-shape :mod:`~repro.experiments.claims`;
* ``run_experiment(name, full)`` — the worker-side entry point: it is a
  plain module-level function, so :mod:`repro.runner` subprocesses need
  only the *name* of an experiment, never a pickled closure;
* ``check_claims(spec, result, full)`` — the parent-side judgement of
  a finished run against its claims.

Scales: the *quick* variant of every experiment is sized so the whole
suite finishes in minutes and is what EXPERIMENTS.md documents; *full*
is benchmark scale (the paper's workload sizes where tractable).  All
simulated results are deterministic at either scale.

Self-test experiments: when ``REPRO_RUNNER_TEST_EXPERIMENTS=1`` the
registry also exposes ``selftest-*`` entries (a crasher, a hang, a
once-flaky success) so the runner's timeout/retry machinery is testable
end-to-end through real worker processes.  They never appear otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro import experiments as exp
from repro.errors import ClaimFailed
from repro.experiments import claims
from repro.experiments.report import ExperimentResult
from repro.host import experiments as host_exp
from repro.perf import wallclock

#: Quick-variant dataset shrink factors for Figure 9 — half the bench
#: scale of :data:`repro.experiments.fig9.SCALES`; SMO cost is
#: superlinear in sample count, so this keeps the quick suite's
#: longest experiment near the pack instead of 4x ahead of it (the
#: normalized nested/monolithic ratio is scale-invariant).
FIG9_QUICK_SCALES = {
    "cod-rna": 0.001,
    "colon-cancer": 0.5,
    "dna": 0.025,
    "phishing": 0.005,
    "protein": 0.003,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """How to run one experiment and what it should cost.

    ``budget_s``/``full_budget_s`` are *host* wall-clock budgets for the
    quick/full variants — generous multiples of the measured cost on the
    reference box, meant to catch hangs and pathological regressions,
    not to be tight performance gates.  ``full_budget_s`` is
    ``max(60, 10 x the measured serial full cost, budget_s)``.
    ``cost_hint`` is the relative expected quick-variant host cost; the
    runner schedules longest-first so one slow experiment never
    serializes the tail.  ``claims`` are the paper shapes every
    successful run must show.
    """

    name: str
    quick: Callable[[], ExperimentResult]
    full: Callable[[], ExperimentResult]
    budget_s: float
    full_budget_s: float
    cost_hint: float
    claims: "tuple[claims.Claim, ...]" = ()


def _specs_paper() -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            "table2",
            quick=lambda: exp.run_table2(200),
            full=lambda: exp.run_table2(2000),
            budget_s=60, full_budget_s=60, cost_hint=0.13,
            claims=claims.TABLE2),
        ExperimentSpec(
            "table3", exp.run_table3, exp.run_table3,
            budget_s=60, full_budget_s=60, cost_hint=0.02,
            claims=claims.TABLE3),
        ExperimentSpec(
            "table4", exp.run_table4, exp.run_table4,
            budget_s=60, full_budget_s=60, cost_hint=0.3,
            claims=claims.TABLE4),
        ExperimentSpec(
            "table5", exp.run_table5, exp.run_table5,
            budget_s=60, full_budget_s=60, cost_hint=0.02,
            claims=claims.TABLE5),
        ExperimentSpec(
            "table6",
            quick=lambda: exp.run_table6(operations=500, records=200),
            full=lambda: exp.run_table6(operations=10_000,
                                        records=1000),
            budget_s=120, full_budget_s=540, cost_hint=1.9,
            claims=claims.TABLE6),
        ExperimentSpec(
            "table7", exp.run_table7, exp.run_table7,
            budget_s=60, full_budget_s=60, cost_hint=0.6,
            claims=claims.TABLE7),
        ExperimentSpec(
            "fig7",
            quick=lambda: exp.run_fig7(chunk_sizes=(128, 2048, 16384),
                                       total_bytes=64 << 10),
            full=lambda: exp.run_fig7(total_bytes=1 << 20),
            budget_s=60, full_budget_s=160, cost_hint=0.56,
            claims=claims.FIG7),
        ExperimentSpec(
            "fig9",
            quick=lambda: exp.run_fig9(scales=FIG9_QUICK_SCALES),
            full=exp.run_fig9,
            budget_s=120, full_budget_s=120, cost_hint=0.89,
            claims=claims.FIG9),
        ExperimentSpec(
            "fig10",
            quick=lambda: exp.run_fig10(n=20, outer_sweep=(1, 4, 20),
                                        page_scale=0.05),
            full=lambda: exp.run_fig10(n=500,
                                       outer_sweep=(1, 5, 50, 100,
                                                    500),
                                       page_scale=0.02),
            budget_s=120, full_budget_s=120, cost_hint=0.6,
            claims=claims.FIG10),
        ExperimentSpec(
            "fig11",
            quick=lambda: exp.run_fig11(chunks=(64, 1024, 8192)),
            full=exp.run_fig11,
            budget_s=120, full_budget_s=120, cost_hint=6.9,
            claims=claims.FIG11),
        ExperimentSpec(
            "host-serving",
            quick=lambda: host_exp.run_host_serving(1000),
            full=lambda: host_exp.run_host_serving(100_000),
            budget_s=60, full_budget_s=410, cost_hint=0.7),
        ExperimentSpec(
            "host-overload",
            quick=lambda: host_exp.run_host_overload(1000),
            full=lambda: host_exp.run_host_overload(100_000),
            budget_s=60, full_budget_s=190, cost_hint=0.4),
        ExperimentSpec(
            "host-failover",
            quick=lambda: host_exp.run_host_failover(1000),
            full=lambda: host_exp.run_host_failover(100_000),
            budget_s=60, full_budget_s=340, cost_hint=0.2),
        ExperimentSpec(
            "ablation-d1", exp.run_d1_validation_cost,
            exp.run_d1_validation_cost,
            budget_s=60, full_budget_s=60, cost_hint=0.06,
            claims=claims.D1),
        ExperimentSpec(
            "ablation-d2", exp.run_d2_shootdown, exp.run_d2_shootdown,
            budget_s=60, full_budget_s=60, cost_hint=0.05,
            claims=claims.D2),
        ExperimentSpec(
            "ablation-d3", exp.run_d3_flush_sensitivity,
            exp.run_d3_flush_sensitivity,
            budget_s=60, full_budget_s=60, cost_hint=0.53,
            claims=claims.D3),
        ExperimentSpec(
            "ablation-d4", exp.run_d4_depth, exp.run_d4_depth,
            budget_s=60, full_budget_s=60, cost_hint=0.04,
            claims=claims.D4),
    ]


# ---------------------------------------------------------------------------
# Self-test experiments (runner timeout/retry machinery)
# ---------------------------------------------------------------------------

def _selftest_result(label: str) -> ExperimentResult:
    result = ExperimentResult("Selftest", f"runner self-test: {label}",
                              ("outcome",))
    result.add(label)
    result.metric("ok", 1)
    return result


def _selftest_ok() -> ExperimentResult:
    return _selftest_result("ok")


def _selftest_crash() -> ExperimentResult:
    raise RuntimeError("selftest-crash: deliberate harness failure")


def _selftest_hang() -> ExperimentResult:
    # Outlive any sane budget in small increments so a terminated
    # worker dies promptly; finish eventually if nobody enforces one.
    for _ in range(1200):
        wallclock.sleep_s(0.05)
    return _selftest_result("hang-survived")


def _selftest_flaky() -> ExperimentResult:
    """Fails on the first attempt, succeeds on the retry.

    Cross-process state lives in the marker file named by
    ``REPRO_RUNNER_FLAKY_PATH`` (the test owns its lifecycle).
    """
    marker = os.environ.get("REPRO_RUNNER_FLAKY_PATH")
    if not marker:
        raise RuntimeError("selftest-flaky needs REPRO_RUNNER_FLAKY_PATH")
    if os.path.exists(marker):
        return _selftest_result("flaky-recovered")
    with open(marker, "w") as handle:
        handle.write("first attempt\n")
    raise RuntimeError("selftest-flaky: deliberate first-attempt failure")


_SELFTEST_MEMORY_EDL = """
enclave {
    trusted {
        public int churn(int rounds);
    };
};
"""


def _selftest_memory_churn(ctx, rounds):
    """Entry body: read/write a rolling window of heap lines."""
    heap = ctx.handle.heap
    lines = heap.size // 64
    total = 0
    for i in range(rounds):
        addr = heap.base + (i % lines) * 64
        ctx.write(addr, (i * 2654435761 % (1 << 64)).to_bytes(8,
                                                              "little"))
        total = (total
                 + int.from_bytes(ctx.read(addr, 8), "little")) \
            % (1 << 64)
    return total


def _selftest_memory() -> ExperimentResult:
    """A tiny enclave workload with guaranteed in-enclave heap traffic.

    Exists so the chaos harness (and its tests) can exercise every
    memory-fault kind — AEX bubbles, forced evictions, DRAM bit flips —
    in well under a second instead of through a paper experiment.  The
    result folds the *simulated* finish time, so any fault bubble that
    leaks cost shows up as a fingerprint mismatch.
    """
    from repro.core.access import NestedValidator
    from repro.os import Kernel
    from repro.sdk import (EnclaveBuilder, EnclaveHost, developer_key,
                           parse_edl)
    from repro.sgx.constants import PAGE_SIZE, SmallMachineConfig
    from repro.sgx.machine import Machine

    machine = Machine(SmallMachineConfig(num_cores=2),
                      validator_cls=NestedValidator)
    kernel = Kernel(machine)
    host = EnclaveHost(machine, kernel)
    builder = EnclaveBuilder("selftest-mem",
                             parse_edl(_SELFTEST_MEMORY_EDL),
                             signing_key=developer_key("selftest"),
                             heap_bytes=4 * PAGE_SIZE)
    builder.add_entry("churn", _selftest_memory_churn)
    handle = host.load(builder.build())
    total = handle.ecall("churn", 400)
    result = ExperimentResult("Selftest",
                              "runner self-test: enclave memory churn",
                              ("outcome",))
    result.add("memory-churn")
    result.metric("checksum", total)
    result.metric("sim_ns", machine.clock.now_ns)
    host.unload(handle)
    return result


def _specs_selftest() -> list[ExperimentSpec]:
    return [
        ExperimentSpec("selftest-ok", _selftest_ok, _selftest_ok,
                       budget_s=30, full_budget_s=30, cost_hint=0.01),
        ExperimentSpec("selftest-memory", _selftest_memory,
                       _selftest_memory,
                       budget_s=30, full_budget_s=30, cost_hint=0.02),
        ExperimentSpec("selftest-crash", _selftest_crash,
                       _selftest_crash,
                       budget_s=30, full_budget_s=30, cost_hint=0.01),
        ExperimentSpec("selftest-hang", _selftest_hang, _selftest_hang,
                       budget_s=1.0, full_budget_s=1.0, cost_hint=0.01),
        ExperimentSpec("selftest-flaky", _selftest_flaky,
                       _selftest_flaky,
                       budget_s=30, full_budget_s=30, cost_hint=0.01),
    ]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def specs() -> dict[str, ExperimentSpec]:
    """name → spec, in canonical (report) order."""
    entries = _specs_paper()
    if os.environ.get("REPRO_RUNNER_TEST_EXPERIMENTS") == "1":
        entries += _specs_selftest()
    return {spec.name: spec for spec in entries}


def select(wanted: list[str]) -> list[str]:
    """Canonical-order names matching any prefix in ``wanted`` (all
    names when ``wanted`` is empty)."""
    return [name for name in specs()
            if not wanted or any(name.startswith(w) for w in wanted)]


def run_experiment(name: str, full: bool = False) -> ExperimentResult:
    """Worker-side entry point: resolve ``name`` and run it."""
    spec = specs()[name]
    return (spec.full if full else spec.quick)()


def check_claims(spec: ExperimentSpec, result: ExperimentResult,
                 full: bool = False) -> None:
    """Raise :class:`ClaimFailed` for the first claim of ``spec`` that
    ``result`` does not show at this scale."""
    scale = "full" if full else "quick"
    for claim in spec.claims:
        if (full or not claim.full_only) and not claim.holds(result):
            raise ClaimFailed(f"{spec.name} at {scale} scale: claim does "
                              f"not hold: {claim.cite}")
