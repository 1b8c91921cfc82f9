"""Chaos mode: the fault-injection acceptance harness.

``python -m repro.runner --chaos K`` runs the selected experiments
three ways and checks the headline robustness property end to end:

1. **Baseline** — the plain suite; every experiment must pass.
2. **K benign suites** — seeds ``1..K`` of :meth:`FaultPlan.benign`
   (AEX preemptions, forced evict/reload round trips, IPC delay/
   duplicate/reorder).  Benign faults must be *result-transparent*:
   every experiment must still pass AND reproduce the baseline's
   ``result_fingerprint`` and transition-log digest byte for byte.
   Any drift means a fault bubble leaked simulated time, a counter, a
   value, or stray transition events.
3. **One malicious suite** — a :meth:`FaultPlan.bitflip` plan that
   flips a DRAM bit under an enclave-owned cache line.  Every
   experiment must either finish untouched (fingerprint match — the
   flip never landed on its traffic) or fail *loudly* with a typed
   :class:`~repro.errors.IntegrityViolation` from the MEE; at least
   one detection is required across the suite, and a silent result
   change is an immediate failure.

Every plan that produced a failure (and the bitflip plan always) is
serialized to ``--chaos-dir`` so the exact run can be replayed with
``REPRO_FAULT_PLAN="$(cat plan.json)" python -m repro.runner NAMES``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults import FaultPlan
from repro.runner.pool import SuiteRun, run_suite

#: Seed for the single malicious suite; fixed so chaos runs are
#: reproducible without extra flags (benign seeds sweep 1..K already).
BITFLIP_SEED = 1


@dataclass
class ChaosReport:
    """Everything ``--chaos`` observed, for the CLI and the tests."""

    problems: "list[str]" = field(default_factory=list)
    bitflip_detections: int = 0
    saved_plans: "dict[str, str]" = field(default_factory=dict)
    suites_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _save_plan(report: ChaosReport, chaos_dir: Optional[str],
               label: str, plan: FaultPlan) -> None:
    if chaos_dir is None:
        return
    os.makedirs(chaos_dir, exist_ok=True)
    path = os.path.join(chaos_dir, label + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(plan.to_json())
    report.saved_plans[label] = path


def run_chaos(names: "list[str]", *, full: bool = False,
              jobs: Optional[int] = None, chaos: int = 3,
              chaos_dir: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> ChaosReport:
    """Run the chaos acceptance protocol over ``names``."""
    say = progress or (lambda message: None)
    report = ChaosReport()

    def suite(fault_plan: "str | None" = None) -> SuiteRun:
        report.suites_run += 1
        return run_suite(names, full=full, jobs=jobs, progress=say,
                         fault_plan=fault_plan)

    say(f"chaos: baseline suite over {len(names)} experiment(s)")
    baseline = suite()
    if baseline.failed:
        for outcome in baseline.failed:
            report.problems.append(
                f"baseline: {outcome.name} {outcome.status} — chaos "
                f"needs a green fault-free suite to compare against")
        return report
    base_fp = {name: outcome.fingerprint
               for name, outcome in baseline.outcomes.items()}
    base_td = {name: outcome.transition_digest
               for name, outcome in baseline.outcomes.items()}

    for seed in range(1, chaos + 1):
        plan = FaultPlan.benign(seed)
        say(f"chaos: benign plan seed={seed} "
            f"({len(plan.faults)} fault(s))")
        run = suite(plan.to_json())
        bad = []
        for name, outcome in run.outcomes.items():
            if not outcome.ok:
                bad.append(
                    f"{name}: {outcome.status} under benign plan "
                    f"seed={seed} — recovery must be transparent:\n"
                    f"{outcome.error}")
            elif outcome.fingerprint != base_fp[name]:
                bad.append(
                    f"{name}: result fingerprint drifted under benign "
                    f"plan seed={seed} ({outcome.fingerprint} != "
                    f"{base_fp[name]}) — a fault bubble leaked "
                    f"simulated state")
            elif outcome.transition_digest != base_td[name]:
                bad.append(
                    f"{name}: transition digest drifted under benign "
                    f"plan seed={seed} ({outcome.transition_digest} != "
                    f"{base_td[name]}) — an injection left transition "
                    f"events behind (rollback bubble leaked)")
        if bad:
            _save_plan(report, chaos_dir, f"benign-seed{seed}", plan)
            report.problems.extend(bad)

    plan = FaultPlan.bitflip(BITFLIP_SEED)
    _save_plan(report, chaos_dir, "bitflip", plan)
    say(f"chaos: bitflip plan seed={BITFLIP_SEED} "
        f"(flip_mask=0x{plan.faults[0].flip_mask:02x})")
    run = suite(plan.to_json())
    for name, outcome in run.outcomes.items():
        if outcome.ok:
            if outcome.fingerprint != base_fp[name]:
                report.problems.append(
                    f"{name}: SILENT corruption under bitflip plan — "
                    f"the run finished with a different result instead "
                    f"of a typed integrity error")
        elif "IntegrityViolation" in (outcome.error or ""):
            report.bitflip_detections += 1
            say(f"chaos: {name} detected the flip "
                f"(typed IntegrityViolation)")
        else:
            report.problems.append(
                f"{name}: failed under bitflip plan without a typed "
                f"IntegrityViolation:\n{outcome.error}")
    if report.bitflip_detections == 0:
        report.problems.append(
            "bitflip plan: no experiment tripped the MEE — the flip "
            "never reached enclave traffic, so the malicious leg "
            "proved nothing (widen the trigger window or the suite)")
    return report
