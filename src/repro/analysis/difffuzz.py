"""Differential schedule fuzzer: fast paths vs. the reference replay.

The memory-system fast paths (aggregated cost charging, the inline
TLB-hit page serve, dict-backed LLC sets) claim to be
observably identical to the slow reference implementation.  The golden
fingerprints pin that claim for *fixed* workloads; this fuzzer attacks
it with *random* ones: each seeded :class:`Schedule` drives the shared
``nested_pair`` enclave constellation (outer + associated inner)
through a random sequence of heap pokes/peeks, nested call storms,
AEX/ERESUME interruptions, EPC evict/reload round trips, and
contiguous multi-page read/write bursts straddling TLB flush /
shootdown boundaries (``bulk_storm``, stressing TLB invalidation and
the page-by-page refill) — twice.
The fast run uses the production configuration; the reference run sets
``MachineConfig.reference_paths`` so every access takes the per-page
translate loop with the inline serve disabled — the only difference
between the two runs.  Three oracles compare the
two:

``DIFF001``
    observable divergence — an op returned a different value, or the
    machine fingerprint (clock, counters, cost breakdown, DRAM image,
    MEE root) differs between fast and reference, or the two runs fired
    a different number of faults.
``DIFF002``
    transition divergence — the canonical transition-log digests differ,
    i.e. the two runs performed different lifecycle/transition/AEX/
    eviction sequences.
``ORD00x``
    the fast run's transition log itself violates the orderliness
    automaton (:mod:`repro.analysis.orderliness`), independent of the
    reference run.

A diverging schedule is shrunk to a 1-minimal op sequence (greedy
single-op deletion keeping the same divergence rules) before being
reported and written as a JSON artifact, so a nightly failure hands the
developer a replayable minimal reproducer, not a 200-schedule haystack.

Schedules may also carry a fault seed.  From it :func:`run_schedule`
draws a benign plan of AEX and eviction triggers inside the schedule's
own core-access count (a fault-free counting run measures it), so the
faults fire; the plan has no IPC faults, since ``nested_pair`` sends no
OS IPC.  The plan is attached to each run's machine before its kernel
exists.  Benign injections are transparency bubbles, so they must not
perturb either oracle; the CLI exits 2 if a ``--with-faults`` corpus
injected none.

CLI::

    python -m repro.analysis.difffuzz --schedules 20
    python -m repro.analysis.difffuzz --schedules 200 --with-faults \\
        --artifacts difffuzz-artifacts
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.analysis import orderliness
from repro.analysis.findings import Finding, Report, minimize

DIFF_RULES = ("DIFF001", "DIFF002")

#: Synthetic anchor: the divergence is a property of the fast-path
#: machine configuration, not of any single source line.
FINDING_PATH = "repro/perf/fingerprint.py"

#: Op kinds a schedule draws from.  ``poke``/``peek``/``storm``/
#: ``interrupted`` are the nested_pair outer entries; ``evict_reload``
#: drives the driver's EWB/ELDB round trip over heap pages;
#: ``bulk_storm`` issues contiguous multi-page read/write bursts over
#: an untrusted buffer, interleaved with a full IPI shootdown and a
#: local TLB flush, so every burst crosses a TLB invalidation boundary.
OP_KINDS = ("poke", "peek", "storm", "interrupted", "evict_reload",
            "bulk_storm")

#: Size of the untrusted buffer ``bulk_storm`` bursts range over.
_BULK_PAGES = 4

#: Heap slots (8-byte) the random pokes/peeks range over; stays inside
#: the first heap page so evict_reload cannot invalidate live data
#: assumptions — values must survive any schedule order.
_SLOTS = 24

_MIN_OPS, _MAX_OPS = 4, 10

#: Benign memory faults a schedule's plan draws (fewer if the schedule
#: makes fewer core accesses).
_PLAN_FAULTS = 4


@dataclass(frozen=True)
class Schedule:
    """One replayable fuzz input: a seed, its ops, an optional plan."""

    seed: int
    ops: tuple = field(default_factory=tuple)
    fault_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops",
                           tuple(tuple(op) for op in self.ops))

    def to_dict(self) -> dict:
        return {"schema": 1, "seed": self.seed,
                "ops": [list(op) for op in self.ops],
                "fault_seed": self.fault_seed}

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        if d.get("schema", 1) != 1:
            raise ValueError(f"unknown schedule schema {d.get('schema')!r}")
        return cls(seed=d["seed"],
                   ops=tuple(tuple(op) for op in d.get("ops", ())),
                   fault_seed=d.get("fault_seed"))


def generate_schedule(seed: int, *, with_faults: bool = False) -> Schedule:
    """Deterministically derive a schedule from its seed."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randint(_MIN_OPS, _MAX_OPS)):
        kind = rng.choice(OP_KINDS)
        if kind == "poke":
            ops.append(("poke", 8 * rng.randrange(_SLOTS),
                        rng.randrange(1 << 16)))
        elif kind == "peek":
            ops.append(("peek", 8 * rng.randrange(_SLOTS)))
        elif kind == "storm":
            ops.append(("storm", rng.randint(1, 4)))
        elif kind == "interrupted":
            ops.append(("interrupted", 8 * rng.randrange(_SLOTS)))
        elif kind == "evict_reload":
            ops.append(("evict_reload", rng.randint(1, 3)))
        else:
            ops.append(("bulk_storm", rng.randint(1, _BULK_PAGES),
                        rng.randrange(256)))
    fault_seed = rng.randrange(1 << 30) if with_faults else None
    return Schedule(seed=seed, ops=tuple(ops), fault_seed=fault_seed)


@dataclass(frozen=True)
class RunOutcome:
    """Everything one run exposes to the differential oracles."""

    values: tuple          # per-op return values, in schedule order
    fingerprint: str       # machine_fingerprint of the final machine
    digest: str            # transition-log digest of the final machine
    events: tuple          # the raw transition events (for ORD replay)
    injected: int = 0      # faults the run's plan actually fired


def run_schedule(schedule: Schedule, *,
                 reference: bool = False) -> RunOutcome:
    """Execute ``schedule`` on a fresh nested_pair constellation, under
    its benign fault plan when it has a fault seed."""
    plan_json = (None if schedule.fault_seed is None
                 else _fault_plan(schedule.ops, schedule.fault_seed))
    outcome, _accesses = _execute(schedule.ops, reference, plan_json)
    return outcome


@functools.lru_cache(maxsize=64)
def _fault_plan(ops: tuple, fault_seed: int) -> str:
    """The benign plan of a schedule, as JSON: up to ``_PLAN_FAULTS``
    AEX/evict triggers drawn from ``fault_seed`` inside the core-access
    count of a fault-free run of ``ops``.  Cached, so the fast and the
    reference run of one schedule pay for one counting run."""
    from repro.faults.plan import FaultPlan, FaultSpec
    _outcome, accesses = _execute(ops, False, FaultPlan(seed=0).to_json())
    rng = random.Random(fault_seed)
    points = sorted(rng.sample(range(1, accesses + 1),
                               min(_PLAN_FAULTS, accesses)))
    faults = tuple(FaultSpec(kind=rng.choice(("aex", "evict")), at=at)
                   for at in points)
    return FaultPlan(seed=fault_seed, faults=faults,
                     note=f"difffuzz plan (seed {fault_seed}, "
                          f"{accesses} accesses)").to_json()


def _execute(ops: tuple, reference: bool,
             plan_json: str | None) -> tuple[RunOutcome, int]:
    """Run ``ops`` on a fresh machine under ``plan_json`` (if any);
    return the outcome and the number of core accesses the plan's
    engine counted (0 without a plan)."""
    from repro.core import NestedValidator
    from repro.faults.engine import attach_engine
    from repro.perf.fingerprint import (machine_fingerprint, nested_pair,
                                        transition_digest)
    from repro.sgx.constants import PAGE_SIZE, MachineConfig
    from repro.sgx.machine import Machine

    machine = Machine(MachineConfig(mee_encrypt_bytes=True,
                                    reference_paths=reference),
                      validator_cls=NestedValidator)
    engine = (None if plan_json is None
              else attach_engine(machine, plan_json))
    host, outer, inner = nested_pair(machine)
    driver = host.kernel.driver
    heap_page0 = outer.heap.base & ~(PAGE_SIZE - 1)
    bulk_base = None  # mapped lazily by the first bulk_storm op
    values = []
    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "bulk_storm":
            # Contiguous multi-page bursts across invalidation
            # boundaries: write the whole span in one access, broadcast
            # an IPI shootdown (killing every TLB entry), read it
            # back, flush the local TLB, read again.
            # The checksum pins the bytes; the machine fingerprint pins
            # the charging of every burst.
            pages, pattern_seed = args
            if bulk_base is None:
                bulk_base = host.kernel.mmap(host.proc,
                                             _BULK_PAGES * PAGE_SIZE)
            span = pages * PAGE_SIZE
            pattern = bytes((pattern_seed + i) & 0xFF
                            for i in range(256)) * (span // 256)
            core = host.core
            core.write(bulk_base, pattern)
            host.machine.flush_all_tlbs()
            first = core.read(bulk_base, span)
            core.flush_tlb()
            second = core.read(bulk_base, span)
            values.append((sum(first) + sum(second)) & 0xFFFFFFFF)
        elif kind == "evict_reload":
            pages = args[0]
            for page in range(pages):
                driver.evict_page(outer.secs,
                                  heap_page0 + (page + 1) * PAGE_SIZE)
            for page in range(pages):
                driver.reload_page(outer.secs,
                                   heap_page0 + (page + 1) * PAGE_SIZE)
            values.append(pages)
        else:
            values.append(outer.ecall(kind, *args))
    machine = host.machine
    outcome = RunOutcome(
        values=tuple(values), fingerprint=machine_fingerprint(machine),
        digest=transition_digest(machine),
        events=tuple(machine.transitions.events),
        injected=len(engine.injected) if engine is not None else 0)
    return outcome, engine.access_count if engine is not None else 0


#: Signature the diff/minimize helpers accept, so tests can substitute a
#: stub runner and exercise divergence handling without a real machine.
Runner = Callable[..., RunOutcome]


def diff_schedule(schedule: Schedule, *,
                  runner: Runner = run_schedule
                  ) -> tuple[list[str], RunOutcome, RunOutcome]:
    """Run fast and reference; return the divergence rules that fired."""
    fast = runner(schedule, reference=False)
    ref = runner(schedule, reference=True)
    rules = []
    if (fast.values != ref.values or fast.fingerprint != ref.fingerprint
            or fast.injected != ref.injected):
        rules.append("DIFF001")
    if fast.digest != ref.digest:
        rules.append("DIFF002")
    return rules, fast, ref


def minimize_schedule(schedule: Schedule, rules: list[str], *,
                      runner: Runner = run_schedule) -> Schedule:
    """Shrink a diverging schedule to a 1-minimal op sequence.

    Greedy single-op deletion to a fixpoint, keeping a removal iff every
    rule in ``rules`` still fires — the orderliness/modelcheck witness
    idiom applied to schedules instead of event logs.
    """
    wanted = set(rules)

    def with_ops(ops) -> Schedule:
        return Schedule(seed=schedule.seed, ops=tuple(ops),
                        fault_seed=schedule.fault_seed)

    def still_fails(ops) -> bool:
        got, _fast, _ref = diff_schedule(with_ops(ops), runner=runner)
        return wanted <= set(got)

    if not still_fails(schedule.ops):
        raise ValueError(
            f"schedule {schedule.seed} does not diverge with {rules}")
    return with_ops(minimize(schedule.ops, still_fails))


def _schedule_label(schedule: Schedule) -> str:
    return f"schedule-{schedule.seed}"


@dataclass
class FuzzReport(Report):
    """A fuzz run's findings plus the faults its fast runs injected."""

    faults_injected: int = 0


def fuzz(count: int, *, base_seed: int = 0, with_faults: bool = False,
         artifacts: str | Path | None = None,
         runner: Runner = run_schedule) -> FuzzReport:
    """Fuzz ``count`` seeded schedules; return merged findings and the
    number of faults the fast runs injected.

    Each divergence yields one finding per fired rule, with the
    1-minimal schedule in the message; when ``artifacts`` names a
    directory, a JSON reproducer per diverging seed is written there.
    The fast run's transition log is additionally replayed through the
    orderliness automaton, so an illegal sequence is flagged even when
    fast and reference agree (both being wrong identically).
    """
    artifacts_dir = Path(artifacts) if artifacts is not None else None
    if artifacts_dir is not None:
        artifacts_dir.mkdir(parents=True, exist_ok=True)
    report = FuzzReport(passes=["difffuzz"])
    for i in range(count):
        schedule = generate_schedule(base_seed + i,
                                     with_faults=with_faults)
        rules, fast, ref = diff_schedule(schedule, runner=runner)
        report.faults_injected += fast.injected
        report.extend(orderliness.check_events_report(
            fast.events, symbol=_schedule_label(schedule)))
        if not rules:
            continue
        minimized = minimize_schedule(schedule, rules, runner=runner)
        witness = " -> ".join(op[0] for op in minimized.ops) or "(empty)"
        for rule in rules:
            what = ("observable divergence" if rule == "DIFF001"
                    else "transition-log divergence")
            report.findings.append(Finding(
                path=FINDING_PATH, line=1, rule=rule,
                symbol=_schedule_label(schedule),
                message=f"{what} fast vs reference; "
                        f"minimal schedule [{witness}]"))
        if artifacts_dir is not None:
            payload = {
                "schedule": schedule.to_dict(),
                "minimized": minimized.to_dict(),
                "rules": rules,
                "fast": {"fingerprint": fast.fingerprint,
                         "digest": fast.digest},
                "reference": {"fingerprint": ref.fingerprint,
                              "digest": ref.digest},
            }
            path = artifacts_dir / f"divergence-{schedule.seed}.json"
            path.write_text(json.dumps(payload, indent=2,
                                       sort_keys=True) + "\n")
    report.dedupe()
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.difffuzz",
        description="Differential schedule fuzzer: random nested-enclave "
                    "workloads run on the fast and reference memory "
                    "paths, diffed on observables and transition logs.")
    parser.add_argument("--schedules", type=int, default=20, metavar="N",
                        help="number of seeded schedules (default: 20)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="base seed; schedule i uses seed S+i")
    parser.add_argument("--with-faults", action="store_true",
                        help="also thread a benign fault plan through "
                             "each schedule's machines (exit 2 if no "
                             "fault fires)")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write a JSON reproducer per divergence")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = fuzz(args.schedules, base_seed=args.seed,
                  with_faults=args.with_faults, artifacts=args.artifacts)
    print(report.render_text())
    faults = (f"faults on, {report.faults_injected} injected"
              if args.with_faults else "faults off")
    print(f"{args.schedules} schedule(s) fuzzed "
          f"(base seed {args.seed}, {faults})")
    if report.findings:
        return 1
    if args.with_faults and not report.faults_injected:
        # A fault corpus that fired nothing checked no bubble at all.
        print("error: --with-faults injected no fault", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
