"""The process-pool scheduler behind ``python -m repro.runner``.

Design notes:

* Workers are ``multiprocessing.Process`` instances (one per
  experiment attempt), not a ``ProcessPoolExecutor`` — a pool executor
  cannot kill a worker that blew its host-time budget, and the budget +
  terminate + retry policy is the point of this module.
* Workers receive only the experiment *name*; they resolve it through
  :func:`repro.experiments.registry.run_experiment` in their own
  process, so nothing about a harness needs to be picklable.
* The parent judges every successful result against the experiment's
  paper-shape claims (:func:`repro.experiments.registry.check_claims`);
  a claim that does not hold fails the experiment with
  :class:`~repro.errors.ClaimFailed` and no retry, because a claim is
  deterministic.
* The parent never consumes worker results in completion order for
  anything observable: outcomes are keyed by name and re-emitted in
  canonical registry order, which is what makes the results document
  byte-identical for ``-j1`` and ``-j32``.
* All host-clock reads go through :mod:`repro.perf.wallclock`
  (simulation-integrity rule SIM002); simulated metrics never touch the
  host clock at all.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Optional

from repro.errors import ClaimFailed
from repro.experiments import registry as reg
from repro.experiments.report import ExperimentResult
from repro.perf import wallclock
from repro.perf.fingerprint import result_fingerprint
from repro.sgx import transitions

#: Seconds the parent waits in one poll round before re-checking
#: deadlines; bounds budget-enforcement latency, not throughput.
_POLL_S = 0.05

#: Seconds to wait for a terminated worker before escalating to kill().
_REAP_S = 5.0

#: Attempts per experiment: the first run plus one retry for host
#: flakes (OOM kill, scheduler hiccup past the budget, ...).
MAX_ATTEMPTS = 2


def _worker_main(name: str, full: bool, fault_plan: Optional[str],
                 conn) -> None:
    """Run one experiment and ship ``(kind, payload, host_s)`` back.

    An ``ok`` payload is ``{"result": …, "transition_digest": …}``: the
    worker wraps the run in a transition-log session, so every machine
    the experiment builds contributes its event log to one canonical
    digest — the per-experiment determinism observable the chaos
    harness and the ``-j1``/``-jN`` identity tests compare.

    A ``fault_plan`` is exported as ``REPRO_FAULT_PLAN`` in the worker's
    own environment, so every :class:`~repro.sgx.machine.Machine` the
    experiment builds attaches a fault engine; with ``None`` the worker
    keeps whatever it inherited (the replay path:
    ``REPRO_FAULT_PLAN="$(cat plan.json)" python -m repro.runner …``).
    """
    if fault_plan is not None:
        os.environ["REPRO_FAULT_PLAN"] = fault_plan
    watch = wallclock.Stopwatch()
    transitions.begin_session()
    try:
        with watch:
            result = reg.run_experiment(name, full)
    # Crash barrier: any harness failure must cross the process
    # boundary as data, and the parent re-raises it as a failed
    # outcome.
    except Exception:  # simlint: disable=SIM004
        conn.send(("error", traceback.format_exc(), watch.elapsed_s))
    else:
        conn.send(("ok", {"result": result.to_dict(),
                          "transition_digest": transitions.end_session()},
                   watch.elapsed_s))
    finally:
        conn.close()


@dataclass
class Outcome:
    """What happened to one experiment across its attempts."""

    name: str
    status: str                      # "ok" | "failed" | "timeout"
    result: Optional[dict] = None    # ExperimentResult.to_dict()
    fingerprint: Optional[str] = None
    transition_digest: Optional[str] = None
    error: Optional[str] = None
    attempts: int = 1
    host_s: float = 0.0              # last attempt, worker-measured
    budget_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SuiteRun:
    """A completed suite: outcomes in canonical registry order."""

    outcomes: "dict[str, Outcome]"
    full: bool
    jobs: int
    budgets_enforced: bool
    elapsed_s: float = 0.0

    @property
    def failed(self) -> "list[Outcome]":
        return [o for o in self.outcomes.values() if not o.ok]


@dataclass
class _Live:
    process: multiprocessing.Process
    conn: "connection.Connection"
    attempts: int
    budget_s: Optional[float]
    deadline: Optional[float] = None
    last_error: Optional[str] = None


def _context():
    """Prefer fork (cheap, inherits warm imports); fall back to the
    platform default where fork does not exist."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _launch(ctx, name: str, full: bool, fault_plan: Optional[str],
            budget_s: Optional[float], attempts: int) -> _Live:
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_worker_main,
                          args=(name, full, fault_plan, child_conn),
                          name=f"repro-runner-{name}", daemon=True)
    process.start()
    child_conn.close()
    deadline = None
    if budget_s is not None:
        deadline = wallclock.monotonic_s() + budget_s
    return _Live(process=process, conn=parent_conn, attempts=attempts,
                 budget_s=budget_s, deadline=deadline)


def _reap(live: _Live) -> None:
    live.process.join(_REAP_S)
    if live.process.is_alive():
        live.process.kill()
        live.process.join()
    live.conn.close()


def run_suite(names: Optional[list] = None, *, full: bool = False,
              jobs: Optional[int] = None,
              enforce_budgets: Optional[bool] = None,
              progress: Optional[Callable[[str], None]] = None,
              fault_plan: Optional[str] = None) -> SuiteRun:
    """Run ``names`` (default: every registered experiment) across at
    most ``jobs`` worker processes and return a :class:`SuiteRun`.

    ``enforce_budgets=None`` reads ``REPRO_SKIP_HOST_BUDGET``: setting
    that to ``1`` (as CI does for the host-budget pytest gate) disables
    the runner's per-experiment timeouts too, since both guard the same
    thing — host-time expectations a loaded shared runner cannot meet.

    ``fault_plan`` is a serialized :class:`repro.faults.FaultPlan`
    (JSON) handed to every worker, which runs its experiment under it
    (see :func:`_worker_main`); the parent's environment is untouched.
    """
    spec_map = reg.specs()
    if names is None:
        names = list(spec_map)
    unknown = [n for n in names if n not in spec_map]
    if unknown:
        raise ValueError(f"unknown experiment(s): {', '.join(unknown)}; "
                         f"available: {', '.join(spec_map)}")
    if enforce_budgets is None:
        enforce_budgets = \
            os.environ.get("REPRO_SKIP_HOST_BUDGET") != "1"
    jobs = max(1, jobs if jobs is not None
               else (os.cpu_count() or 1))
    say = progress or (lambda message: None)
    ctx = _context()

    def budget_for(name: str) -> Optional[float]:
        if not enforce_budgets:
            return None
        spec = spec_map[name]
        return spec.full_budget_s if full else spec.budget_s

    # Longest-expected-first; sort is stable, so equal hints keep
    # canonical order and scheduling is reproducible.
    pending = sorted(names,
                     key=lambda n: -spec_map[n].cost_hint)
    running: "dict[str, _Live]" = {}
    outcomes: "dict[str, Outcome]" = {}
    suite_watch = wallclock.Stopwatch()

    def settle(name: str, live: _Live, outcome: Outcome) -> None:
        outcome.attempts = live.attempts
        outcome.budget_s = live.budget_s
        outcomes[name] = outcome
        del running[name]

    def retry_or(name: str, live: _Live, outcome: Outcome) -> None:
        """Relaunch once after a crash/timeout; settle otherwise."""
        if live.attempts < MAX_ATTEMPTS:
            say(f"{name}: {outcome.status} on attempt "
                f"{live.attempts}, retrying")
            del running[name]
            running[name] = _launch(ctx, name, full, fault_plan,
                                    live.budget_s, live.attempts + 1)
            running[name].last_error = outcome.error
        else:
            say(f"{name}: {outcome.status} after "
                f"{live.attempts} attempts")
            settle(name, live, outcome)

    with suite_watch:
        while pending or running:
            while pending and len(running) < jobs:
                name = pending.pop(0)
                say(f"{name}: start "
                    f"({'full' if full else 'quick'} variant)")
                running[name] = _launch(ctx, name, full, fault_plan,
                                        budget_for(name), attempts=1)
            connection.wait([live.conn
                             for live in running.values()],
                            timeout=_POLL_S)
            for name, live in list(running.items()):
                message = None
                if live.conn.poll():
                    try:
                        message = live.conn.recv()
                    except EOFError:
                        message = None
                if message is not None:
                    kind, payload, host_s = message
                    _reap(live)
                    if kind == "ok":
                        result = payload["result"]
                        table = ExperimentResult.from_dict(result)
                        say(table.render())
                        try:
                            reg.check_claims(spec_map[name], table, full)
                        except ClaimFailed as exc:
                            say(f"{name}: ClaimFailed: {exc}")
                            settle(name, live, Outcome(
                                name=name, status="failed",
                                error=f"ClaimFailed: {exc}",
                                host_s=host_s))
                        else:
                            say(f"{name}: ok in {host_s:.1f}s host "
                                f"(attempt {live.attempts})")
                            settle(name, live, Outcome(
                                name=name, status="ok", result=result,
                                fingerprint=result_fingerprint(result),
                                transition_digest=payload[
                                    "transition_digest"],
                                host_s=host_s))
                    else:
                        retry_or(name, live, Outcome(
                            name=name, status="failed", error=payload,
                            host_s=host_s))
                elif not live.process.is_alive():
                    # Died without reporting: hard crash (signal, OOM).
                    code = live.process.exitcode
                    _reap(live)
                    retry_or(name, live, Outcome(
                        name=name, status="failed",
                        error=f"worker exited with code {code} "
                              f"without reporting a result"))
                elif live.deadline is not None and \
                        wallclock.monotonic_s() > live.deadline:
                    live.process.terminate()
                    _reap(live)
                    retry_or(name, live, Outcome(
                        name=name, status="timeout",
                        error=f"exceeded the {live.budget_s:g}s "
                              f"host-time budget",
                        host_s=live.budget_s))

    ordered = {name: outcomes[name] for name in spec_map
               if name in outcomes}
    return SuiteRun(outcomes=ordered, full=full, jobs=jobs,
                    budgets_enforced=enforce_budgets,
                    elapsed_s=suite_watch.elapsed_s)

