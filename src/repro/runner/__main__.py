"""``python -m repro.runner`` — the parallel experiment orchestrator.

Examples::

    python -m repro.runner                      # full quick suite
    python -m repro.runner -j8 --json out.json  # 8 workers, JSON doc
    python -m repro.runner fig7 t6 --full       # subset, bench scale
    python -m repro.runner --check-docs         # run + verify docs
    python -m repro.runner --report out.json --write-docs
    python -m repro.runner --list               # registry + budgets

Progress (stderr, silenced by ``--quiet``) includes each finished
experiment's table.  Failures are reported on stderr even under
``--quiet``: one line per failed experiment with the last line of its
error (a claim citation, a budget breach, a worker exception), live or
from ``--report``.  Exit status: 0 on success, 1 when an experiment
fails (after its retry), breaks one of its paper-shape claims
(:mod:`repro.experiments.claims`), or ``--check-docs`` finds drift, 2
on usage errors.

The ``--json`` document is byte-identical for any ``-j``; host wall
times live in the separate ``--timings`` document (see
:mod:`repro.runner.results`).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import registry as reg
from repro.runner import report as docs
from repro.runner.pool import run_suite
from repro.runner.results import (build_document, build_timings,
                                  canonical_json, load_results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run the experiment suite across worker processes "
                    "and emit machine-readable results.")
    parser.add_argument("names", nargs="*", metavar="experiment",
                        help="experiments to run (prefix match; "
                             "default: all)")
    parser.add_argument("--full", action="store_true",
                        help="benchmark-scale variants instead of quick")
    parser.add_argument("-j", "--parallel", type=int, default=None,
                        metavar="N",
                        help="worker processes (default: cpu count)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the results document here "
                             "('-' = stdout)")
    parser.add_argument("--timings", default=None, metavar="PATH",
                        help="write the host-timings document here")
    parser.add_argument("--chaos", type=int, default=None, metavar="K",
                        help="chaos mode: baseline suite, K benign "
                             "fault-plan suites (fingerprints must "
                             "match), and one DRAM-bitflip suite (must "
                             "fail loudly); see repro.runner.chaos")
    parser.add_argument("--chaos-dir", default=None, metavar="PATH",
                        help="serialize the bitflip plan and any "
                             "failing fault plans here for replay")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="load an existing results document "
                             "instead of running experiments")
    parser.add_argument("--check-docs", action="store_true",
                        help="fail if the EXPERIMENTS.md tables differ "
                             "from the measured values")
    parser.add_argument("--write-docs", action="store_true",
                        help="regenerate the EXPERIMENTS.md tables "
                             "in place")
    parser.add_argument("--list", action="store_true", dest="list_",
                        help="list registered experiments and budgets")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return parser


def _list_registry() -> int:
    print(f"{'experiment':<14} {'cost hint':>9} {'quick budget':>13} "
          f"{'full budget':>12}")
    for name, spec in reg.specs().items():
        print(f"{name:<14} {spec.cost_hint:>9g} "
              f"{spec.budget_s:>12g}s {spec.full_budget_s:>11g}s")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_:
        return _list_registry()

    say = (lambda message: None) if args.quiet else \
        (lambda message: print(message, file=sys.stderr))

    if args.chaos is not None:
        if args.chaos < 1:
            print("error: --chaos needs K >= 1", file=sys.stderr)
            return 2
        names = reg.select(args.names)
        if not names:
            print(f"no experiment matches {args.names}; available: "
                  f"{', '.join(reg.specs())}", file=sys.stderr)
            return 2
        from repro.runner.chaos import run_chaos
        chaos_report = run_chaos(
            names, full=args.full, jobs=args.parallel,
            chaos=args.chaos, chaos_dir=args.chaos_dir, progress=say)
        for label, path in chaos_report.saved_plans.items():
            say(f"chaos: plan '{label}' serialized to {path}")
        if not chaos_report.ok:
            for problem in chaos_report.problems:
                print(f"chaos: {problem}", file=sys.stderr)
            return 1
        say(f"chaos ok: {chaos_report.suites_run} suites, "
            f"{chaos_report.bitflip_detections} integrity "
            f"detection(s), fingerprints stable under benign faults")
        return 0

    if args.report:
        try:
            document = load_results(args.report)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = [(entry["name"], entry.get("error"))
                    for entry in document["experiments"]
                    if entry["status"] != "ok"]
    else:
        names = reg.select(args.names)
        if not names:
            print(f"no experiment matches {args.names}; available: "
                  f"{', '.join(reg.specs())}", file=sys.stderr)
            return 2
        run = run_suite(names, full=args.full, jobs=args.parallel,
                        progress=say)
        document = build_document(run)
        failures = [(outcome.name, outcome.error)
                    for outcome in run.failed]
        if args.timings:
            with open(args.timings, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(build_timings(run)))
        say(f"suite done: {len(run.outcomes) - len(failures)}/"
            f"{len(run.outcomes)} ok in {run.elapsed_s:.1f}s host "
            f"({run.jobs} worker(s))")

    if args.json == "-":
        sys.stdout.write(canonical_json(document))
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(document))

    status = 0
    if failures:
        for name, error in failures:
            lines = (error or "").strip().splitlines()
            print(f"{name}: {lines[-1] if lines else 'no error recorded'}",
                  file=sys.stderr)
        print(f"failed experiment(s): "
              f"{', '.join(name for name, _ in failures)}",
              file=sys.stderr)
        status = 1

    if args.write_docs or args.check_docs:
        path = docs.docs_path()
        text = path.read_text(encoding="utf-8")
        if args.write_docs:
            new_text, changed = docs.update_docs(document, text)
            if changed:
                path.write_text(new_text, encoding="utf-8")
                say(f"regenerated table(s): {', '.join(changed)}")
            else:
                say("EXPERIMENTS.md tables already match")
            text = new_text
        if args.check_docs:
            drift = docs.check_docs(document, text)
            if drift:
                for message in drift:
                    print(f"docs drift: {message}", file=sys.stderr)
                status = 1
            else:
                say("EXPERIMENTS.md tables match the measured values")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
