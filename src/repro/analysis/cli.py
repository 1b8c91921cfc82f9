"""``python -m repro.analysis`` — the repo's static-analysis gate.

Examples::

    python -m repro.analysis                      # default passes, text
    python -m repro.analysis edl sim flow         # the CI gate's set
    python -m repro.analysis sim                  # exactly one pass
    python -m repro.analysis orderliness          # transition-log replay
    python -m repro.analysis modelcheck           # bounded model checker
    python -m repro.analysis modelcheck --scope deep
    python -m repro.analysis flow                 # interprocedural dataflow
    python -m repro.analysis --mutate all         # model-checker kill-list
    python -m repro.analysis flow --mutate all    # flow-engine kill-list
    python -m repro.analysis --format json        # machine-readable
    python -m repro.analysis --sarif out.sarif    # code-scanning upload
    python -m repro.analysis --baseline base.json # ignore grandfathered
    python -m repro.analysis --write-baseline base.json

Exit status: 0 when no *new* findings (everything is clean or
grandfathered by the baseline) and, under ``--mutate``, every mutation
was killed; 1 when new findings exist or a mutant survived; 2 on usage
or environment errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.findings import (AnalysisError, load_baseline,
                                     write_baseline)
from repro.analysis.runner import EXTRA_CHECKS, PASSES, run_repo_analysis
from repro.analysis.sarif import render_sarif

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="EDL interface lint, simulation-integrity lint, "
                    "the interprocedural dataflow engine (secret flow, "
                    "charge coverage, determinism, lifecycle), "
                    "transition-log replay, and bounded model checking "
                    "of the access automaton.")
    parser.add_argument("passes", nargs="*", metavar="pass",
                        help="passes to run "
                             f"({', '.join(PASSES + EXTRA_CHECKS)}; "
                             f"default: {' '.join(PASSES)})")
    parser.add_argument("--scope", default="default",
                        choices=("tiny", "default", "deep"),
                        help="bounded scope for the model checker "
                             "(default: default)")
    parser.add_argument("--mutate", default=None, metavar="NAME",
                        help="self-validation: apply the named mutation "
                             "('all' or a comma-separated list) and "
                             "require the analysis to kill it; targets "
                             "the model checker (no pass, or "
                             "'modelcheck') or the dataflow engine "
                             "('flow')")
    parser.add_argument("--root", default=None,
                        help="repo root (directory containing src/); "
                             "default: auto-detected")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write the report as SARIF 2.1.0")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="JSON file of grandfathered finding "
                             "fingerprints; only new findings fail the run")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write the current findings as a baseline "
                             "and exit 0")
    return parser


def _run_flow_mutate(args) -> int:
    from repro.analysis.flow import run_flow_mutations
    from repro.analysis.runner import repo_root

    names = None if args.mutate == "all" else \
        [n.strip() for n in args.mutate.split(",") if n.strip()]
    root = Path(args.root) if args.root else repo_root()
    try:
        outcomes = run_flow_mutations(root, names)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survivors = 0
    for outcome in outcomes:
        if outcome.killed:
            print(f"KILLED   {outcome.name} "
                  f"[{outcome.expected_rule}]: {outcome.witness}")
        else:
            survivors += 1
            print(f"SURVIVED {outcome.name} "
                  f"[expected {outcome.expected_rule}]")
    print(f"{len(outcomes) - survivors}/{len(outcomes)} flow mutation(s) "
          "killed")
    return 1 if survivors else 0


def _run_mutate(args) -> int:
    target = tuple(args.passes)
    if target == ("flow",):
        return _run_flow_mutate(args)
    if target not in ((), ("modelcheck",)):
        print(f"error: --mutate targets 'modelcheck' or 'flow', not "
              f"{' '.join(target)!r}", file=sys.stderr)
        return 2
    from repro.analysis.modelcheck import MUTATIONS, run_mutation_kill

    if args.mutate == "all":
        names = sorted(MUTATIONS)
    else:
        names = [n.strip() for n in args.mutate.split(",") if n.strip()]
        unknown = [n for n in names if n not in MUTATIONS]
        if unknown:
            print(f"error: unknown mutation(s) {', '.join(unknown)}; "
                  f"choose from {', '.join(sorted(MUTATIONS))}",
                  file=sys.stderr)
            return 2
    outcomes = run_mutation_kill(args.scope, names)
    survivors = 0
    for outcome in outcomes:
        if outcome.killed:
            trace = outcome.findings[0].message if outcome.findings else ""
            print(f"KILLED   {outcome.mutation} "
                  f"[{outcome.expected_rule}]: {trace}")
        else:
            survivors += 1
            print(f"SURVIVED {outcome.mutation} "
                  f"[expected {outcome.expected_rule}, "
                  f"got {', '.join(outcome.rules) or 'no findings'}]")
    print(f"{len(outcomes) - survivors}/{len(outcomes)} mutation(s) "
          f"killed in scope '{args.scope}'")
    return 1 if survivors else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.mutate is not None:
        return _run_mutate(args)
    passes = tuple(args.passes) or PASSES
    try:
        baseline = load_baseline(args.baseline)
        report = run_repo_analysis(args.root, passes,
                                   modelcheck_scope=args.scope)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.write_baseline, report)
        print(f"wrote {len(report.findings)} fingerprint(s) to "
              f"{args.write_baseline}")
        return 0
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(report, baseline) + "\n")
    if args.format == "json":
        print(report.render_json(baseline))
    else:
        print(report.render_text(baseline))
    return 1 if report.new_findings(baseline) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
