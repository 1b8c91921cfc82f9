"""Command line of the benchmark (run from the repository root).

One workload, in this process (the form a driver uses)::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).

Every workload, one fresh subprocess each, one after another::

    python3 -m bench [--seed N] [--seconds S] [--trace 0|1]
                     [--trace-out DIR] [--out SET.json]

Compare two sets against the bounds in ``BENCHMARK.json`` (exit 1 on a
breach), or record the baseline from sets::

    python3 -m bench --compare A.json B.json
    python3 -m bench --record SET1.json SET2.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A single run must end well inside this (set-up and checks included).
CHILD_TIMEOUT_S = 170


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Host-time benchmark of the nested-enclave "
                    "simulator.")
    parser.add_argument("--workload",
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1 (or bare --trace): report per-layer "
                             "metrics from a traced pass instead of "
                             "end-to-end ones")
    parser.add_argument("--trace-out", type=pathlib.Path, metavar="DIR",
                        help="with --trace 1: write a Chrome trace and "
                             "a per-layer table per workload")
    parser.add_argument("--out", type=pathlib.Path, metavar="SET.json",
                        help="all workloads: write the set of runs")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A.json", "B.json"),
                        help="compare set B against set A")
    parser.add_argument("--record", nargs="+", type=pathlib.Path,
                        metavar="SET.json",
                        help="write bench/baseline.json from sets")
    return parser


def _import_simulator() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
        import bench.run  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    return True


def _print_run(result: dict) -> None:
    detail = result["detail"]
    print(f"bench {detail['workload']}: seed {detail['seed']}, "
          f"{detail['seconds']:g} s, trace {detail['trace']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    golden = detail["golden"]
    verdict = "no golden for this seed" if golden is None \
        else ("matches golden" if golden == detail["digest"]
              else "DIFFERS from golden")
    print(f"  correct {result['correct']}, {result['attempted']} ops, "
          f"{result['failed']} failed; digest at op "
          f"{detail['checkpoint']} {detail['digest'][:16]}… {verdict}")
    print(f"  raw wall {detail['raw_wall_s']:.2f} s over "
          f"{detail['timed_ops']} timed ops; probe median "
          f"{detail['probe_median_ms']:.3f} ms")
    print("detail: " + json.dumps(detail, sort_keys=True))


def _run_one(args, seconds: float) -> int:
    from bench.run import run_workload
    result = run_workload(args.workload, seed=args.seed, seconds=seconds,
                          trace=bool(args.trace),
                          trace_out=args.trace_out)
    _print_run(result)
    final = {key: result[key]
             for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


def _run_all(args, seconds: float) -> int:
    from bench.workloads import WORKLOADS
    runs, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        if args.trace_out is not None:
            command += ["--trace-out", str(args.trace_out.resolve())]
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"bench {name}: exit {child.returncode}")
            status = 1
            continue
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("detail: ")), flush=True)
        run = json.loads(lines[-1])
        run["detail"] = json.loads(next(
            line for line in lines if line.startswith("detail: "))[8:])
        runs[name] = run
        status |= not run["correct"]
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "trace": args.trace,
             "runs": runs}, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": {f"{name}/{metric}": entry
                    for name, run in runs.items()
                    for metric, entry in run["metrics"].items()}}))
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        from bench.compare import compare, load
        return compare(load(args.compare[0]), load(args.compare[1]), spec)
    if args.record:
        from bench.compare import BASELINE_PATH, load, record_baseline
        record_baseline([load(path) for path in args.record],
                        BASELINE_PATH)
        print(f"wrote {BASELINE_PATH}")
        return 0
    if not _import_simulator():
        return 2
    from bench.workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        build_parser().error(f"--workload must be one of "
                             f"{', '.join(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if args.workload:
        return _run_one(args, seconds)
    return _run_all(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
