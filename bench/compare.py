"""Compare two sets of runs, and record the baseline from sets.

A *set* is the JSON document ``python3 -m bench --out FILE`` writes:
one run of every workload at one seed.
"""

from __future__ import annotations

import json
import pathlib
from statistics import median

from bench.probe import PERIOD_S, PROBE_REF_MS

BASELINE_PATH = pathlib.Path(__file__).with_name("baseline.json")


def load(path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def _fail_frac(run: dict) -> float:
    return run["failed"] / run["attempted"]


def compare(a: dict, b: dict, spec: dict) -> int:
    """Print B against A per workload and metric; returns 1 when any
    end-to-end metric is worse than its bound, the failure fraction
    rose, or the digests of a shared seed differ, else 0."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    breaches = 0
    print(f"{'workload':<8} {'metric':<34} {'A':>12} {'B':>12} "
          f"{'B vs A':>8}  verdict")
    for name in a["runs"]:
        if name not in b["runs"]:
            print(f"{name:<8} missing from B")
            breaches += 1
            continue
        ra, rb = a["runs"][name], b["runs"][name]
        for metric, entry in ra["metrics"].items():
            if metric not in rb["metrics"]:
                continue
            va, vb = entry["value"], rb["metrics"][metric]["value"]
            change = (vb - va) / va if va else 0.0
            verdict = ""
            if metric in bounds:
                better, bound = bounds[metric]
                worse = change if better == "lower" else -change
                verdict = f"ok (bound {bound:.0%})"
                if worse > bound:
                    verdict = f"WORSE than bound {bound:.0%}"
                    breaches += 1
            print(f"{name:<8} {metric:<34} {va:>12.5g} {vb:>12.5g} "
                  f"{change:>+8.2%}  {verdict}")
        if _fail_frac(rb) > _fail_frac(ra):
            print(f"{name:<8} fail_frac rose: {_fail_frac(ra):.4f} -> "
                  f"{_fail_frac(rb):.4f}")
            breaches += 1
        da, db = ra["detail"], rb["detail"]
        if (da["seed"], da["checkpoint"]) == (db["seed"], db["checkpoint"]):
            same = da["digest"] == db["digest"]
            print(f"{name:<8} digest at op {da['checkpoint']} "
                  f"(seed {da['seed']}): {'equal' if same else 'DIFFERENT'}")
            breaches += not same
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def record_baseline(sets: list, path: pathlib.Path) -> None:
    """Write the baseline: per-workload medians of the end-to-end
    metrics over ``sets`` (untraced, seed 0), the golden digests, the
    probe reference and period, and each workload's op counts."""
    for one in sets:
        if one["seed"] != 0 or one["trace"]:
            raise ValueError("the baseline is recorded from untraced "
                             "seed-0 sets")
    workloads, golden = {}, {}
    for name in sets[0]["runs"]:
        runs = [one["runs"][name] for one in sets]
        digests = {run["detail"]["digest"] for run in runs}
        if len(digests) != 1 or not all(run["correct"] for run in runs):
            raise ValueError(f"{name}: sets disagree or failed")
        detail = runs[0]["detail"]
        golden[name] = {"seed": 0, "checkpoint": detail["checkpoint"],
                        "digest": digests.pop()}
        workloads[name] = {
            "checkpoint": detail["checkpoint"],
            "timed_ops": median([run["detail"]["timed_ops"]
                                 for run in runs]),
            "metrics": {metric: median([run["metrics"][metric]["value"]
                                        for run in runs])
                        for metric in runs[0]["metrics"]},
        }
    document = {
        "description": f"Medians of {len(sets)} untraced seed-0 sets of "
                       f"{sets[0]['seconds']} s runs on the reference "
                       f"box; regenerate with python3 -m bench --record "
                       f"SET.json ...",
        "probe_ref_ms": PROBE_REF_MS,
        "probe_period_s": PERIOD_S,
        "golden": golden,
        "workloads": workloads,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
