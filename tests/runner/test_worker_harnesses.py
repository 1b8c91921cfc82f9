"""Harnesses must run inside the runner's worker processes.

Runner workers are daemonic, and a daemonic process may not have
children: a harness that opens its own process pool passes when called
directly but fails under ``python -m repro.runner``, which is how CI
runs it.  These tests push a tiny variant of every registered harness
through the real worker path on a (patched) multi-CPU host, and keep the
runner the only module that spawns processes.
"""

from __future__ import annotations

import ast
import dataclasses
import multiprocessing
import os
from pathlib import Path

import pytest

from repro import experiments as exp
from repro.experiments import registry as reg
from repro.host import experiments as host_exp
from repro.runner import run_suite

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched registry reaches workers via fork")

#: Shrunk variants of the experiments whose quick variant takes more
#: than a fraction of a second; the rest run their quick variant.  The
#: paper-shape claims are stated for the quick and full scales, not for
#: these, so the shrunk specs drop them.
TINY = {
    "table2": lambda: exp.run_table2(20),
    "table6": lambda: exp.run_table6(operations=10, records=10),
    "fig7": lambda: exp.run_fig7(chunk_sizes=(128, 2048),
                                 total_bytes=4 << 10),
    "fig9": lambda: exp.run_fig9(scales={
        "cod-rna": 0.0002, "colon-cancer": 0.1, "dna": 0.002,
        "phishing": 0.0005, "protein": 0.0003}),
    "fig10": lambda: exp.run_fig10(n=4, outer_sweep=(1, 4),
                                   page_scale=0.01),
    "fig11": lambda: exp.run_fig11(chunks=(256,), footprint_ratios=(0.5,),
                                   llc_bytes=128 << 10),
    "host-serving": lambda: host_exp.run_host_serving(60, tenants=4),
    "host-overload": lambda: host_exp.run_host_overload(60),
    "host-failover": lambda: host_exp.run_host_failover(100),
    "ablation-d3": lambda: exp.run_d3_flush_sensitivity(scales=(1.0,)),
}


@needs_fork
def test_every_experiment_runs_in_parallel_workers_on_a_multi_cpu_host(
        monkeypatch):
    real_specs = reg.specs

    def specs():
        table = real_specs()
        for name, quick in TINY.items():
            table[name] = dataclasses.replace(table[name], quick=quick,
                                              claims=())
        return table

    monkeypatch.delenv("REPRO_RUNNER_TEST_EXPERIMENTS", raising=False)
    monkeypatch.setattr(reg, "specs", specs)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert set(TINY) <= set(specs())
    serial = run_suite(jobs=1)
    parallel = run_suite(jobs=2)
    assert list(serial.outcomes) == list(parallel.outcomes) \
        == list(specs())
    for name, outcome in serial.outcomes.items():
        twin = parallel.outcomes[name]
        assert outcome.ok, f"{name}: {outcome.error}"
        assert twin.ok, f"{name}: {twin.error}"
        assert twin.fingerprint == outcome.fingerprint, name
        assert twin.transition_digest == outcome.transition_digest, name


def test_only_the_runner_imports_multiprocessing():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing"
                   for name in names):
                offenders.append(str(path.relative_to(SRC)))
    assert sorted(set(offenders)) == ["runner/pool.py"]
