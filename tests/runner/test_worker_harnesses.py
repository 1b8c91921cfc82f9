"""Harnesses must run inside the runner's worker processes.

Runner workers are daemonic, and a daemonic process may not have
children: a harness that opens its own process pool passes when called
directly but fails under ``python -m repro.runner``, which is how CI
runs it.  These tests push such a harness through the real worker path
on a (patched) multi-CPU host, and keep the runner the only module that
spawns processes.
"""

from __future__ import annotations

import ast
import dataclasses
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.experiments import registry as reg, run_fig11
from repro.runner import run_suite

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched registry reaches workers via fork")


def _tiny_fig11():
    return run_fig11(chunks=(256,), footprint_ratios=(0.5,),
                     llc_bytes=128 << 10)


@needs_fork
def test_fig11_runs_in_parallel_workers_on_a_multi_cpu_host(monkeypatch):
    real_specs = reg.specs

    def specs():
        table = real_specs()
        table["fig11"] = dataclasses.replace(table["fig11"],
                                             quick=_tiny_fig11)
        return table

    monkeypatch.setattr(reg, "specs", specs)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = run_suite(["fig11"], jobs=1).outcomes["fig11"]
    parallel = run_suite(["fig11"], jobs=2).outcomes["fig11"]
    assert serial.ok, serial.error
    assert parallel.ok, parallel.error
    assert parallel.fingerprint == serial.fingerprint
    assert parallel.transition_digest == serial.transition_digest


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
