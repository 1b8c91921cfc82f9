"""Smoke test of the benchmark: every workload at a few operations,
untraced and traced, plus the normalisation and percentile maths.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bench import metrics, probe, run  # noqa: E402
from bench.compare import compare  # noqa: E402
from bench.trace import BOUNDARIES, Tracer, _repro_modules  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_OPS = 5


def _namespaces() -> dict:
    """id of every value in every repro module and wrapped class."""
    owners = list(_repro_modules())
    for boundary in BOUNDARIES:
        module, qual = boundary.target.split(":")
        if "." in qual:
            owners.append(getattr(sys.modules[module], qual.split(".")[0]))
    return {(id(owner), name): id(value) for owner in owners
            for name, value in list(vars(owner).items())}


def _names_and_units(result: dict) -> list:
    return [(name, entry["unit"])
            for name, entry in result["metrics"].items()]


@pytest.fixture(scope="module")
def smoke_runs():
    before = _namespaces()
    runs = {}
    for name in WORKLOADS:
        runs[name] = tuple(
            run.run_workload(name, seed=0, seconds=60.0, trace=trace,
                             max_ops=SMOKE_OPS)
            for trace in (False, True))
    return before, runs


def test_workloads_match_the_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_no_operation_fails(smoke_runs):
    for name, results in smoke_runs[1].items():
        for result in results:
            assert result["correct"], (name, result["detail"])
            assert result["failed"] == 0
            assert result["attempted"] >= SMOKE_OPS


def test_traced_digests_equal_untraced(smoke_runs):
    for name, (plain, traced) in smoke_runs[1].items():
        digest = plain["detail"]["digest"]
        assert len(digest) == 64, name
        assert traced["detail"]["digest"] == digest, name
        assert traced["detail"]["traced_digest"] == digest, name


def test_metric_names_and_units_match_the_spec(smoke_runs):
    end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert end_to_end == [(n, u) for n, u, _b in metrics.END_TO_END]
    assert per_layer == [(n, u) for n, u, _b in metrics.PER_LAYER]
    for name, (plain, traced) in smoke_runs[1].items():
        assert _names_and_units(plain) == end_to_end, name
        assert _names_and_units(traced) == per_layer, name
        for entry in plain["metrics"].values():
            assert entry["value"] > 0, name


def test_every_wrapped_function_is_restored(smoke_runs):
    assert _namespaces() == smoke_runs[0]


def test_install_patches_every_boundary():
    tracer = Tracer()
    tracer.install()
    try:
        patched = {f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr in tracer.leftovers()}
    finally:
        tracer.uninstall()
    for boundary in BOUNDARIES:
        qual = boundary.target.split(":")[1]
        assert any(p.endswith(qual) for p in patched), qual
    assert tracer.leftovers() == []


def _sampler(times, probes_ms):
    sampler = probe.SpeedSampler()
    sampler.times, sampler.probes_ms = list(times), list(probes_ms)
    return sampler


def test_probe_normalisation_of_intervals():
    ref = probe.PROBE_REF_MS
    # Samples at 10, 20, 30, 40 ms: reference speed, then half speed.
    sampler = _sampler([10e6, 20e6, 30e6, 40e6],
                       [ref, ref, 2 * ref, 2 * ref])
    # Between two reference-speed samples: unscaled.
    assert sampler.factor(12e6, 18e6) == pytest.approx(1.0)
    # Between the last two samples: halved.
    assert sampler.factor(32e6, 38e6) == pytest.approx(0.5)
    # Spanning samples 20 and 30, plus one either side: 4 / 6.
    assert sampler.factor(15e6, 35e6) == pytest.approx(4 / 6)
    # Before the first or after the last sample: the nearest ones.
    assert sampler.factor(1e6, 2e6) == pytest.approx(1.0)
    assert sampler.factor(50e6, 60e6) == pytest.approx(0.5)
    passed = run.Pass(intervals=[(12e6, 18e6, 6e6), (32e6, 38e6, 4e6)])
    assert passed.op_ms(sampler) == pytest.approx([6.0, 2.0])


def test_sampler_takes_its_time_out_of_timed_work():
    def work() -> int:
        total = 0
        for i in range(2_000_000):
            total += i & 7
        return total

    with probe.SpeedSampler() as sampler:
        paused = sampler.paused_ns
        _value, (start, end, net) = run._timed(sampler, work)
        paused_inside = sampler.paused_ns - paused
    assert len(sampler.probes_ms) >= 4
    assert paused_inside > 0
    assert 0 < net < end - start
    assert sampler.paused_ns == pytest.approx(
        sum(sampler.probes_ms) * 1e6, rel=0.2)


def test_percentiles_and_end_to_end_maths():
    values = list(range(1, 101))
    assert probe.percentile(values, 0.50) == 50
    assert probe.percentile(values, 0.90) == 90
    assert probe.percentile(values, 0.99) == 99
    assert probe.percentile([7.0], 0.9) == 7.0
    out = metrics.end_to_end([10.0, 10.0, 20.0, 40.0], [2.0, 1.0, 3.0],
                             64.0)
    assert out["ops_per_s"] == pytest.approx(4 / 0.08)
    assert out["op_p50_ms"] == 10.0
    assert out["op_p90_ms"] == 40.0
    assert out["setup_s"] == 2.0
    assert out["peak_rss_mb"] == 64.0


def _set(ops_per_s: float, digest: str) -> dict:
    return {"runs": {"ring": {
        "attempted": 10, "failed": 0,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
        "detail": {"seed": 3, "checkpoint": 500, "digest": digest}}}}


def test_compare_flags_breaches_and_digest_drift(capsys):
    bound = {m["name"]: m["bound"]
             for m in SPEC["end_to_end"]}["ops_per_s"]
    assert compare(_set(100.0, "d"), _set(100.0, "d"), SPEC) == 0
    worse = 100.0 * (1 - 2 * bound)
    assert compare(_set(100.0, "d"), _set(worse, "d"), SPEC) == 1
    assert compare(_set(100.0, "d"), _set(100.0, "e"), SPEC) == 1
    capsys.readouterr()
