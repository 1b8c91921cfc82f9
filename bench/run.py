"""Run one workload: timed set-ups, the closed-loop operation loop, the
correctness checks and the digest.

Every set-up and every operation is timed from outside, in thread CPU
time, while a :class:`~bench.probe.SpeedSampler` samples host speed;
the time the sampler itself takes is subtracted, and each interval is
normalised to reference-box time once the run is over.  Input
generation and checks are outside the timed intervals.  The machine
fingerprint (and every traced count) is taken after exactly
``checkpoint`` operations; when the timed loop ends earlier, the
remaining operations up to the checkpoint run untimed.
"""

from __future__ import annotations

import json
import pathlib
import resource
import time
from dataclasses import dataclass, field
from statistics import median

from bench import metrics
from bench.compare import BASELINE_PATH
from bench.probe import SpeedSampler
from bench.trace import LAYERS, Tracer
from bench.workloads import WORKLOADS, fresh_setup
from repro.perf.fingerprint import machine_fingerprint

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Simulated counters the per-layer metrics read.
_SIM_COUNTERS = ("tlb_hit", "tlb_miss", "llc_hit", "llc_miss",
                 "mee_line_encrypt", "mee_line_decrypt")

_clock = time.perf_counter_ns


@dataclass
class Pass:
    """What one pass over a workload measured."""

    #: (start_ns, end_ns, net_ns) of every timed operation: wall-clock
    #: bounds, and thread CPU ns excluding time spent sampling speed.
    intervals: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raw_s: float = 0.0
    digest: str = ""
    #: Peak RSS when the checkpoint was reached: a fixed amount of work,
    #: unlike the whole timed run, whose op count grows with speed.
    rss_mb: float = 0.0
    sim: dict = field(default_factory=dict)
    # Traced passes only: raw ns over the timed operations, and counts.
    layer_ns: dict = field(default_factory=dict)
    incl_ns: dict = field(default_factory=dict)
    timed_counts: tuple = ({}, {})
    checkpoint_counts: tuple = ({}, {})

    def op_ms(self, sampler: SpeedSampler) -> list:
        """Normalised latency of every timed operation."""
        return [net * sampler.factor(start, end) / 1e6
                for start, end, net in self.intervals]


def _timed(sampler: SpeedSampler, fn):
    """``fn()`` and its interval: wall-clock (start_ns, end_ns) and the
    thread CPU ns it took, sampling excluded."""
    paused = sampler.paused_ns
    start = _clock()
    cpu = time.thread_time_ns()
    value = fn()
    net = time.thread_time_ns() - cpu - (sampler.paused_ns - paused)
    return value, (start, _clock(), net)


def run_pass(wl, *, seconds: float, checkpoint: int,
             sampler: SpeedSampler, max_ops: int | None = None,
             tracer: Tracer | None = None) -> Pass:
    """Run operations for ``seconds`` (or exactly ``max_ops``)."""
    result = Pass()
    sim_start = wl.machine.counters.snapshot()
    if tracer is not None:
        tracer.reset_counts()

    def step(i: int):
        inp = wl.next_input(i)
        if tracer is not None:
            tracer.begin_op(i)
        out, interval = _timed(sampler, lambda: wl.op(inp))
        if tracer is not None:
            tracer.end_op()
        result.failed += not wl.check(inp, out)
        result.attempted += 1
        if result.attempted == checkpoint:
            result.rss_mb = peak_rss_mb()
            result.digest = machine_fingerprint(wl.machine)
            now = wl.machine.counters.snapshot()
            result.sim = {name: now.get(name, 0) - sim_start.get(name, 0)
                          for name in _SIM_COUNTERS}
            if tracer is not None:
                result.checkpoint_counts = tracer.counts()
        return interval

    start = _clock()
    deadline = start + seconds * 1e9
    while True:
        result.intervals.append(step(result.attempted))
        if max_ops is None:
            if _clock() >= deadline:
                break
        elif result.attempted >= max_ops:
            break
    result.raw_s = (_clock() - start) / 1e9
    if tracer is not None:
        result.timed_counts = tracer.counts()
        result.layer_ns, result.incl_ns = tracer.take_times()
    while result.attempted < checkpoint:
        step(result.attempted)
    if not wl.final_check():
        result.failed = result.attempted
    return result


def load_baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    return json.loads(BASELINE_PATH.read_text())


def golden_digest(name: str, seed: int, checkpoint: int) -> str | None:
    golden = load_baseline().get("golden", {}).get(name)
    if golden and golden["seed"] == seed \
            and golden["checkpoint"] == checkpoint:
        return golden["digest"]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None,
                 trace_out: pathlib.Path | None = None) -> dict:
    """One benchmark run; returns the result object (``correct``,
    ``attempted``, ``failed``, ``metrics``) plus a ``detail`` dict of
    diagnostics that are not metrics."""
    cls = WORKLOADS[name]
    checkpoint = cls.checkpoint if max_ops is None \
        else min(cls.checkpoint, max_ops)
    # Every instance stays alive until the run ends: the simulator's
    # ports key state by object id, which must not be reused.
    keep = []
    with SpeedSampler() as sampler:
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                wl, interval = _timed(sampler,
                                      lambda: fresh_setup(cls, seed))
                keep.append(wl)
                setups.append(interval)
            passes = [run_pass(wl, seconds=seconds, checkpoint=checkpoint,
                               sampler=sampler, max_ops=max_ops)]
        else:
            # End-to-end numbers come from untraced runs; the untraced
            # half here only measures what tracing costs.
            keep.append(fresh_setup(cls, seed))
            plain = run_pass(keep[-1], seconds=seconds / 2,
                             checkpoint=checkpoint, sampler=sampler,
                             max_ops=max_ops)
            tracer = Tracer()
            tracer.install()
            sampler.on_pause = tracer.exclude
            try:
                keep.append(fresh_setup(cls, seed))
                traced = run_pass(keep[-1], seconds=seconds / 2,
                                  checkpoint=checkpoint, sampler=sampler,
                                  max_ops=max_ops, tracer=tracer)
            finally:
                sampler.on_pause = None
                tracer.uninstall()
            passes = [plain, traced]

    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "checkpoint": checkpoint}
    op_ms = passes[0].op_ms(sampler)
    if not trace:
        setup_s = [net * sampler.factor(start, end) / 1e9
                   for start, end, net in setups]
        values = metrics.end_to_end(op_ms, setup_s, passes[0].rss_mb)
        detail["setup_s_each"] = setup_s
    else:
        traced_ms = traced.op_ms(sampler)
        common = min(len(op_ms), len(traced_ms))
        overhead = sum(traced_ms[:common]) / sum(op_ms[:common]) - 1.0
        # Layer times take the traced pass's mean normalisation factor.
        factor = sum(traced_ms) * 1e6 / sum(
            net for _s, _e, net in traced.intervals)
        timed_calls, timed_units = traced.timed_counts
        calls, units = traced.checkpoint_counts
        values = metrics.per_layer(
            timed_ops=len(traced_ms),
            layer_ns={k: v * factor for k, v in traced.layer_ns.items()},
            incl_ns={k: v * factor for k, v in traced.incl_ns.items()},
            timed_calls=timed_calls, timed_units=timed_units,
            checkpoint=checkpoint, calls=calls, units=units,
            sim=traced.sim, overhead_frac=overhead)
        if trace_out is not None:
            write_trace(trace_out, name, tracer, values)
        detail["traced_digest"] = traced.digest

    digest = passes[0].digest
    golden = golden_digest(name, seed, checkpoint)
    net_s = sum(net for _s, _e, net in passes[0].intervals) / 1e9
    detail.update(
        digest=digest, golden=golden, timed_ops=len(op_ms),
        raw_ops_per_s=len(op_ms) / net_s,
        raw_wall_s=sum(p.raw_s for p in passes),
        probe_median_ms=median(sampler.probes_ms),
        probe_samples=len(sampler.probes_ms))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if any(p.digest != digest for p in passes) \
            or (golden is not None and digest != golden):
        failed = attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name_: {"value": value, "unit": metrics.UNITS[name_]}
                    for name_, value in values.items()},
        "detail": detail,
    }


def write_trace(directory: pathlib.Path, name: str, tracer: Tracer,
                values: dict) -> None:
    """``<name>.trace.json`` (Chrome trace events) and
    ``<name>.layers.txt`` (the per-layer table)."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.trace.json").write_text(
        json.dumps(tracer.chrome_trace()))
    total = sum(values[f"{layer}.self_ms_per_op"] for layer in LAYERS)
    lines = [f"{name}: normalised self time per operation",
             f"{'layer':<8} {'ms/op':>10} {'share':>7}"]
    for layer in LAYERS:
        ms = values[f"{layer}.self_ms_per_op"]
        share = ms / total if total else 0.0
        lines.append(f"{layer:<8} {ms:>10.4f} {share:>7.1%}")
    lines.append("")
    lines += [f"{metric:<36} {value:.6g} {metrics.UNITS[metric]}"
              for metric, value in values.items()]
    (directory / f"{name}.layers.txt").write_text("\n".join(lines) + "\n")
