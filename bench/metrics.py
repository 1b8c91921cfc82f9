"""Metric names, units and how each is computed.

``END_TO_END`` are what a user of the simulator sees, measured with
tracing off; ``PER_LAYER`` come from the separate traced pass.  The
names, units and directions here must match ``BENCHMARK.json`` (the
smoke test checks it); the regression bounds live only there.

Every timed value is in reference-box units (see :mod:`bench.probe`).
Counts per operation are taken over the first ``checkpoint`` operations
so they repeat exactly; times per operation or per call are taken over
every timed operation.
"""

from __future__ import annotations

from statistics import median

from bench.probe import percentile

#: (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("crypto.self_ms_per_op", "ms/op", "lower"),
    ("crypto.gcm.kib_per_op", "KiB/op", "lower"),
    ("crypto.gcm.us_per_kib", "us/KiB", "lower"),
    ("crypto.gcm_setup.calls_per_op", "calls/op", "lower"),
    ("crypto.gcm_setup.us_per_call", "us/call", "lower"),
    ("crypto.gcm_setup.repeat_key_frac", "frac", "lower"),
    ("crypto.hashaead.calls_per_op", "calls/op", "lower"),
    ("sgx.self_ms_per_op", "ms/op", "lower"),
    ("sgx.access.calls_per_op", "calls/op", "lower"),
    ("sgx.access.ns_per_call", "ns/call", "lower"),
    ("sgx.transition.calls_per_op", "calls/op", "lower"),
    ("sgx.paging.calls_per_op", "calls/op", "lower"),
    ("sgx.paging.us_per_call", "us/call", "lower"),
    ("sgx.mee.lines_per_op", "lines/op", "lower"),
    ("sgx.sim.tlb_hit_frac", "frac", "higher"),
    ("sgx.sim.llc_hit_frac", "frac", "higher"),
    ("core.self_ms_per_op", "ms/op", "lower"),
    ("core.validate.per_access", "calls/access", "lower"),
    ("core.ntransition.calls_per_op", "calls/op", "lower"),
    ("os.self_ms_per_op", "ms/op", "lower"),
    ("os.driver.calls_per_op", "calls/op", "lower"),
    ("os.pf_retry.calls_per_op", "calls/op", "lower"),
    ("sdk.self_ms_per_op", "ms/op", "lower"),
    ("sdk.ecall.calls_per_op", "calls/op", "lower"),
    ("sdk.ncall.calls_per_op", "calls/op", "lower"),
    ("sdk.link.calls_per_op", "calls/op", "lower"),
    ("apps.self_ms_per_op", "ms/op", "lower"),
    ("apps.minidb.calls_per_op", "calls/op", "lower"),
    ("apps.minisvm.calls_per_op", "calls/op", "lower"),
    ("apps.minissl.calls_per_op", "calls/op", "lower"),
    ("host.self_ms_per_op", "ms/op", "lower"),
    ("host.handshake.calls_per_op", "calls/op", "lower"),
    ("host.backend.calls_per_op", "calls/op", "lower"),
    ("bench.self_ms_per_op", "ms/op", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
)

UNITS = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(op_ms: list, setup_s: list, peak_rss_mb: float) -> dict:
    """``op_ms``: normalised latency of every timed operation;
    ``setup_s``: normalised time of each repeated set-up."""
    return {
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": percentile(op_ms, 0.50),
        "op_p90_ms": percentile(op_ms, 0.90),
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(*, timed_ops: int, layer_ns: dict, incl_ns: dict,
              timed_calls: dict, timed_units: dict, checkpoint: int,
              calls: dict, units: dict, sim: dict,
              overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``layer_ns``/``incl_ns`` (normalised ns) and ``timed_calls``/
    ``timed_units`` cover the ``timed_ops`` timed operations;
    ``calls``/``units``/``sim`` (the simulated counter deltas) cover
    the first ``checkpoint`` operations.
    """
    def per_op(key):
        return _ratio(calls.get(key, 0), checkpoint)

    def ms_per_op(layer):
        return _ratio(layer_ns.get(layer, 0) / 1e6, timed_ops)

    def ns_per_call(key):
        return _ratio(incl_ns.get(key, 0), timed_calls.get(key, 0))

    values = {
        "crypto.gcm.kib_per_op":
            _ratio(units.get("crypto.gcm", 0) / 1024, checkpoint),
        "crypto.gcm.us_per_kib":
            _ratio(incl_ns.get("crypto.gcm", 0) / 1e3,
                   timed_units.get("crypto.gcm", 0) / 1024),
        "crypto.gcm_setup.us_per_call":
            ns_per_call("crypto.gcm_setup") / 1e3,
        "crypto.gcm_setup.repeat_key_frac":
            _ratio(units.get("crypto.gcm_setup", 0),
                   calls.get("crypto.gcm_setup", 0)),
        "sgx.access.ns_per_call": ns_per_call("sgx.access"),
        "sgx.paging.us_per_call": ns_per_call("sgx.paging") / 1e3,
        "sgx.mee.lines_per_op":
            _ratio(sim["mee_line_encrypt"] + sim["mee_line_decrypt"],
                   checkpoint),
        "sgx.sim.tlb_hit_frac":
            _ratio(sim["tlb_hit"], sim["tlb_hit"] + sim["tlb_miss"]),
        "sgx.sim.llc_hit_frac":
            _ratio(sim["llc_hit"], sim["llc_hit"] + sim["llc_miss"]),
        "core.validate.per_access":
            _ratio(calls.get("core.validate", 0),
                   calls.get("sgx.access", 0)),
        "bench.trace_overhead_frac": overhead_frac,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in values:
            out[name] = values[name]
        elif name.endswith(".self_ms_per_op"):
            out[name] = ms_per_op(name.split(".")[0])
        else:
            out[name] = per_op(name.rsplit(".", 1)[0])
    return out
