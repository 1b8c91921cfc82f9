"""Paper-shape claims: what each experiment's result must show.

The paper's evaluation is a set of shapes, not absolute numbers: who
wins, roughly by how much, and where the trend goes.  Each
:class:`Claim` states one such shape as a predicate over an
:class:`~repro.experiments.report.ExperimentResult` and cites the
table, figure or section it comes from.  The registry attaches them to
the experiments, and :func:`repro.runner.run_suite` checks them on every
successful run, so the quick and full suites both gate them.

Every predicate reads the scale it runs at from the result itself (row
labels, chunk sizes, sweep points), never from a constant.  A claim
that only holds at benchmark scale says so with ``full_only``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.datasets import TABLE_V
from repro.experiments.report import ExperimentResult


@dataclass(frozen=True)
class Claim:
    """One paper shape: its citation and the predicate that checks it."""

    cite: str
    holds: Callable[[ExperimentResult], bool]
    full_only: bool = False


# -- Table II ---------------------------------------------------------------

_HW = "HW SGX ecall/ocall"
_EMULATED = "Emulated SGX ecall/ocall"
_NESTED = "Emulated nested ecall/ocall (n_ecall/n_ocall)"


def _cheaper(result: ExperimentResult, mode: str, than: str) -> bool:
    rows = result.row_dict("Mode")
    return all(rows[mode][column] < rows[than][column]
               for column in ("ecall (us)", "ocall (us)"))


TABLE2 = (
    Claim("Table II: emulated SGX ecalls and ocalls are cheaper than "
          "HW SGX", lambda r: _cheaper(r, _EMULATED, _HW)),
    Claim("Table II: nested n_ecall/n_ocall are slightly cheaper than "
          "emulated SGX ecall/ocall",
          lambda r: _cheaper(r, _NESTED, _EMULATED)),
    Claim("Table II: an n_ecall costs microseconds (0.5-5 us)",
          lambda r: 0.5 < r.row_dict("Mode")[_NESTED]["ecall (us)"] < 5.0),
)

# -- Tables III, IV, V ------------------------------------------------------

TABLE3 = (
    Claim("Table III: porting modifies tens of lines per app and no line "
          "of the SGX-enabled libraries",
          lambda r: all(modified == 0 and original > 100
                        if "unmodified" in kind else 0 < modified < 100
                        for _name, kind, modified, original in r.rows)),
)

TABLE4 = (
    Claim("Table IV: the data placement of all three case studies is "
          "verified on the simulated machine",
          lambda r: len(r.rows) == len(r.notes) == 3
          and all(note.startswith("verified:") for note in r.notes)),
)


def _table5_verbatim(result: ExperimentResult) -> bool:
    rows = result.row_dict("name")
    return (set(rows) == {spec.name for spec in TABLE_V}
            and rows["cod-rna"]["training size"] == 59_535
            and rows["dna"]["testing size"] == 1_186
            and rows["colon-cancer"]["feature"] == 2_000
            and rows["protein"]["class"] == 3
            and rows["phishing"]["testing size"] == "-")


TABLE5 = (
    Claim("Table V: the five datasets carry the paper's characteristics",
          _table5_verbatim),
)

# -- Tables VI, VII ---------------------------------------------------------

TABLE6 = (
    Claim("Table VI: nested SQLite keeps 0.96-1.01 of monolithic "
          "throughput on all four YCSB mixes",
          lambda r: len(r.rows) == 4
          and all(0.96 <= tput <= 1.01 for _mix, tput in r.rows)),
)


def _heartbleed_only_monolithic(result: ExperimentResult) -> bool:
    row = result.row_dict("Attack")["Heartbleed leaks app memory (VI-A)"]
    return "LEAKED" in row["Monolithic outcome"] \
        and "protected" in row["Nested outcome"]


TABLE7 = (
    Claim("Table VII: every attack ran, the three paper rows plus the "
          "§VII-B rows", lambda r: len(r.rows) >= 6),
    Claim("Table VII: Heartbleed leaks the secret from the monolithic "
          "enclave, not from the nested one", _heartbleed_only_monolithic),
)

# -- Figures 7, 9 -----------------------------------------------------------


def _by_chunk(result: ExperimentResult) -> list:
    rows = result.row_dict("Chunk")
    return [rows[chunk] for chunk in sorted(rows)]


def _fig7_shrinking(result: ExperimentResult) -> bool:
    rows = _by_chunk(result)
    return rows[0]["Degradation %"] > rows[-1]["Degradation %"]


def _fig7_calls(result: ExperimentResult) -> bool:
    rows = _by_chunk(result)
    return all(row["Nested calls"] > row["Monolithic calls"]
               for row in rows) \
        and rows[0]["Nested calls"] > rows[-1]["Nested calls"]


FIG7 = (
    Claim("Fig. 7: nested echo loses under 10% of monolithic throughput "
          "at every chunk size (paper: 2-6%)",
          lambda r: all(0.0 < row["Degradation %"] < 10.0
                        for row in _by_chunk(r))),
    Claim("Fig. 7: the degradation shrinks from the smallest chunk to "
          "the largest", _fig7_shrinking),
    Claim("Fig. 7: nested issues more calls than monolithic, and fewer "
          "as chunks grow", _fig7_calls),
)


def _near_monolithic(column: str) -> Callable[[ExperimentResult], bool]:
    return lambda r: len(r.rows) == len(TABLE_V) and all(
        0.85 < row[column] < 1.15 for row in r.row_dict("dataset").values())


FIG9 = (
    Claim("Fig. 9: nested training takes within 15% of monolithic time "
          "on every dataset", _near_monolithic("train (norm.)")),
    # At quick scale cod-rna shrinks to 0.001 and the fixed n-call cost
    # of prediction shows (1.204); the paper's shape is a full-scale one.
    Claim("Fig. 9: nested prediction takes within 15% of monolithic time "
          "on every dataset", _near_monolithic("predict (norm.)"),
          full_only=True),
)

# -- Figure 10 --------------------------------------------------------------


def _fig10(result: ExperimentResult) -> tuple:
    """(separate, combined, nested rows by outer count) at the N the
    result was run with: the largest nested outer count."""
    rows = {row[0]: row for row in result.rows}
    nested = {int(label.split()[1]): row for label, row in rows.items()
              if label.startswith("nested:")}
    n = max(nested)
    return (rows[f"baseline: {n} SSL, {n} App"],
            rows[f"baseline: {n} SSL+App"],
            [nested[k] for k in sorted(nested)])


def _fig10_max_sharing(result: ExperimentResult) -> bool:
    _separate, combined, nested = _fig10(result)
    return nested[0][1] < 0.5 * combined[1] \
        and nested[0][2] < 0.5 * combined[2]


def _fig10_no_sharing(result: ExperimentResult) -> bool:
    separate, _combined, nested = _fig10(result)
    return abs(nested[-1][2] - separate[2]) / separate[2] < 0.05 \
        and nested[-1][1] < 1.25 * separate[1]


def _fig10_monotone(result: ExperimentResult) -> bool:
    load_times = [row[1] for row in _fig10(result)[2]]
    return load_times == sorted(load_times)


FIG10 = (
    Claim("Fig. 10: one shared SSL outer enclave halves the load time "
          "and memory of the combined baseline", _fig10_max_sharing),
    Claim("Fig. 10: N SSL outer enclaves cost about the separate "
          "baseline (memory within 5%, load time within 25%)",
          _fig10_no_sharing),
    Claim("Fig. 10: load time grows with the number of SSL outer "
          "enclaves", _fig10_monotone),
)

# -- Figure 11 --------------------------------------------------------------


def _fig11(result: ExperimentResult) -> dict:
    """footprint label → (chunk, speedup) pairs, smallest chunk first."""
    series: dict = {}
    for footprint, chunk, _mee, _gcm, speedup in result.rows:
        series.setdefault(footprint, []).append((chunk, speedup))
    return {label: sorted(points) for label, points in series.items()}


def _fig11_resident_peak(result: ExperimentResult) -> bool:
    resident = [points[0] for label, points in _fig11(result).items()
                if label.startswith(("1x", "0.125x"))]
    return min(resident)[1] > 15.0


def _fig11_beyond_llc(result: ExperimentResult) -> bool:
    series = _fig11(result)
    resident = next(p for k, p in series.items() if k.startswith("1x"))
    beyond = next(p for k, p in series.items() if k.startswith("8x"))
    return beyond[0][1] < resident[0][1]


FIG11 = (
    Claim("Fig. 11: the MEE channel beats the AES-GCM channel in every "
          "configuration",
          lambda r: all(row[4] > 1.0 for row in r.rows)),
    Claim("Fig. 11: cache-resident small chunks give a speedup of tens "
          "(paper: up to 29.9x)", _fig11_resident_peak),
    Claim("Fig. 11: the speedup shrinks as chunks grow, at every "
          "footprint",
          lambda r: all(points[0][1] > points[-1][1]
                        for points in _fig11(r).values())),
    Claim("Fig. 11: a footprint beyond the LLC narrows the speedup at "
          "the smallest chunk", _fig11_beyond_llc),
)

# -- Ablations D1-D4 (DESIGN.md §5) -----------------------------------------


def _d1(result: ExperimentResult) -> bool:
    rows = result.row_dict("Access pattern")
    fast = rows["own page (fast path)"]
    fallback = rows["outer page (fallback)"]
    return (fast["nested checks per miss"] == 0
            and fallback["nested checks per miss"] == 1
            and fallback["ns per miss"] > fast["ns per miss"])


def _d2(result: ExperimentResult) -> bool:
    rows = result.row_dict("Strategy")
    precise, flush_all = rows["precise"], rows["global-flush"]
    return (flush_all["IPIs"] > precise["IPIs"]
            and flush_all["sim us"] > precise["sim us"]
            and precise["TLB flushes"] > 0)


def _d3(result: ExperimentResult) -> bool:
    rows = result.row_dict("tlb_flush_ns scale")
    tput = [rows[scale]["Normalized throughput"] for scale in sorted(rows)]
    return tput[0] > tput[-1] and all(t <= 1.001 for t in tput)


def _d4(result: ExperimentResult) -> bool:
    rows = result.row_dict("Depth to target")
    costs = [rows[depth]["ns per miss"] for depth in sorted(rows)]
    return costs == sorted(costs) and all(
        row["nested checks per miss"] == depth
        for depth, row in rows.items())


D1 = (Claim("Fig. 6 (D1): an own-page TLB miss runs no nested check, an "
            "outer-page miss exactly one, and costs more", _d1),)
D2 = (Claim("§IV-E (D2): precise thread tracking sends fewer IPIs and "
            "takes less time than flushing every core, and still "
            "flushes", _d2),)
D3 = (Claim("Fig. 7 (D3): costlier TLB flushes widen the "
            "nested/monolithic gap, and nested never beats monolithic",
            _d3),)
D4 = (Claim("§VIII (D4): each nesting level adds one check per TLB "
            "miss, and the miss cost grows with depth", _d4),)
