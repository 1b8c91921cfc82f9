"""Smoke + shape tests for the experiment harnesses (fast variants).

The quick and full suites run through ``python -m repro.runner``, which
also checks each result's paper-shape claims; these exercise the same
code paths with tiny workloads so `pytest tests/` stays quick while
still catching harness regressions.
"""

import pytest

from repro.experiments import (run_d1_validation_cost, run_d4_depth,
                               run_fig7, run_fig10, run_fig11,
                               run_table2, run_table3, run_table5)
from repro.experiments.report import ExperimentResult


class TestReportFormatting:
    def test_render_alignment(self):
        result = ExperimentResult("Test", "demo", ("a", "bb"))
        result.add("x", 1.5)
        result.add("longer", 22)
        result.note("a note")
        text = result.render()
        assert "== Test: demo ==" in text
        assert "note: a note" in text
        assert "1.500" in text

    def test_wrong_arity_rejected(self):
        result = ExperimentResult("Test", "demo", ("a", "b"))
        with pytest.raises(ValueError):
            result.add("only-one")

    def test_row_dict(self):
        result = ExperimentResult("Test", "demo", ("k", "v"))
        result.add("x", 1)
        assert result.row_dict()["x"]["v"] == 1


class TestTable2:
    def test_shape(self):
        result = run_table2(calls=50)
        rows = result.row_dict("Mode")
        assert len(rows) == 3
        nested = rows["Emulated nested ecall/ocall (n_ecall/n_ocall)"]
        sgx = rows["Emulated SGX ecall/ocall"]
        assert nested["ecall (us)"] < sgx["ecall (us)"]


class TestTable3:
    def test_runs_and_counts(self):
        result = run_table3()
        assert len(result.rows) == 12
        lib_rows = [r for r in result.rows if "unmodified" in r[1]]
        assert all(r[2] == 0 for r in lib_rows)


class TestTable5:
    def test_paper_values(self):
        rows = run_table5(verify_scale=0.005).row_dict("name")
        assert rows["phishing"]["training size"] == 11_055


class TestFig7:
    def test_tiny_run(self):
        result = run_fig7(chunk_sizes=(512, 4096),
                          total_bytes=16 * 1024)
        rows = result.row_dict("Chunk")
        assert set(rows) == {512, 4096}
        for row in rows.values():
            assert 0.8 < row["Normalized throughput"] < 1.0


class TestFig10:
    def test_tiny_run(self):
        result = run_fig10(n=4, outer_sweep=(1, 4), page_scale=0.02)
        assert len(result.rows) == 4
        rows = {row[0]: row for row in result.rows}
        assert rows["nested: 1 SSL outer, 4 App inner"][2] \
            < rows["baseline: 4 SSL+App"][2]


class TestFig11:
    def test_tiny_run(self):
        result = run_fig11(chunks=(256,), footprint_ratios=(0.5,),
                           llc_bytes=128 << 10)
        assert len(result.rows) == 1
        assert result.rows[0][4] > 1.0   # MEE wins


class TestAblations:
    def test_d1(self):
        result = run_d1_validation_cost(accesses=100)
        rows = result.row_dict("Access pattern")
        assert rows["outer page (fallback)"]["nested checks per miss"] \
            == 1

    def test_d4_monotone(self):
        result = run_d4_depth(depths=(1, 3))
        rows = result.row_dict("Depth to target")
        assert rows[3]["ns per miss"] > rows[1]["ns per miss"]
