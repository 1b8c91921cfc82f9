"""Experiment harnesses — one module per table/figure of the paper's
evaluation (§V-§VII), plus the DESIGN.md ablations.

Each ``run_*`` function executes the workload on fresh simulated
machines and returns an :class:`~repro.experiments.report.ExperimentResult`
whose ``render()`` prints a table shaped like the paper's.  The
registry (:mod:`repro.experiments.registry`) names them, sizes them and
attaches the paper-shape claims (:mod:`repro.experiments.claims`) that
``python -m repro.runner`` checks on every result.
"""

from repro.experiments.ablations import (run_d1_validation_cost,
                                         run_d2_shootdown,
                                         run_d3_flush_sensitivity,
                                         run_d4_depth)
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.report import ExperimentResult
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7

__all__ = [
    "ExperimentResult", "run_d1_validation_cost", "run_d2_shootdown",
    "run_d3_flush_sensitivity", "run_d4_depth", "run_fig10", "run_fig11",
    "run_fig7", "run_fig9", "run_table2", "run_table3", "run_table4",
    "run_table5", "run_table6", "run_table7",
]
