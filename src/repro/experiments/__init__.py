"""Experiment definitions: one module per table/figure of the paper.

Every experiment exposes a ``run_*`` function returning an
:class:`~repro.experiments.reporting.ExperimentResult` (tabular rows plus a
formatted text report).  The benchmark harness under ``benchmarks/`` wraps
these functions with pytest-benchmark and writes the reports to
``benchmarks/results/``.

Durations are parameterizable: the paper's scenarios run 20 minutes; most
benchmarks default to shorter streams via the ``REPRO_BENCH_DURATION``
environment variable so a full benchmark sweep stays tractable, and
EXPERIMENTS.md records the full-length numbers.
"""

from repro.experiments.reporting import ExperimentResult, format_table
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.headline import run_headline
from repro.experiments.ablations import (
    run_ablation_dataflow,
    run_ablation_nldd,
    run_ablation_partitioning,
    run_ablation_precision,
    run_ablation_scaling,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    supports_jobs,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "format_table",
    "run_ablation_dataflow",
    "run_ablation_nldd",
    "run_ablation_partitioning",
    "run_ablation_precision",
    "run_ablation_scaling",
    "run_experiment",
    "run_fig2",
    "run_fig3",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_headline",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "supports_jobs",
]
