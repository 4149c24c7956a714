"""Registry mapping experiment ids to their run functions."""

from __future__ import annotations

import inspect
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    run_ablation_dataflow,
    run_ablation_nldd,
    run_ablation_partitioning,
    run_ablation_precision,
    run_ablation_scaling,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.headline import run_headline
from repro.experiments.reporting import ExperimentResult
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "supports_jobs",
]

#: Every reproducible table/figure, keyed by experiment id.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "headline": run_headline,
    "ablation_partitioning": run_ablation_partitioning,
    "ablation_precision": run_ablation_precision,
    "ablation_nldd": run_ablation_nldd,
    "ablation_dataflow": run_ablation_dataflow,
    "ablation_scaling": run_ablation_scaling,
}


def _get_runner(name: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {known}"
        )


def supports_jobs(name: str) -> bool:
    """Whether an experiment accepts a ``jobs`` worker-count argument.

    Exactly the grid experiments do -- ``fig2``, ``fig9`` to ``fig12``,
    ``headline`` and ``ablation_partitioning`` -- because they run their
    cells through ``run_cells``, which is also what the ambient
    ``--backend`` selection (:func:`repro.exec.use_backend`) reaches.
    The rest build their rows serially in this process.
    """
    return "jobs" in inspect.signature(_get_runner(name)).parameters


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run an experiment by id with optional overrides.

    Unknown override names raise :class:`ConfigurationError` (not a bare
    ``TypeError``) so callers -- the CLI, sweep tooling -- can report them
    as configuration mistakes; the check binds against the runner's
    signature *before* calling so experiment-internal ``TypeError``\\ s are
    never misclassified.
    """
    runner = _get_runner(name)
    try:
        inspect.signature(runner).bind(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"experiment {name!r}: {exc}")
    return runner(**kwargs)
