"""Figure 12: extreme data-drift scenarios ES1 and ES2.

DaCapo (spatiotemporal) vs EOMU vs Ekya with the (ResNet18, WRN50) pair on
the scenarios where all four attributes drift simultaneously.  The
reproduced shape: Ekya degrades most, EOMU's frequent retraining tolerates
drift better, DaCapo stays on top.
"""

from __future__ import annotations

import numpy as np

from repro.core import SystemCell
from repro.exec import run_cells
from repro.experiments.reporting import (
    ExperimentResult,
    format_series,
    format_table,
)

__all__ = ["run_fig12"]

FIG12_SYSTEMS = {
    "Ekya": "OrinHigh-Ekya",
    "EOMU": "OrinHigh-EOMU",
    "DaCapo": "DaCapo-Spatiotemporal",
}

FIG12_SCENARIOS = ("ES1", "ES2")


def run_fig12(
    duration_s: float = 1200.0,
    pair: str = "resnet18_wrn50",
    window_s: float = 15.0,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 12: averaged accuracy + time series on ES1/ES2.

    The (scenario, system) cells run on the sharded grid runner;
    ``jobs > 1`` fans them across worker processes with results identical
    to the serial run at any worker count.
    """
    cells = [
        SystemCell(system_name, pair, scenario, seed, duration_s)
        for scenario in FIG12_SCENARIOS
        for system_name in FIG12_SYSTEMS.values()
    ]
    results = iter(run_cells(cells, jobs=jobs))

    rows = []
    extras: dict = {"series": {}}
    report_parts = [
        f"Figure 12: extreme scenarios, pair {pair} ({duration_s:.0f} s)\n"
    ]
    for scenario in FIG12_SCENARIOS:
        series: dict[str, np.ndarray] = {}
        times = None
        for label in FIG12_SYSTEMS:
            result = next(results)
            starts, accs = result.accuracy_series(window_s)
            times = starts
            series[label] = accs
            rows.append(
                {
                    "scenario": scenario,
                    "system": label,
                    "accuracy": result.average_accuracy(),
                    "retrainings": len(result.retraining_completions()),
                }
            )
        extras["series"][scenario] = {"times": times, **series}
        report_parts.append(f"--- {scenario}\n")
        report_parts.append(format_series(times, series))
    report_parts.append("Averaged accuracies:\n" + format_table(rows))
    return ExperimentResult(
        name="fig12",
        title="Extreme data-drift scenarios (Figure 12)",
        rows=rows,
        report="".join(report_parts),
        extras=extras,
    )
