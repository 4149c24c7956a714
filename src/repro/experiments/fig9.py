"""Figure 9: end-to-end accuracy of six systems x six scenarios x 3 pairs.

The paper's headline evaluation.  The reproduced shape: DaCapo-
Spatiotemporal posts the best geometric mean for every model pair;
OrinLow-Ekya trails; DaCapo-Ekya suffers on the ViT pair (precision
sensitivity); the harder scenarios (S3-S6, geometry drifts) separate the
systems much more than S1/S2 (label-distribution drifts only).
"""

from __future__ import annotations

import numpy as np

from repro.core import SystemCell
from repro.exec import run_cells
from repro.experiments.reporting import ExperimentResult, format_table
from repro.learn import geometric_mean

__all__ = ["run_fig9", "FIG9_SYSTEMS", "FIG9_SCENARIOS", "FIG9_PAIRS"]

FIG9_SYSTEMS = (
    "OrinLow-Ekya",
    "OrinHigh-Ekya",
    "OrinHigh-EOMU",
    "DaCapo-Ekya",
    "DaCapo-Spatial",
    "DaCapo-Spatiotemporal",
)
FIG9_SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6")
FIG9_PAIRS = ("resnet18_wrn50", "vit_b32_b16", "resnet34_wrn101")


def run_fig9(
    duration_s: float = 1200.0,
    pairs: tuple[str, ...] = FIG9_PAIRS,
    systems: tuple[str, ...] = FIG9_SYSTEMS,
    scenarios: tuple[str, ...] = FIG9_SCENARIOS,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 9's accuracy matrix with per-pair gmeans.

    Every (pair, system, scenario) cell is independent, so ``jobs > 1``
    fans them across worker processes; results are identical to the serial
    run at any worker count (each cell seeds its own RNGs).
    """
    cells = [
        SystemCell(system_name, pair, scenario, seed, duration_s)
        for pair in pairs
        for system_name in systems
        for scenario in scenarios
    ]
    results = run_cells(cells, jobs=jobs)

    rows = []
    accuracy: dict[tuple[str, str], list[float]] = {}
    index = 0
    for pair in pairs:
        for system_name in systems:
            accs = []
            for _ in scenarios:
                accs.append(results[index].average_accuracy())
                index += 1
            accuracy[(pair, system_name)] = accs
            row = {"pair": pair, "system": system_name}
            row.update(
                {s: a for s, a in zip(scenarios, accs)}
            )
            row["gmean"] = geometric_mean(np.array(accs))
            rows.append(row)
    report = (
        f"Figure 9: end-to-end averaged accuracy ({duration_s:.0f} s streams)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="fig9",
        title="End-to-end accuracy (Figure 9)",
        rows=rows,
        report=report,
        extras={"accuracy": accuracy, "duration_s": duration_s},
    )
