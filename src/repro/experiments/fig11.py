"""Figure 11: temporal resource allocation decisions over 3 minutes.

Per model pair: the retrain:label time breakdown of DaCapo-Spatial (DC-S)
versus DaCapo-Spatiotemporal (DC-ST), and the accuracy improvement of
DC-ST.  The reproduced shape: DC-ST shifts time toward labeling (the paper
reports +12.7% labeling share on drift) and gains accuracy.
"""

from __future__ import annotations

from repro.core import SystemCell
from repro.exec import run_cells
from repro.experiments.reporting import ExperimentResult, format_table

__all__ = ["run_fig11"]

FIG11_PAIRS = ("resnet18_wrn50", "vit_b32_b16", "resnet34_wrn101")

_FIG11_SYSTEMS = (
    ("DC-S", "DaCapo-Spatial"),
    ("DC-ST", "DaCapo-Spatiotemporal"),
)


def run_fig11(
    duration_s: float = 600.0,
    scenario: str = "S5",
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 11's phase-ratio comparison.

    The paper collects 3 minutes of S1; we default to a longer slice of a
    geometry-drifting scenario so several full phase cycles (and at least
    one drift reaction) land inside the measurement.  ``jobs > 1`` fans the
    (pair, system) cells across worker processes with identical results.
    """
    cells = [
        SystemCell(system_name, pair, scenario, seed, duration_s)
        for pair in FIG11_PAIRS
        for _, system_name in _FIG11_SYSTEMS
    ]
    results = iter(run_cells(cells, jobs=jobs))

    rows = []
    for pair in FIG11_PAIRS:
        shares = {}
        accs = {}
        for label, system_name in _FIG11_SYSTEMS:
            result = next(results)
            retrain, label_share = result.retrain_label_ratio()
            shares[label] = (retrain, label_share)
            accs[label] = result.average_accuracy()
        rows.append(
            {
                "pair": pair,
                "dcs_retrain": shares["DC-S"][0],
                "dcs_label": shares["DC-S"][1],
                "dcst_retrain": shares["DC-ST"][0],
                "dcst_label": shares["DC-ST"][1],
                "label_share_delta": shares["DC-ST"][1] - shares["DC-S"][1],
                "acc_improvement": accs["DC-ST"] - accs["DC-S"],
            }
        )
    report = (
        f"Figure 11: retrain:label time breakdown, DC-S vs DC-ST "
        f"({scenario}, {duration_s:.0f} s)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="fig11",
        title="Temporal allocation decisions (Figure 11)",
        rows=rows,
        report=report,
        extras={"scenario": scenario},
    )
