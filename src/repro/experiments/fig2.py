"""Figure 2: the GPU dilemma -- student/teacher/Ekya on RTX 3090 vs Orin.

The paper's preliminary study: frozen student and teacher models plus an
idealized Ekya, run on a datacenter GPU (RTX 3090) and an autonomous-system
GPU (Jetson Orin).  The reproduced shape: on the RTX 3090 nothing drops
frames and Ekya approaches (or exceeds) the teacher; on Orin the teacher
and Ekya lose accuracy, driven by frame drops and starved retraining.
"""

from __future__ import annotations

from repro.core import SystemCell
from repro.exec import run_cells
from repro.experiments.reporting import ExperimentResult, format_table

__all__ = ["run_fig2"]

#: The paper evaluates these two pairs in Figure 2.
FIG2_PAIRS = ("resnet18_wrn50", "resnet34_wrn101")
FIG2_PLATFORMS = ("RTX3090", "OrinHigh")
#: The bars per platform; each runs the system ``<platform>-<Bar>``.
FIG2_BARS = ("student", "teacher", "ekya")


def run_fig2(
    duration_s: float = 600.0,
    scenario: str = "S5",
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 2's bars on a drifting scenario.

    ``jobs > 1`` fans the independent (pair, platform, bar) cells across
    worker processes with results identical to the serial run.
    """
    grid = [
        (pair, platform, bar)
        for pair in FIG2_PAIRS
        for platform in FIG2_PLATFORMS
        for bar in FIG2_BARS
    ]
    cells = [
        SystemCell(
            f"{platform}-{bar.capitalize()}", pair, scenario, seed, duration_s
        )
        for pair, platform, bar in grid
    ]
    results = run_cells(cells, jobs=jobs)

    rows = [
        {
            "pair": pair,
            "platform": platform,
            "system": bar,
            "accuracy": result.average_accuracy(),
            "frame_drop_rate": result.frame_drop_rate,
        }
        for (pair, platform, bar), result in zip(grid, results)
    ]
    report = (
        "Figure 2: accuracy of student/teacher/Ekya on RTX 3090 vs Orin\n"
        f"(scenario {scenario}, {duration_s:.0f} s)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="fig2",
        title="GPU dilemma (Figure 2)",
        rows=rows,
        report=report,
        extras={"scenario": scenario, "duration_s": duration_s},
    )
