"""Table II: workload scenario definitions."""

from __future__ import annotations

from repro.data.scenarios import SCENARIO_NAMES, build_scenario, scenario_table
from repro.experiments.reporting import ExperimentResult, format_table

__all__ = ["run_table2"]


def _scenario_row(spec: dict, duration_s: float) -> dict:
    """One Table II row."""
    stream = build_scenario(spec["name"], duration_s=duration_s)
    return {
        **spec,
        "segments": len(stream.segments),
        "drifts": len(stream.drift_times()),
        "frames": stream.num_frames,
    }


def run_table2(duration_s: float = 1200.0) -> ExperimentResult:
    """Reproduce Table II, adding measured drift counts per scenario."""
    rows = [_scenario_row(spec, duration_s) for spec in scenario_table()]
    report = (
        "Table II: workload scenarios (20-minute streams at 30 FPS)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="table2",
        title="Workload scenarios (Table II)",
        rows=rows,
        report=report,
        extras={"names": list(SCENARIO_NAMES)},
    )
