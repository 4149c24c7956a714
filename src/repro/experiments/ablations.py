"""Ablations of the design choices DESIGN.md calls out.

- **Partitioning** (section III-B): time-multiplexed full array
  (DaCapo-Ekya) vs static spatial partition (DaCapo-Spatial) vs partition +
  temporal algorithm (DaCapo-Spatiotemporal).
- **Precision assignment** (section IV, workflow step 2): kernel rates and
  quantization quality for every MX format, motivating MX9-train /
  MX6-infer.
- **Nldd multiplier** (section VI-B): the paper empirically picks
  ``Nldd = 4 * Nl``; sweep the multiplier.

The partitioning ablation is a grid of registered systems, so it runs
through :func:`~repro.exec.run.run_cells` and takes ``--jobs`` and
``--backend`` like the figure grids, with results identical at any
worker count.  The other four build their rows serially in this process:
the spec sweeps are milliseconds of arithmetic, and each Nldd run needs
its own :class:`~repro.core.config.DaCapoConfig`, which a grid cell
cannot carry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.accelerator import (
    AcceleratorSimulator,
    ChipletPackage,
    SystolicArray,
    scaled_array,
    scaled_power_model,
)
from repro.core import (
    DaCapoConfig,
    PerformanceEstimator,
    SystemCell,
    build_system,
    run_on_scenario,
)
from repro.exec import run_cells
from repro.experiments.reporting import ExperimentResult, format_table
from repro.models import get_pair
from repro.mx import FORMATS, MX6, MX9, MXFormat, sqnr
from repro.platform import build_dacapo_platform

__all__ = [
    "run_ablation_partitioning",
    "run_ablation_precision",
    "run_ablation_nldd",
    "run_ablation_dataflow",
    "run_ablation_scaling",
]


def run_ablation_partitioning(
    duration_s: float = 600.0,
    scenario: str = "S5",
    pair: str = "resnet18_wrn50",
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Isolate the benefit of spatial partitioning and the temporal policy."""
    systems = ("DaCapo-Ekya", "DaCapo-Spatial", "DaCapo-Spatiotemporal")
    cells = [
        SystemCell(system_name, pair, scenario, seed, duration_s)
        for system_name in systems
    ]
    results = run_cells(cells, jobs=jobs)
    rows = []
    for system_name, result in zip(systems, results):
        retrain, label = result.retrain_label_ratio()
        rows.append(
            {
                "system": system_name,
                "accuracy": result.average_accuracy(),
                "retrain_share": retrain,
                "label_share": label,
                "retrainings": len(result.retraining_completions()),
            }
        )
    report = (
        f"Ablation: time-sharing vs spatial vs spatiotemporal "
        f"({pair}, {scenario}, {duration_s:.0f} s)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="ablation_partitioning",
        title="Partitioning ablation",
        rows=rows,
        report=report,
    )


def _precision_row(fmt: MXFormat, pair_name: str, seed: int) -> dict:
    """One precision-ablation row: kernel rates and SQNR at ``fmt``."""
    pair = get_pair(pair_name)
    platform = replace(
        build_dacapo_platform(rows_tsa=13),
        inference_fmt=fmt,
        labeling_fmt=fmt,
        training_fmt=fmt,
    )
    rates = PerformanceEstimator(platform, pair).rates()

    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=4096)

    return {
        "format": fmt.name,
        "bits_per_value": fmt.bits_per_value,
        "inference_fps": rates.inference_fps,
        "labeling_sps": rates.labeling_sps,
        "training_sps": rates.training_sps,
        "sqnr_db": sqnr(tensor, fmt),
    }


def run_ablation_precision(
    pair_name: str = "resnet18_wrn50", seed: int = 0
) -> ExperimentResult:
    """Kernel rates and numeric quality per MX precision (workflow step 2)."""
    rows = [_precision_row(fmt, pair_name, seed) for fmt in FORMATS]
    report = (
        f"Ablation: MX precision tradeoff ({pair_name})\n"
        + format_table(rows, floatfmt=".2f")
        + "\nPaper operating point: MX9 for retraining, MX6 for "
        "inference/labeling; MX4 degrades accuracy considerably.\n"
    )
    return ExperimentResult(
        name="ablation_precision",
        title="Precision ablation",
        rows=rows,
        report=report,
    )


def _dataflow_row(dataflow: str, pair_name: str, rows_tsa: int) -> dict:
    """One dataflow-comparison row."""
    pair = get_pair(pair_name)
    student = pair.student_graph()
    teacher = pair.teacher_graph()
    tsa, bsa = SystolicArray().split(rows_tsa)
    sim = AcceleratorSimulator(dataflow=dataflow)
    return {
        "dataflow": dataflow,
        "inference_fps": sim.inference_throughput(student, MX6, bsa, batch=1),
        "labeling_sps": sim.inference_throughput(teacher, MX6, tsa, batch=8),
        "training_sps": sim.training_throughput(student, MX9, tsa, batch=16),
    }


def run_ablation_dataflow(
    pair_name: str = "resnet18_wrn50", rows_tsa: int = 13
) -> ExperimentResult:
    """Output-stationary vs weight-stationary kernel rates (section V-A).

    The paper's RTL employs the output-stationary design; this ablation
    quantifies what the choice costs/earns per kernel on the prototype.
    """
    rows = [
        _dataflow_row(dataflow, pair_name, rows_tsa)
        for dataflow in ("output_stationary", "weight_stationary")
    ]
    report = (
        f"Ablation: dataflow comparison ({pair_name}, "
        f"T-SA {rows_tsa} rows)\n"
        + format_table(rows, floatfmt=".2f")
        + "\nThe paper's RTL prototype uses output stationary (section V-A).\n"
    )
    return ExperimentResult(
        name="ablation_dataflow",
        title="Dataflow ablation",
        rows=rows,
        report=report,
    )


def _scaling_row(
    label: str, rows_count: int, cols: int, pair_name: str
) -> dict:
    """One array-scaling row."""
    pair = get_pair(pair_name)
    student = pair.student_graph()
    teacher = pair.teacher_graph()
    sim = AcceleratorSimulator()
    array = scaled_array(rows_count, cols)
    power = scaled_power_model(rows_count, cols)
    full = array.full()
    return {
        "config": label,
        "dpes": array.num_dpes,
        "power_w": power.total_power_w,
        "area_mm2": power.total_area_mm2,
        "inference_fps": sim.inference_throughput(student, MX6, full, batch=1),
        "labeling_sps": sim.inference_throughput(teacher, MX6, full, batch=8),
        "training_sps": sim.training_throughput(student, MX9, full, batch=16),
    }


def run_ablation_scaling(
    pair_name: str = "resnet18_wrn50",
) -> ExperimentResult:
    """Array scaling study (section VII-A's 32x32 / chiplet remark)."""
    configs = (
        ("16x16 (prototype)", 16, 16),
        ("32x32", 32, 32),
        ("64x64", 64, 64),
    )
    rows = [_scaling_row(label, r, c, pair_name) for label, r, c in configs]
    for chips in (2, 4):
        package = ChipletPackage(chips=chips)
        base = rows[0]
        scale = package.throughput_scale()
        rows.append(
            {
                "config": f"{chips}x 16x16 chiplets",
                "dpes": chips * 256,
                "power_w": package.power_w(),
                "area_mm2": package.area_mm2(),
                "inference_fps": base["inference_fps"] * scale,
                "labeling_sps": base["labeling_sps"] * scale,
                "training_sps": base["training_sps"] * scale,
            }
        )
    report = (
        f"Ablation: array scaling and chiplet packaging ({pair_name})\n"
        + format_table(rows, floatfmt=".2f")
    )
    return ExperimentResult(
        name="ablation_scaling",
        title="Array scaling ablation",
        rows=rows,
        report=report,
    )


def _nldd_row(
    multiplier: int, pair: str, scenario: str, duration_s: float, seed: int
) -> dict:
    """One Nldd-sweep row: a full system run at one multiplier."""
    config = DaCapoConfig(drift_label_multiplier=multiplier)
    system = build_system(
        "DaCapo-Spatiotemporal", pair, config=config, seed=seed
    )
    result = run_on_scenario(
        system, scenario, seed=seed, duration_s=duration_s
    )
    return {
        "nldd_multiplier": multiplier,
        "accuracy": result.average_accuracy(),
        "drifts_detected": len(result.drift_detections()),
        "label_share": result.retrain_label_ratio()[1],
    }


def run_ablation_nldd(
    duration_s: float = 600.0,
    scenario: str = "S5",
    pair: str = "resnet18_wrn50",
    multipliers: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 0,
) -> ExperimentResult:
    """Sweep the drift-labeling multiplier around the paper's choice of 4.

    Each multiplier is a full system run with its own config (which
    :class:`~repro.core.runner.SystemCell` cannot express), so the runs
    go one after another in this process and share one materialized
    stream.
    """
    rows = [
        _nldd_row(m, pair, scenario, duration_s, seed) for m in multipliers
    ]
    report = (
        f"Ablation: Nldd multiplier sweep ({pair}, {scenario}, "
        f"{duration_s:.0f} s; paper uses 4)\n"
        + format_table(rows)
    )
    return ExperimentResult(
        name="ablation_nldd",
        title="Nldd multiplier ablation",
        rows=rows,
        report=report,
    )
