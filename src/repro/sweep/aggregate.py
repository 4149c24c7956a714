"""Sweep aggregation: per-cell rows -> group-by reductions -> JSON/CSV.

The per-figure experiments each hand-roll their own row shapes; a fleet
sweep instead produces one *uniform* per-cell row schema (identity columns
from :data:`repro.sweep.spec.ROW_KEYS` plus the metric columns below) and
reduces it with generic group-bys: mean, geometric mean, and percentiles
per metric.  Both layers are machine-readable -- :func:`write_json` emits
one self-describing document, :func:`write_csv` flat tables -- so results
can leave the process without screen-scraping reports.

Accumulation site: every reduction here runs in float64 regardless of the
numeric policy the cells executed under (the rows carry Python floats);
gmean additionally goes through :func:`repro.learn.metrics.geometric_mean`
which documents the same contract.  A geometric mean over values that are
not all positive is reported as ``None`` (``null`` in JSON, ``-`` in text
tables) rather than a misleading zero.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.core.phases import PhaseKind
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.learn.metrics import geometric_mean

__all__ = [
    "aggregate_rows",
    "cell_row",
    "read_json",
    "write_csv",
    "write_json",
]

#: Serialization schema version of the sweep JSON document.
SWEEP_SCHEMA_VERSION = 1


def cell_row(policy_name: str, cell, result: RunResult) -> dict:
    """One flat per-cell row: identity columns then metric columns."""
    breakdown = result.phase_breakdown()
    return {
        "policy": policy_name,
        "system": result.system,
        "pair": cell.pair,
        "scenario": cell.scenario,
        "seed": cell.seed,
        "duration_s": float(result.duration_s),
        "accuracy": result.average_accuracy(),
        "drop_rate": result.frame_drop_rate,
        "retrain_s": float(breakdown[PhaseKind.RETRAIN]),
        "label_s": float(breakdown[PhaseKind.LABEL]),
        "energy_j": float(result.energy_j),
    }


def _reduce(values: list[float], percentiles: tuple[float, ...]) -> dict:
    """mean / gmean / percentiles of one metric column (float64)."""
    array = np.asarray(values, dtype=np.float64)
    out = {"mean": float(np.mean(array))}
    out["gmean"] = (
        geometric_mean(array) if np.all(array > 0) else None
    )
    for q in percentiles:
        out[f"p{q:g}".replace(".", "_")] = float(np.percentile(array, q))
    return out


def aggregate_rows(
    rows: list[dict],
    group_by: tuple[str, ...],
    metrics: tuple[str, ...],
    percentiles: tuple[float, ...] = (50.0, 90.0),
) -> list[dict]:
    """Group per-cell rows and reduce each metric.

    Groups keep first-appearance order (which follows the documented axis
    expansion order), so aggregate tables are deterministic.  Each output
    row carries the group key columns, the member count ``cells``, and
    ``{metric}_{mean,gmean,p<q>}`` columns.
    """
    if not rows:
        return []
    for column in tuple(group_by) + tuple(metrics):
        if column in group_by and column in metrics:
            raise ConfigurationError(
                f"column {column!r} cannot be both a group key and a metric"
            )
        if column not in rows[0]:
            raise ConfigurationError(
                f"unknown aggregation column {column!r}; "
                f"rows have: {', '.join(rows[0])}"
            )
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row[column] for column in group_by)
        groups.setdefault(key, []).append(row)
    aggregated = []
    for key, members in groups.items():
        out = dict(zip(group_by, key))
        out["cells"] = len(members)
        for metric in metrics:
            reduced = _reduce(
                [member[metric] for member in members], tuple(percentiles)
            )
            for stat, value in reduced.items():
                out[f"{metric}_{stat}"] = value
        aggregated.append(out)
    return aggregated


def write_json(path: str | Path, payload: dict) -> Path:
    """Write one machine-readable sweep document (strict JSON, no NaN)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        + "\n"
    )
    return path


def read_json(path: str | Path) -> dict:
    """Read a sweep document back (the round-trip partner of write_json)."""
    return json.loads(Path(path).read_text())


def write_csv(path: str | Path, rows: list[dict]) -> Path:
    """Write homogeneous dict rows as CSV (``None`` becomes empty)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        if not rows:
            return path
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("" if v is None else v) for k, v in row.items()}
            )
    return path
