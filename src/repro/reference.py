"""Frozen reference digests: the bit-identity contract.

A *reference digest* is a sha256 over everything a :class:`RunResult`'s
consumers can observe -- frame timestamps, per-frame correctness and drop
flags, and the full phase trace -- so two runs share a digest iff they are
bit-identical.  The numeric policy's frozen digest file is
``tests/reference/digests_float64.json``.  It was generated on the tree
*before* the numeric-policy refactor, and runs must keep matching it
forever.

Sections, by cost:

- ``smoke`` -- 6 systems on one short scenario + its raw stream; cheap
  enough for tier-1 (``tests/test_reference_digests.py``).
- ``full`` -- the 29-entry fixed-seed set carried since PR 1 (6 systems x
  2 scenarios x 2 seeds at 600 s, the full-length 1200 s DaCapo cell, and
  4 raw streams); checked when ``REPRO_FULL_DIGESTS=1``.
- ``fig9`` -- per-cell digests *and accuracies* of the full Figure 9 grid
  (108 cells at 1200 s).

Recompute sections into another file to compare with the checked-in one,
which is never overwritten::

    PYTHONPATH=src python -m repro.reference --sections smoke \
        --out new_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.results import RunResult
from repro.core.runner import SystemCell
from repro.data.scenarios import build_scenario
from repro.data.stream import FrameWindow
from repro.exec.run import run_cells
from repro.numeric import active_policy

__all__ = [
    "REFERENCE_VERSION",
    "compute_section",
    "reference_cells",
    "reference_path",
    "run_digest",
    "stream_digest",
]

#: Schema version of the digest files.
REFERENCE_VERSION = 1

_SMOKE_SYSTEMS = (
    "OrinLow-Ekya",
    "OrinHigh-Ekya",
    "OrinHigh-EOMU",
    "DaCapo-Ekya",
    "DaCapo-Spatial",
    "DaCapo-Spatiotemporal",
)
_FULL_SCENARIOS = ("S1", "S4")
_FULL_SEEDS = (0, 1)
_PAIR = "resnet18_wrn50"

_FIG9_SYSTEMS = _SMOKE_SYSTEMS
_FIG9_SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6")
_FIG9_PAIRS = ("resnet18_wrn50", "vit_b32_b16", "resnet34_wrn101")


def _array_bytes(array: np.ndarray) -> bytes:
    """Dtype-tagged contiguous bytes (the dtype is part of the identity)."""
    array = np.ascontiguousarray(array)
    return str(array.dtype).encode() + b"|" + array.tobytes()


def run_digest(result: RunResult) -> str:
    """Hex sha256 over every observable field of one run."""
    hasher = hashlib.sha256()
    hasher.update(
        f"{result.system}|{result.scenario}|{result.pair}|"
        f"{result.duration_s.hex()}".encode()
    )
    hasher.update(_array_bytes(result.times))
    hasher.update(_array_bytes(np.asarray(result.correct)))
    hasher.update(_array_bytes(np.asarray(result.dropped)))
    for phase in result.phases:
        hasher.update(
            f"{phase.kind.name}|{phase.start_s.hex()}|{phase.end_s.hex()}|"
            f"{phase.samples}|{int(phase.drift_detected)}".encode()
        )
    return hasher.hexdigest()


def stream_digest(window: FrameWindow) -> str:
    """Hex sha256 over a materialized stream's raw arrays."""
    hasher = hashlib.sha256()
    for array in (window.features, window.labels, window.times):
        hasher.update(_array_bytes(np.asarray(array)))
    return hasher.hexdigest()


def _cell_key(cell: SystemCell) -> str:
    return (
        f"{cell.system}|{cell.pair}|{cell.scenario}"
        f"|seed{cell.seed}|{cell.duration_s:g}s"
    )


def _stream_key(scenario: str, seed: int, duration_s: float) -> str:
    return f"stream|{scenario}|seed{seed}|{duration_s:g}s"


def reference_cells(section: str) -> list[SystemCell]:
    """The fixed-seed grid one section runs."""
    if section == "smoke":
        return [
            SystemCell(system, _PAIR, "S4", 0, 300.0)
            for system in _SMOKE_SYSTEMS
        ]
    if section == "full":
        cells = [
            SystemCell(system, _PAIR, scenario, seed, 600.0)
            for system in _SMOKE_SYSTEMS
            for scenario in _FULL_SCENARIOS
            for seed in _FULL_SEEDS
        ]
        cells.append(
            SystemCell("DaCapo-Spatiotemporal", _PAIR, "S4", 0, 1200.0)
        )
        return cells
    if section == "fig9":
        return [
            SystemCell(system, pair, scenario, 0, 1200.0)
            for pair in _FIG9_PAIRS
            for system in _FIG9_SYSTEMS
            for scenario in _FIG9_SCENARIOS
        ]
    raise ValueError(f"unknown reference section {section!r}")


def _section_streams(section: str) -> list[tuple[str, int, float]]:
    """(scenario, seed, duration) triples whose raw streams a section pins."""
    if section == "smoke":
        return [("S4", 0, 300.0)]
    if section == "full":
        return [
            (scenario, seed, 1200.0)
            for scenario in _FULL_SCENARIOS
            for seed in _FULL_SEEDS
        ]
    return []


def compute_section(section: str, jobs: int = 1) -> dict[str, dict]:
    """Digests (and accuracies) for one section under the active policy."""
    cells = reference_cells(section)
    results = run_cells(cells, jobs=jobs)
    entries: dict[str, dict] = {}
    for cell, result in zip(cells, results):
        entries[_cell_key(cell)] = {
            "digest": run_digest(result),
            "accuracy": result.average_accuracy(),
        }
    for scenario, seed, duration_s in _section_streams(section):
        stream = build_scenario(scenario, duration_s=duration_s)
        entries[_stream_key(scenario, seed, duration_s)] = {
            "digest": stream_digest(stream.materialize(seed))
        }
    return entries


def reference_path(policy_name: str, root: Path | None = None) -> Path:
    """The checked-in digest file for one policy."""
    if root is None:
        root = Path(__file__).resolve().parents[2] / "tests" / "reference"
    return root / f"digests_{policy_name}.json"


def main(argv: list[str] | None = None) -> int:
    """Regenerate the active policy's digest file."""
    parser = argparse.ArgumentParser(
        prog="repro.reference",
        description="regenerate frozen reference digests",
    )
    parser.add_argument(
        "--sections", nargs="+", default=["smoke", "full", "fig9"],
        choices=["smoke", "full", "fig9"],
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    policy = active_policy()
    out = args.out or reference_path(policy.name)
    payload = {
        "version": REFERENCE_VERSION,
        "policy": policy.name,
        "digest_namespace": policy.digest_namespace,
    }
    for section in args.sections:
        payload[section] = compute_section(section, jobs=args.jobs)
        print(f"[{policy.name}] {section}: {len(payload[section])} entries")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
