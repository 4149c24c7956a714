"""Frozen per-window digests: the service's bit-identity contract.

The batch layers pin whole-run digests
(``tests/reference/digests_<policy>.json``); the resident service's unit
of durability is the *window*, so it pins per-window digests instead:
for every stream of the reference fleet (the three cameras of
``examples/fleet_service.toml``) and every window index, the sha256 of
the prefix run's :class:`~repro.core.results.RunResult`.  Because a
window's compute is a pure prefix run, these digests are independent of
backend, worker count, pacing, crashes, and restarts -- which is exactly
what the kill/restart harness and CI's service chaos leg assert: every
*fresh* window a daemon journals, under any fault schedule, must carry
the frozen digest for its (stream, index).

``tests/reference/digests_service.json`` is the float64 freeze.
Regenerate only after an intentional numerics change::

    PYTHONPATH=src python -m repro.service.reference \
        --out tests/reference/digests_service.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.runner import SystemCell
from repro.exec.shard import cell_key, run_cell
from repro.numeric import active_policy
from repro.reference import run_digest
from repro.service.pacing import window_count, window_span

__all__ = [
    "SERVICE_REFERENCE_WINDOW_S",
    "service_reference_cells",
    "service_reference_digests",
    "service_reference_path",
]

#: Window length the frozen service digests were generated with.
SERVICE_REFERENCE_WINDOW_S = 60.0


def service_reference_cells() -> list[SystemCell]:
    """The reference fleet: ``examples/fleet_service.toml``'s streams."""
    return [
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, 120.0),
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 120.0),
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 1, 120.0),
    ]


def service_reference_digests(
    cells=None, window_s: float = SERVICE_REFERENCE_WINDOW_S
) -> dict[str, str]:
    """``{"<stream key>|w<index>": digest}`` for every window, computed.

    Each entry is the digest of the window's prefix run -- the same value
    a healthy daemon journals for that window's ``fresh`` record.
    """
    policy = active_policy().name
    if cells is None:
        cells = service_reference_cells()
    entries: dict[str, str] = {}
    for cell in cells:
        key = cell_key(policy, cell)
        for index in range(window_count(cell.duration_s, window_s)):
            _, end = window_span(index, cell.duration_s, window_s)
            prefix = replace(cell, duration_s=float(end))
            entries[f"{key}|w{index}"] = run_digest(run_cell(prefix))
    return entries


def service_reference_path(root: Path | None = None) -> Path:
    """The checked-in service digest file (float64 only)."""
    if root is None:
        root = Path(__file__).resolve().parents[3] / "tests" / "reference"
    return root / "digests_service.json"


def main(argv: list[str] | None = None) -> int:
    """Regenerate the frozen service digest file."""
    parser = argparse.ArgumentParser(
        prog="repro.service.reference",
        description="regenerate frozen per-window service digests",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    policy = active_policy()
    out = args.out or service_reference_path()
    payload = {
        "policy": policy.name,
        "window_s": SERVICE_REFERENCE_WINDOW_S,
        "windows": service_reference_digests(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(payload['windows'])} windows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
