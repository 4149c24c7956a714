"""Frozen digests for the cross-camera sharing contract, both paths.

The sharing feature carries a two-sided bit-identity contract:

- **Off-path**: with sharing disabled (the default), every cell of the
  reference fleet (``examples/fleet_shared.toml`` -- four cameras on one
  S4 intersection) produces byte-identical results to the independent
  executor; the ``"independent"`` section freezes those digests.
- **Shared path**: with ``--sharing cluster``, the cluster's execution is
  deterministic on any backend at any worker count (a cluster's cells
  are co-located on one shard and run sequentially through one runtime);
  the ``"shared"`` section freezes *those* digests, so reuse-path
  regressions are as loud as off-path ones.

``tests/reference/digests_sharing.json`` is the float64 freeze.
Regenerate only after an intentional numerics or sharing-rule change::

    PYTHONPATH=src python -m repro.share.reference \
        --out tests/reference/digests_sharing.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.runner import SystemCell
from repro.exec.shard import cell_key, run_cell
from repro.numeric import active_policy
from repro.reference import run_digest
from repro.share.cluster import cluster_cells
from repro.share.policy import use_sharing
from repro.share.runtime import ClusterRuntime

__all__ = [
    "sharing_reference_cells",
    "sharing_reference_digests",
    "sharing_reference_path",
]

#: The reference fleet's sharing policy name.
SHARING_REFERENCE_POLICY = "cluster"


def sharing_reference_cells():
    """The reference fleet: ``examples/fleet_shared.toml``'s four cameras."""
    return [
        SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", seed, 240.0
        )
        for seed in range(4)
    ]


def run_shared_cells(cells):
    """Execute ``cells`` through the sharing path on one in-process shard.

    Returns ``(results, runtimes)`` where ``runtimes`` maps cluster id to
    its :class:`~repro.share.runtime.ClusterRuntime` (counters and all) --
    what ``tests/share/test_sharing_exec.py`` counts realized reuse from.
    Deterministic: the executor routes a cluster's cells through exactly
    this sequential order on every backend.
    """
    assignment = cluster_cells(cells)
    runtimes: dict[str, ClusterRuntime] = {}
    results = []
    with use_sharing(SHARING_REFERENCE_POLICY):
        for cell in cells:
            cid = assignment.cluster_of(cell)
            runtime = runtimes.get(cid)
            if runtime is None:
                runtime = runtimes[cid] = ClusterRuntime(cid)
            with runtime.activate(cell):
                results.append(run_cell(cell))
    return results, runtimes


def sharing_reference_digests(cells=None) -> dict[str, dict[str, str]]:
    """``{"independent": {...}, "shared": {...}}`` digests, computed.

    Keys are cell keys under the ambient numeric policy; the independent
    section runs the default off-path, the shared section one co-located
    cluster shard under the ``cluster`` policy.
    """
    policy = active_policy().name
    if cells is None:
        cells = sharing_reference_cells()
    independent = {
        cell_key(policy, cell): run_digest(run_cell(cell)) for cell in cells
    }
    shared_results, _ = run_shared_cells(cells)
    shared = {
        cell_key(policy, cell): run_digest(result)
        for cell, result in zip(cells, shared_results)
    }
    return {"independent": independent, "shared": shared}


def sharing_reference_path(root: Path | None = None) -> Path:
    """The checked-in sharing digest file (float64 only)."""
    if root is None:
        root = Path(__file__).resolve().parents[3] / "tests" / "reference"
    return root / "digests_sharing.json"


def main(argv: list[str] | None = None) -> int:
    """Regenerate the frozen sharing digest file."""
    parser = argparse.ArgumentParser(
        prog="repro.share.reference",
        description="regenerate frozen cross-camera sharing digests",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    out = args.out or sharing_reference_path()
    payload = {
        "policy": active_policy().name,
        "sharing": SHARING_REFERENCE_POLICY,
        "digests": sharing_reference_digests(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {out} "
        f"({len(payload['digests']['independent'])} cells per section)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
