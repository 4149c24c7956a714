"""Cross-camera sharing benchmark: realized reuse on a correlated fleet.

Runs the reference fleet (four cameras on one S4 intersection, the
``examples/fleet_shared.toml`` grid) twice -- once independently, once
through the cluster sharing path -- and emits
``benchmarks/results/BENCH_sharing.json`` with the realized label/retrain
cost of each path.  The claims asserted:

- **Sublinear cost**: the cluster's total label + retrain work is at
  least 1.5x cheaper than the sum of independent runs (three of four
  cameras ride the founder's labels and per-domain deltas).
- **Accuracy holds**: no camera loses more than one accuracy point to
  sharing (in practice later members *gain* -- they inherit the
  founder's learning instead of starting cold).
- **Bit-identity stays pinned**: both paths reproduce the frozen digests
  in ``tests/reference/digests_sharing.json`` (quick fleet only; the
  full fleet extends beyond the frozen grid).

Cost is counted in realized work units, not simulated schedule seconds
(the schedule is identical by design -- sharing skips the *compute*
inside committed phases): teacher-labeled samples plus retrain
sample-epochs actually run.  The independent leg runs each camera inside
its own singleton cluster runtime, which counts its work without
changing a single bit of its output -- the digest assertion doubles as
proof.

``REPRO_BENCH_QUICK=1`` (CI) keeps the frozen four-camera fleet; the
local default widens to eight cameras.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.exec.shard import SystemCell, cell_key, run_cell
from repro.numeric import active_policy
from repro.reference import run_digest
from repro.share.policy import resolve_sharing, use_sharing
from repro.share.reference import (
    run_shared_cells,
    sharing_reference_cells,
    sharing_reference_path,
)
from repro.share.runtime import ClusterRuntime

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"
RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_sharing.json"

#: Acceptance floor: shared label+retrain work must beat independent by this.
MIN_COST_RATIO = 1.5
#: No camera may lose more than one accuracy point to sharing.
MAX_ACCURACY_DROP = 0.01


def fleet_cells():
    if QUICK:
        return sharing_reference_cells()
    return [
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", s, 240.0)
        for s in range(8)
    ]


def run_independent_cells(cells, sharing):
    """Each camera in its own singleton cluster: full cost, zero reuse."""
    runtimes = {}
    results = []
    with use_sharing(sharing):
        for index, cell in enumerate(cells):
            runtime = ClusterRuntime(f"i{index}")
            runtimes[f"i{index}"] = runtime
            with runtime.activate(cell):
                results.append(run_cell(cell))
    return results, runtimes


def work_units(runtimes) -> dict[str, int]:
    labels = sum(r.counters["labels_computed"] for r in runtimes.values())
    retrain = sum(r.counters["retrain_samples"] for r in runtimes.values())
    return {
        "label_samples": labels,
        "retrain_sample_epochs": retrain,
        "cost": labels + retrain,
    }


def test_sharing_cost_and_accuracy():
    policy = active_policy().name
    sharing = resolve_sharing("cluster")
    cells = fleet_cells()

    start = time.perf_counter()
    ind_results, ind_runtimes = run_independent_cells(cells, sharing)
    ind_wall = time.perf_counter() - start
    start = time.perf_counter()
    shr_results, shr_runtimes = run_shared_cells(cells)
    shr_wall = time.perf_counter() - start

    ind_digests = {
        cell_key(policy, cell): run_digest(result)
        for cell, result in zip(cells, ind_results)
    }
    shr_digests = {
        cell_key(policy, cell): run_digest(result)
        for cell, result in zip(cells, shr_results)
    }
    if QUICK and policy == "float64":
        frozen = json.loads(sharing_reference_path().read_text())["digests"]
        # Digest match proves the singleton runtimes changed nothing.
        assert ind_digests == frozen["independent"]
        assert shr_digests == frozen["shared"]

    independent = work_units(ind_runtimes)
    shared = work_units(shr_runtimes)
    counters = {
        cid: dict(runtime.counters) for cid, runtime in shr_runtimes.items()
    }
    assert shared["cost"] > 0 and independent["cost"] > 0
    cost_ratio = independent["cost"] / shared["cost"]

    accuracy = {}
    for cell, ind, shr in zip(cells, ind_results, shr_results):
        key = cell_key(policy, cell)
        accuracy[key] = {
            "independent": ind.average_accuracy(),
            "shared": shr.average_accuracy(),
            "delta": shr.average_accuracy() - ind.average_accuracy(),
        }

    document = {
        "quick": QUICK,
        "policy": policy,
        "sharing": sharing.name,
        "fleet": {
            "cameras": len(cells),
            "scenario": "S4",
            "duration_s": cells[0].duration_s,
        },
        "independent": dict(independent, wall_s=ind_wall),
        "shared": dict(shared, wall_s=shr_wall),
        "cluster_counters": counters,
        "cost_ratio": cost_ratio,
        "accuracy": accuracy,
        "digests": {"independent": ind_digests, "shared": shr_digests},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    # The paper-level claims: sublinear fleet cost, accuracy preserved.
    assert cost_ratio >= MIN_COST_RATIO, (
        f"sharing saved only {cost_ratio:.2f}x "
        f"(independent {independent['cost']} vs shared {shared['cost']})"
    )
    for key, row in accuracy.items():
        assert row["delta"] >= -MAX_ACCURACY_DROP, (
            f"{key} lost {-row['delta']:.3f} accuracy to sharing"
        )
