"""Batched multi-cell executor benchmark: the per-K speedup curve.

Runs a same-geometry fleet (K cameras on the ``resnet18_wrn50`` pair,
S4, seeds ``0..K-1``) through the serial per-cell path and, as one
batched shard, through ``execute_shard`` at each K, and emits
``benchmarks/results/BENCH_batched.json`` with, per K:

- **numpy dispatches**: kernel-level calls counted by
  :mod:`repro.learn.ops` -- the quantity batching exists to collapse
  (K stacked requests become one einsum/matmul dispatch);
- **wall seconds** for both paths, caches pre-warmed so neither leg
  pays materialization;
- **digest identity**: every per-cell digest equal between paths, at
  every K -- the speedup is claimed on bit-identical results or not
  at all.

The claims asserted at the largest K: at least ``MIN_DISPATCH_RATIO``
fewer numpy dispatches (deterministic -- counted, not timed), and at
least ``MIN_WALL_RATIO`` wall speedup (full mode only; the quick CI
fleet is too short to clear timing noise, so quick runs only record
wall and assert the dispatch ratio).

``REPRO_BENCH_QUICK=1`` (CI) runs K in {1, 2, 4} at 120 s; the local
default runs K in {1, 2, 4, 8} at 240 s.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.batching import ON
from repro.data.scenarios import build_scenario
from repro.exec.shard import (
    CellJob,
    PolicySet,
    ShardSpec,
    SystemCell,
    cell_key,
    execute_shard,
    run_cell,
    shard_key,
    warm_model_caches,
)
from repro.learn.ops import dispatch_count, reset_dispatch
from repro.numeric import active_policy
from repro.reference import run_digest

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"
RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_batched.json"

KS = (1, 2, 4) if QUICK else (1, 2, 4, 8)
DURATION_S = 120.0 if QUICK else 240.0

#: Acceptance floors, asserted at the largest K.
MIN_DISPATCH_RATIO = 2.0
MIN_WALL_RATIO = 1.5


def fleet(k: int) -> list[SystemCell]:
    return [
        SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", s, DURATION_S
        )
        for s in range(k)
    ]


def timed_serial(cells):
    reset_dispatch()
    start = time.perf_counter()
    results = [run_cell(cell) for cell in cells]
    wall = time.perf_counter() - start
    return results, wall, dispatch_count()


def timed_batched(cells):
    policy = active_policy()
    spec = ShardSpec(
        key=shard_key(policy.name, cells),
        jobs=tuple(CellJob(cell) for cell in cells),
        indices=tuple(range(len(cells))),
        policies=PolicySet(policy, batch=ON),
    )
    reset_dispatch()
    start = time.perf_counter()
    result = execute_shard(spec)
    wall = time.perf_counter() - start
    return list(result.results), wall, dispatch_count()


def test_batched_speedup_curve():
    policy = active_policy().name
    cells = fleet(max(KS))
    # Neither leg pays materialization: pretrain and stream caches are
    # warmed up front, exactly as a resident service holds them.
    warm_model_caches(cells)
    for cell in cells:
        build_scenario(cell.scenario, duration_s=cell.duration_s).materialize(
            cell.seed
        )

    curve = {}
    for k in KS:
        subset = cells[:k]
        serial_results, serial_wall, serial_calls = timed_serial(subset)
        batched_results, batched_wall, batched_calls = timed_batched(subset)
        digests = [run_digest(result) for result in serial_results]
        assert [run_digest(result) for result in batched_results] == (
            digests
        ), f"batched digests diverged at K={k}"
        curve[str(k)] = {
            "cells": [cell_key(policy, cell) for cell in subset],
            "serial": {"wall_s": serial_wall, "dispatches": serial_calls},
            "batched": {"wall_s": batched_wall, "dispatches": batched_calls},
            "dispatch_ratio": serial_calls / batched_calls,
            "wall_ratio": serial_wall / batched_wall,
            "digests": digests,
        }

    top = curve[str(max(KS))]
    document = {
        "quick": QUICK,
        "policy": policy,
        "duration_s": DURATION_S,
        "ks": list(KS),
        "floors": {
            "dispatch_ratio": MIN_DISPATCH_RATIO,
            "wall_ratio": None if QUICK else MIN_WALL_RATIO,
        },
        "curve": curve,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    assert curve["1"]["dispatch_ratio"] == 1.0  # K=1 is the serial path
    assert top["dispatch_ratio"] >= MIN_DISPATCH_RATIO, (
        f"batching collapsed only {top['dispatch_ratio']:.2f}x dispatches "
        f"at K={max(KS)} ({top['serial']['dispatches']} vs "
        f"{top['batched']['dispatches']})"
    )
    if not QUICK:
        assert top["wall_ratio"] >= MIN_WALL_RATIO, (
            f"batching sped wall only {top['wall_ratio']:.2f}x at "
            f"K={max(KS)}"
        )


if __name__ == "__main__":
    test_batched_speedup_curve()
    print(OUTPUT.read_text())
