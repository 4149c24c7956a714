"""Dispatch-overhead benchmark: what each execution backend costs.

Runs one small fixed grid through every backend -- serial (the floor),
the process pool, the subprocess workers speaking the JSON-lines
protocol, and the pull-model file-system queue -- asserting the results
are bit-identical everywhere, and emits
``benchmarks/results/BENCH_dispatch.json`` with per-backend wall time and
the overhead each transport adds over serial (absolute and per shard).

A second section prices *fault recovery*: the same grid re-run under
armed fault plans (a worker death on every multi-process backend, a hang
caught by the subprocess watchdog, a hang caught by queue lease expiry),
recording the wall-time premium each recovery path costs over that
backend's clean run -- with the recovered results still bit-identical.

On CI's single/dual-core runners the multi-process backends are *slower*
than serial on a grid this small (spawn + pretrain-cache misses dominate);
the benchmark therefore asserts identity and bounded-sanity, and records
the overhead trajectory rather than enforcing a speedup.

``REPRO_BENCH_QUICK=1`` (CI) shrinks the grid; locally the default grid
gives steadier numbers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.exec import SystemCell, faults, plan_shards, run_cells
from repro.reference import run_digest

RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_dispatch.json"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

#: (backend label, run_cells kwargs) per transport; two workers keeps the
#: comparison honest on CI's small runners.
BACKENDS = (
    ("serial", {"jobs": 1}),
    ("process:2", {"jobs": 2, "backend": "process:2"}),
    ("subprocess:2", {"jobs": 2, "backend": "subprocess:2"}),
    ("queue:2", {"jobs": 2, "backend": "queue:2"}),
)

#: Per-backend fault scenarios for the recovery section: the fault kind
#: to arm and the env knobs that make its recovery path fast enough to
#: benchmark (short watchdog deadline / lease TTL instead of the
#: production defaults).
FAULT_SCENARIOS = (
    ("process:2", "worker_death", "die-once", {}),
    ("subprocess:2", "worker_death", "die-once", {}),
    ("subprocess:2", "watchdog_hang", "hang", {"REPRO_SHARD_TIMEOUT": "3"}),
    ("queue:2", "worker_death", "die-once", {}),
    ("queue:2", "lease_expiry_hang", "hang", {"REPRO_LEASE_TTL": "2"}),
)


def bench_grid() -> list[SystemCell]:
    duration = 60.0 if QUICK else 120.0
    systems = ("OrinHigh-Ekya", "DaCapo-Spatiotemporal")
    scenarios = ("S1",) if QUICK else ("S1", "S4")
    return [
        SystemCell(system, "resnet18_wrn50", scenario, 0, duration)
        for scenario in scenarios
        for system in systems
    ]


def test_dispatch_overhead():
    cells = bench_grid()
    num_shards = len(plan_shards(cells, 2))

    measurements: dict[str, dict] = {}
    digests: dict[str, list[str]] = {}
    for label, kwargs in BACKENDS:
        start = time.perf_counter()
        results = run_cells(cells, **kwargs)
        wall_s = time.perf_counter() - start
        measurements[label] = {"wall_s": wall_s}
        digests[label] = [run_digest(result) for result in results]

    # The contract that makes backends *pluggable*: identical bits
    # everywhere, so transport choice is purely an operational decision.
    assert digests["process:2"] == digests["serial"]
    assert digests["subprocess:2"] == digests["serial"]
    assert digests["queue:2"] == digests["serial"]

    serial_s = measurements["serial"]["wall_s"]
    for label, entry in measurements.items():
        overhead = entry["wall_s"] - serial_s
        entry["overhead_vs_serial_s"] = overhead
        entry["overhead_per_shard_s"] = overhead / num_shards
        # Sanity bound, not a perf target: dispatch must never cost an
        # order of magnitude over doing the work (spawn + warm caches
        # are seconds, the grid is tens of seconds).
        assert entry["wall_s"] < serial_s * 10 + 60.0

    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps({
        "quick": QUICK,
        "cells": len(cells),
        "shards": num_shards,
        "backends": measurements,
    }, indent=2) + "\n")


def test_fault_recovery_overhead(tmp_path, monkeypatch):
    """Price each recovery path against its backend's clean run.

    Every scenario arms a one-firing fault plan, reruns the grid, and
    records the wall-time premium the recovery cost -- a retried shard
    after a worker death, a watchdog kill after a hang, a lease-expiry
    reclaim after a hang.  Recovered results must stay bit-identical to
    serial: fault tolerance is free of numeric consequences by design.
    """
    cells = bench_grid()
    serial = [run_digest(r) for r in run_cells(cells, jobs=1)]

    recovery: dict[str, dict] = {}
    monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
    for backend in dict.fromkeys(s[0] for s in FAULT_SCENARIOS):
        start = time.perf_counter()
        results = run_cells(cells, jobs=2, backend=backend)
        recovery[backend] = {"clean_s": time.perf_counter() - start}
        assert [run_digest(r) for r in results] == serial

    for backend, label, kind, env in FAULT_SCENARIOS:
        plan = faults.save_plan(
            faults.FaultPlan((faults.FaultEntry(kind),), seed=9),
            tmp_path / f"{backend.replace(':', '-')}-{label}.json",
        )
        with monkeypatch.context() as patch:
            patch.setenv(faults.FAULT_PLAN_ENV, str(plan))
            for name, value in env.items():
                patch.setenv(name, value)
            start = time.perf_counter()
            results = run_cells(cells, jobs=2, backend=backend)
            wall_s = time.perf_counter() - start
        assert [run_digest(r) for r in results] == serial
        assert not list(faults.tokens_dir(plan).iterdir())  # it fired
        entry = recovery[backend]
        entry[f"{label}_s"] = wall_s
        entry[f"{label}_overhead_s"] = wall_s - entry["clean_s"]

    RESULTS_DIR.mkdir(exist_ok=True)
    document = (
        json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {"quick": QUICK}
    )
    document["fault_recovery"] = recovery
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n")
