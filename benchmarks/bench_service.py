"""Fleet-service benchmark: what resident, crash-safe serving costs.

The service recomputes each stream as a growing prefix (window ``i``
reruns stream-seconds ``[0, end_i)``), which is what buys bit-exact
crash recovery with a stateless compute layer.  This benchmark prices
that choice against the batch sweep baseline on the same grid:

- ``batch_s``: one ``run_cells`` pass over the full-duration cells.
- ``service_s``: an eager ``FleetService`` session over the same cells,
  windowed -- every stream computed window by window, journal fsyncs
  included.

It asserts the contract that makes the price worth paying: each
stream's *final* window digest is bit-identical to the batch result, so
a served session ends at exactly the sweep's numbers.  A second section
runs one oversubscribed paced stream and records what the degradation
ladder sheds, pricing graceful degradation rather than asserting
timing (CI runners are too noisy for deadline guarantees).

A third section prices the incremental windows the service serves:
per-window wall time of chained snapshot-resumed runs (``run_job``)
against the growing prefix runs, asserting the incremental curve stays
flat (O(window) per window) while the prefix curve grows with the window
index -- and that every per-window digest matches, since the speedup is
only admissible at bit-identity.

``REPRO_BENCH_QUICK=1`` (CI) shrinks the grid; emits
``benchmarks/results/BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

from repro.exec import SystemCell, run_cells
from repro.exec.shard import CellJob, cell_key, run_cell, run_job
from repro.reference import run_digest
from repro.service import FleetService, ServiceConfig
from repro.service.pacing import window_count
from repro.service.session import session_path

RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_service.json"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

WINDOW_S = 30.0


def bench_grid() -> list[SystemCell]:
    duration = 60.0 if QUICK else 120.0
    scenarios = ("S1",) if QUICK else ("S1", "S4")
    return [
        SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", scenario, 0, duration
        )
        for scenario in scenarios
    ]


def window_records(out: Path) -> dict[tuple[str, int], dict]:
    records = {}
    for line in session_path(out).read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "window":
            records[(record["stream"], record["index"])] = record
    return records


def test_service_overhead_and_final_window_identity(tmp_path):
    cells = bench_grid()
    windows_per_stream = window_count(cells[0].duration_s, WINDOW_S)

    start = time.perf_counter()
    batch = run_cells(cells, jobs=1)
    batch_s = time.perf_counter() - start
    batch_digests = {
        cell_key("float64", cell): run_digest(result)
        for cell, result in zip(cells, batch)
    }

    out = tmp_path / "service"
    start = time.perf_counter()
    code = FleetService(
        ServiceConfig(out_dir=out, window_s=WINDOW_S), cells
    ).run()
    service_s = time.perf_counter() - start
    assert code == 0

    records = window_records(out)
    assert len(records) == len(cells) * windows_per_stream
    # The contract: a served stream's final window is bit-identical to
    # the batch sweep's full-cell result.
    for key, digest in batch_digests.items():
        final = records[(key, windows_per_stream - 1)]
        assert final["mode"] == "fresh"
        assert final["digest"] == digest

    total_windows = len(records)
    overhead = service_s - batch_s
    # Sanity bound, not a perf target: prefix recompute over W windows
    # costs at most ~W/2 x the batch pass plus journal/loop slack.
    assert service_s < batch_s * (windows_per_stream + 1) + 60.0

    oversub = tmp_path / "oversub"
    cell = bench_grid()[0]
    start = time.perf_counter()
    code = FleetService(
        ServiceConfig(
            out_dir=oversub, window_s=WINDOW_S, speedup=100000.0
        ),
        [cell],
    ).run()
    oversub_s = time.perf_counter() - start
    assert code == 0
    state = json.loads((oversub / "state.json").read_text())
    stream = next(iter(state["streams"].values()))
    # The ladder must have engaged (windows arrive ~0.3 ms apart) and
    # the daemon still retired the stream cleanly.
    assert stream["retired"]
    assert stream["misses"] > 0

    _merge_output({
        "quick": QUICK,
        "streams": len(cells),
        "window_s": WINDOW_S,
        "windows_per_stream": windows_per_stream,
        "batch_s": batch_s,
        "service_s": service_s,
        "service_overhead_s": overhead,
        "service_overhead_per_window_s": overhead / total_windows,
        "oversubscribed": {
            "wall_s": oversub_s,
            "misses": stream["misses"],
            "dropped_frames": stream["dropped_frames"],
            "drop_rate": stream["drop_rate"],
            "final_level": stream["level"],
        },
    })


def test_incremental_vs_prefix_window_curve():
    # Segment-aligned 60 s windows on an 8-window stream: the shape the
    # incremental service dispatches.  Prefix cost grows with the window
    # index (window i re-simulates [0, end_i)); incremental cost is one
    # window's worth of stream regardless of i.
    n_windows = 8
    window_s = 60.0
    cell = SystemCell(
        "DaCapo-Ekya", "resnet18_wrn50", "S1", 0, n_windows * window_s
    )
    run_cell(replace(cell, duration_s=window_s))  # warm the model caches

    prefix_times: list[float] = []
    incremental_times: list[float] = []
    snapshot = None
    for i in range(n_windows):
        end = window_s * (i + 1)
        start = time.perf_counter()
        prefix_result = run_cell(replace(cell, duration_s=end))
        prefix_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        outcome = run_job(
            CellJob(
                replace(cell, duration_s=end),
                snapshot=snapshot,
                emit_snapshot=True,
            )
        )
        incremental_result, snapshot = outcome.result, outcome.snapshot
        incremental_times.append(time.perf_counter() - start)
        # The speedup is only admissible at bit-identity.
        assert run_digest(incremental_result) == run_digest(prefix_result), i

    prefix_total = sum(prefix_times)
    incremental_total = sum(incremental_times)
    speedup = prefix_total / incremental_total
    # O(W) vs O(W^2): at 8 windows the prefix sum is 4.5x the stream, so
    # even with fixed per-window setup the ratio clears 2x comfortably.
    assert speedup >= 2.0, (prefix_times, incremental_times)
    # Flatness (lenient -- CI wall clocks are noisy): every steady-state
    # incremental window stays below the final, largest prefix window.
    assert max(incremental_times[1:]) < prefix_times[-1], (
        prefix_times, incremental_times,
    )

    _merge_output({
        "incremental": {
            "windows": n_windows,
            "window_s": window_s,
            "prefix_window_s": prefix_times,
            "incremental_window_s": incremental_times,
            "prefix_total_s": prefix_total,
            "incremental_total_s": incremental_total,
            "speedup": speedup,
        },
    })


def _merge_output(section: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if OUTPUT.exists():
        data = json.loads(OUTPUT.read_text())
    data.update(section)
    OUTPUT.write_text(json.dumps(data, indent=2) + "\n")
