"""Hot-path performance benchmark: the PR-over-PR perf trajectory tracker.

Times the layers the perf work targets -- the MX quantization kernel, the
SGD training loop, the accelerator timing queries, stream materialization
(naive vs vectorized vs memmap-open), a shared-stream grid slice vs the
per-cell-materialization baseline, an end-to-end short Figure 9 cell with
its phase-level breakdown, the parallel runner's scaling, and the
float64/float32 numeric-policy A/B (stream bytes, training throughput,
end-to-end cell, subprocess peak RSS) -- and writes everything to
``benchmarks/results/BENCH_perf_hotpaths.json`` (suffixed with the policy
name when run under ``REPRO_DTYPE=float32``) so future PRs can diff
absolute numbers.

``seed_reference`` holds wall times measured on the unoptimized seed tree
(commit 8ebcf26) on the reference machine; the end-to-end assertions
compare against it.  Re-measure and update it if the substrate changes
machines.

``REPRO_BENCH_QUICK=1`` shrinks repeats and the parallel grids for CI
smoke runs (same JSON schema, noisier numbers).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_hotpaths.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro.learn.student as student_mod
import repro.learn.teacher as teacher_mod
from repro import profiling
from repro.numeric import active_policy, use_policy
from repro.accelerator import (
    AcceleratorSimulator,
    SystolicArray,
    clear_timing_caches,
)
from repro.core import (
    SystemCell,
    build_system,
    run_on_scenario,
    warm_model_caches,
)
from repro.data import build_scenario, caching_disabled, get_store
from repro.data.stream import FrameWindow
from repro.exec import default_jobs, run_cells
from repro.learn import MLPClassifier
from repro.learn.train import TrainConfig, train_sgd
from repro.models.zoo import get_model
from repro.mx import MX6, MX9, quantize

RESULTS_DIR = Path(__file__).parent / "results"


def _output_path() -> Path:
    """Per-policy JSON so the float32 CI leg never clobbers the default."""
    policy = active_policy()
    suffix = "" if policy.name == "float64" else f"_{policy.name}"
    return RESULTS_DIR / f"BENCH_perf_hotpaths{suffix}.json"


OUTPUT = _output_path()

#: CI smoke mode: fewer repeats, smaller grids, same JSON schema.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

#: Wall times of the same workloads on the seed tree (single core).
SEED_REFERENCE = {
    "fig9_cell_s": 3.15,  # build_system + 1200 s DaCapo-Spatiotemporal/S4
    "fig9_cell_run_s": 1.36,  # the run_on_scenario part alone
}

#: The short end-to-end cell every measurement uses.
CELL = dict(
    system="DaCapo-Spatiotemporal",
    pair="resnet18_wrn50",
    scenario="S4",
    duration_s=1200.0,
)

PARALLEL_GRID_SYSTEMS = (
    "OrinLow-Ekya",
    "OrinHigh-Ekya",
    "OrinHigh-EOMU",
    "DaCapo-Ekya",
    "DaCapo-Spatial",
    "DaCapo-Spatiotemporal",
)
# Two scenarios even in quick mode: with one stream signature the sharded
# runner's jobs=2 split is forced to divide a single scenario's systems,
# whereas two signatures split into identically composed (balanced) shards.
PARALLEL_GRID_SCENARIOS = ("S1", "S4")
PARALLEL_GRID_SEEDS = (0,) if QUICK else (0, 1)
PARALLEL_JOBS = (1, 2) if QUICK else (1, 2, 4)


def _best_of(fn, repeats=5):
    """Best wall time of ``repeats`` runs (least noisy for short kernels)."""
    if QUICK:
        repeats = min(repeats, 2)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _clear_process_caches():
    """Reset every in-process memo so a cell pays its full cold cost."""
    student_mod._pretrained_mlp.cache_clear()
    teacher_mod._pretrained_mlp.cache_clear()
    clear_timing_caches()
    get_store().clear()


def bench_quantize() -> dict:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 1024))
    w = rng.normal(size=(1024, 256))
    t_act = _best_of(lambda: quantize(x, MX6))
    t_w = _best_of(lambda: quantize(w, MX9, axis=0))
    return {
        "activations_mx6_ns_per_elem": t_act / x.size * 1e9,
        "weights_axis0_mx9_ns_per_elem": t_w / w.size * 1e9,
    }


def bench_train_sgd() -> dict:
    rng = np.random.default_rng(1)
    x = rng.normal(size=(512, 64))
    y = rng.integers(0, 10, 512)
    config = TrainConfig(batch_size=16, epochs=3, fmt=MX9)

    def run():
        mlp = MLPClassifier.create(64, (32,), 10, np.random.default_rng(2))
        train_sgd(mlp, x, y, config, np.random.default_rng(3))

    wall = _best_of(run, repeats=3)
    return {
        "mx9_samples_per_s": config.epochs * len(x) / wall,
        "wall_s": wall,
    }


def bench_forward_timing() -> dict:
    sim = AcceleratorSimulator()
    sub = SystolicArray().full()
    model = get_model("resnet18")

    clear_timing_caches()
    t0 = time.perf_counter()
    sim.forward_timing(model, MX6, sub, 1)
    cold = time.perf_counter() - t0
    warm = _best_of(lambda: sim.forward_timing(model, MX6, sub, 1), repeats=20)
    return {"cold_s": cold, "warm_s": warm}


def _naive_materialize(stream, seed: int) -> FrameWindow:
    """The seed tree's generator: per-segment lists + a final concatenate."""
    model = stream.model
    features, labels, times = [], [], []
    start = 0.0
    for index, segment in enumerate(stream.segments):
        count = int(round(segment.duration_s * stream.fps))
        rng = np.random.default_rng((seed, index))
        priors = model.class_priors(segment.domain)
        y = rng.choice(model.num_classes, size=count, p=priors)
        noise = rng.normal(
            scale=model.sigma(segment.domain),
            size=(count, model.feature_dim),
        )
        x = model.class_means(segment.domain)[y] + noise
        t = start + np.arange(count) / stream.fps
        features.append(x)
        labels.append(y)
        times.append(t)
        start += segment.duration_s
    return FrameWindow(
        np.concatenate(features),
        np.concatenate(labels),
        np.concatenate(times),
    )


def bench_materialize() -> dict:
    """Single-stream generation: naive vs vectorized vs memmap reopen."""
    stream = build_scenario(CELL["scenario"], duration_s=CELL["duration_s"])
    seed = 0

    naive = _naive_materialize(stream, seed)
    vectorized = stream.generate(seed)
    # The naive reference generator always draws float64; under float32
    # the vectorized stream is those same draws rounded once, so the
    # comparison is exact at float64 and approximate (post-cast allclose)
    # at float32 -- the JSON records which mode was used so "matched"
    # never overstates what was checked.
    if vectorized.features.dtype == np.float64:
        comparison = "exact"
        features_match = np.array_equal(naive.features, vectorized.features)
    else:
        comparison = "allclose_1e-5_vs_float64_cast"
        features_match = np.allclose(
            vectorized.features,
            naive.features.astype(vectorized.features.dtype),
            rtol=1e-5, atol=1e-5,
        )
    matches_reference = (
        features_match
        and np.array_equal(naive.labels, vectorized.labels)
        and np.array_equal(naive.times, vectorized.times)
    )

    t_naive = _best_of(lambda: _naive_materialize(stream, seed))
    t_vectorized = _best_of(lambda: stream.generate(seed))

    # Warm memmap open from the disk tier (a fresh process's cost).
    stream.materialize(seed)

    def reopen():
        get_store().clear()
        return stream.materialize(seed)

    t_memmap_open = _best_of(reopen)
    is_memmap = isinstance(reopen().features, np.memmap)

    return {
        "frames": stream.num_frames,
        "naive_ms": t_naive * 1e3,
        "vectorized_ms": t_vectorized * 1e3,
        "memmap_open_ms": t_memmap_open * 1e3,
        "vectorized_speedup": t_naive / t_vectorized,
        "memmap_backed": is_memmap,
        "reference_match": matches_reference,
        "reference_comparison": comparison,
    }


def bench_shared_grid() -> dict:
    """A fig9 grid slice: shared-stream substrate vs per-cell baseline.

    The baseline regenerates the stream for every cell (the pre-substrate
    behavior, forced via ``caching_disabled``); the shared runs hit the
    artifact store, serially and -- when the machine has the cores -- on the
    sharded parallel runner.
    """
    cells = [
        SystemCell(system, CELL["pair"], scenario, 0, CELL["duration_s"])
        for scenario in PARALLEL_GRID_SCENARIOS
        for system in PARALLEL_GRID_SYSTEMS
    ]
    warm_model_caches(cells)
    cores = default_jobs()

    def timed(fn):
        best, outputs = float("inf"), None
        for _ in range(1 if QUICK else 2):
            t0 = time.perf_counter()
            outputs = fn()
            best = min(best, time.perf_counter() - t0)
        return best, outputs

    def baseline():
        with caching_disabled():
            return run_cells(cells, jobs=1)

    t_baseline, baseline_results = timed(baseline)

    get_store().clear()
    t_shared, shared_results = timed(lambda: run_cells(cells, jobs=1))

    # Sharing must not change a single bit of any cell's outcome.
    for a, b in zip(baseline_results, shared_results):
        assert np.array_equal(a.correct, b.correct), (a.system, a.scenario)
        assert np.array_equal(a.dropped, b.dropped), (a.system, a.scenario)
        assert a.phases == b.phases, (a.system, a.scenario)

    report = {
        "grid_cells": len(cells),
        "cores": cores,
        "per_cell_baseline_s": t_baseline,
        "shared_serial_s": t_shared,
        "serial_shared_speedup": t_baseline / t_shared,
    }
    if cores >= 2:
        jobs = min(4, cores)
        t_sharded, _ = timed(lambda: run_cells(cells, jobs=jobs))
        report["parallel_jobs"] = jobs
        report["shared_parallel_s"] = t_sharded
        report["parallel_speedup_vs_percell_serial"] = t_baseline / t_sharded
    return report


def bench_fig9_cell() -> dict:
    def cell():
        system = build_system(CELL["system"], CELL["pair"], seed=0)
        return run_on_scenario(
            system, CELL["scenario"], seed=0, duration_s=CELL["duration_s"]
        )

    # Populate the on-disk caches (pretrained models + stream), then drop
    # every in-process memo: "cold" is what a fresh worker process pays per
    # cell on a machine that has run any sweep before.
    cell()
    _clear_process_caches()
    t0 = time.perf_counter()
    cell()
    cold = time.perf_counter() - t0

    # Steady state: pretrained models and the stream memoized in-process
    # (as within any sweep), with the phase-level profile attached.
    profiler = profiling.enable()
    t0 = time.perf_counter()
    result = cell()
    warm = time.perf_counter() - t0
    profiling.disable()
    breakdown = profiler.snapshot()

    return {
        "cold_s": cold,
        "warm_s": warm,
        "accuracy": result.average_accuracy(),
        "speedup_vs_seed_cold": SEED_REFERENCE["fig9_cell_s"] / cold,
        "speedup_vs_seed_warm_run": SEED_REFERENCE["fig9_cell_run_s"] / warm,
        "phase_breakdown": breakdown,
        "profiled_share_of_warm": (
            sum(entry["total_s"] for entry in breakdown.values()) / warm
        ),
    }


#: Workload the RSS probe runs in a subprocess (its own address space, so
#: the accounting is per-policy).  Disk caching is off so the streams stay
#: resident instead of memmap-backed.  The probe reports the VmRSS *delta*
#: around materializing a multi-camera set of streams, after a warmed
#: baseline (imports, system build, a short run): the windows are large
#: anonymous mmaps, so the delta attributes cleanly, whereas absolute
#: peak RSS also counts file-backed library pages whose residency swings
#: with the machine's page-cache state (measured: identical peaks for
#: both policies on a warm page cache).
_RSS_PROBE = """
import gc, os
from repro.core import build_system, run_on_scenario
from repro.data import build_scenario

def rss_kib():
    pages = int(open("/proc/self/statm").read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024

system = build_system("DaCapo-Spatiotemporal", "resnet18_wrn50", seed=0)
run_on_scenario(system, build_scenario("S4", duration_s=60.0), seed=0)
gc.collect()
baseline_kib = rss_kib()

streams = [
    build_scenario(name, duration_s={duration}) for name in ("S1", "S4")
]
windows = [stream.materialize(seed) for stream in streams for seed in (0, 1)]
gc.collect()
print(rss_kib() - baseline_kib)
"""


def _probe_stream_rss_growth(policy_name: str, duration_s: float) -> int:
    """Resident-set growth (KiB) of live streams under one policy."""
    env = dict(os.environ)
    env["REPRO_DTYPE"] = policy_name
    env["REPRO_CACHE_DIR"] = ""  # keep streams in RAM, not memmaps
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE.format(duration=duration_s)],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(out.stdout.strip())


def bench_dtype_ab() -> dict:
    """The float64/float32 A/B: bandwidth and throughput, measured.

    Per policy: raw stream generation (wall + resident bytes), the MX9
    training loop, a warm end-to-end Figure 9 cell, and the subprocess
    peak-RSS probe.  This is what turns the "float32 halves traffic"
    claim from an assertion into a recorded measurement.
    """
    duration_s = 300.0 if QUICK else CELL["duration_s"]
    # A wider proxy than the tiny default so the GEMMs (where float32's
    # SIMD advantage lives) dominate the Python batch loop.
    rng = np.random.default_rng(1)
    x64 = rng.normal(size=(1024, 256))
    y = rng.integers(0, 10, 1024)
    train_config = TrainConfig(batch_size=64, epochs=2, fmt=MX9)

    report: dict = {}
    for policy_name in ("float64", "float32"):
        with use_policy(policy_name):
            stream = build_scenario(CELL["scenario"], duration_s=duration_s)
            window = stream.generate(0)
            stream_bytes = (
                window.features.nbytes
                + window.labels.nbytes
                + window.times.nbytes
            )
            t_generate = _best_of(lambda: stream.generate(0))

            x = x64.astype(window.features.dtype)

            def run_train():
                mlp = MLPClassifier.create(
                    256, (128,), 10, np.random.default_rng(2)
                )
                train_sgd(mlp, x, y, train_config, np.random.default_rng(3))

            t_train = _best_of(run_train, repeats=3)

            _clear_process_caches()

            def cell():
                system = build_system(CELL["system"], CELL["pair"], seed=0)
                return run_on_scenario(
                    system, CELL["scenario"], seed=0, duration_s=duration_s
                )

            cell()  # warm the per-policy caches
            t_cell = _best_of(cell, repeats=2)

            report[policy_name] = {
                "stream_bytes": stream_bytes,
                "generate_ms": t_generate * 1e3,
                "train_sgd_samples_per_s": (
                    train_config.epochs * len(x) / t_train
                ),
                "fig9_cell_warm_s": t_cell,
                "stream_rss_growth_kib": _probe_stream_rss_growth(
                    policy_name, duration_s
                ),
            }

    f64, f32 = report["float64"], report["float32"]
    report["float32_vs_float64"] = {
        "stream_bytes_ratio": f64["stream_bytes"] / f32["stream_bytes"],
        "generate_speedup": f64["generate_ms"] / f32["generate_ms"],
        "train_step_speedup": (
            f32["train_sgd_samples_per_s"] / f64["train_sgd_samples_per_s"]
        ),
        "fig9_cell_speedup": (
            f64["fig9_cell_warm_s"] / f32["fig9_cell_warm_s"]
        ),
        "peak_rss_reduction_kib": (
            f64["stream_rss_growth_kib"] - f32["stream_rss_growth_kib"]
        ),
    }
    return report


def bench_parallel_scaling() -> dict:
    # Full-length (1200 s) streams: short cells would be dominated by pool
    # startup rather than simulation work.  Several seeds per (system,
    # scenario) pair keep all workers busy past the skew between the
    # millisecond GPU cells and the ~0.5 s DaCapo cells.
    cells = [
        SystemCell(system, CELL["pair"], scenario, seed, 1200.0)
        for system in PARALLEL_GRID_SYSTEMS
        for scenario in PARALLEL_GRID_SCENARIOS
        for seed in PARALLEL_GRID_SEEDS
    ]
    warm_model_caches(cells)
    walls = {}
    for jobs in PARALLEL_JOBS:
        t0 = time.perf_counter()
        run_cells(cells, jobs=jobs)
        walls[jobs] = time.perf_counter() - t0
    report = {
        "grid_cells": len(cells),
        "cores": default_jobs(),
        "wall_s_by_jobs": {str(j): w for j, w in walls.items()},
    }
    for jobs in PARALLEL_JOBS[1:]:
        report[f"speedup_{jobs}"] = walls[1] / walls[jobs]
    return report


def test_perf_hotpaths():
    report = {
        "quick_mode": QUICK,
        "numeric_policy": active_policy().name,
        "seed_reference": SEED_REFERENCE,
        "quantize": bench_quantize(),
        "train_sgd": bench_train_sgd(),
        "forward_timing": bench_forward_timing(),
        "materialize": bench_materialize(),
        "shared_grid": bench_shared_grid(),
        "fig9_cell": bench_fig9_cell(),
        "parallel": bench_parallel_scaling(),
        "dtype_ab": bench_dtype_ab(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    # Invariants asserted in every mode: the phase breakdown is present and
    # non-overlapping (sums under wall), the memoized timing layer answers
    # repeat queries faster than cold, and the vectorized generator plus
    # the memmap tier match the naive reference -- bit-exactly at float64,
    # allclose-after-cast at float32, as recorded in reference_comparison
    # (sharing bit-identity is asserted inside bench_shared_grid itself).
    assert report["fig9_cell"]["phase_breakdown"], report
    assert report["fig9_cell"]["profiled_share_of_warm"] <= 1.0, report
    assert (
        report["forward_timing"]["warm_s"]
        < report["forward_timing"]["cold_s"]
    ), report
    materialize = report["materialize"]
    assert materialize["reference_match"], materialize
    assert materialize["memmap_backed"], materialize

    # The dtype A/B must show the structural bandwidth win in every mode:
    # a float32 stream carries close to half the bytes (features halve;
    # int64 labels and float64 timestamps are policy-invariant).
    ab = report["dtype_ab"]["float32_vs_float64"]
    assert ab["stream_bytes_ratio"] > 1.7, report["dtype_ab"]

    if QUICK:
        # CI smoke on shared runners: record the trajectory, skip the
        # wall-clock floors -- 1-2 repeats under noisy neighbors would
        # make unrelated PRs flake.
        return

    # Acceptance: the end-to-end cell is >= 3x the seed on a single core.
    assert report["fig9_cell"]["speedup_vs_seed_cold"] >= 3.0, report
    # The vectorized generator is measurably faster, and the memmap reopen
    # beats regeneration outright.
    assert materialize["vectorized_speedup"] > 1.05, materialize
    assert materialize["memmap_open_ms"] < materialize["vectorized_ms"], (
        materialize
    )
    # The shared-stream grid beats the per-cell-materialization baseline.
    # With >= 3 usable workers the combined sharding + sharing win clears
    # 2x outright; with exactly 2, pool startup on a ~2 s grid caps the
    # theoretical 2.1x, so only a conservative bound is assertable; on a
    # single-core machine only the serial sharing win is measurable.
    shared = report["shared_grid"]
    assert shared["serial_shared_speedup"] > 1.0, shared
    if shared["cores"] >= 2:
        floor = 2.0 if shared["parallel_jobs"] >= 3 else 1.4
        assert shared["parallel_speedup_vs_percell_serial"] >= floor, shared
    # The float32 fast path must out-run float64 where the arithmetic
    # dominates (the MX9 training loop) and shrink the peak footprint of
    # the stream-heavy probe; the end-to-end cell must at least not
    # regress (it amortizes policy-invariant work like RNG and teacher
    # labeling bookkeeping).
    assert ab["train_step_speedup"] > 1.05, report["dtype_ab"]
    assert ab["peak_rss_reduction_kib"] > 0, report["dtype_ab"]
    # The end-to-end cell mixes dtype-sensitive GEMMs with policy-
    # invariant overhead (RNG, scheduling, window bookkeeping), so on a
    # noisy single-core box only a no-regression floor is assertable;
    # the measured ratio is recorded above for the trajectory.
    assert ab["fig9_cell_speedup"] > 0.8, report["dtype_ab"]

    # The parallel runner scales near-linearly in the cores it can use.
    # Wall-clock gains need physical cores: on a single-CPU machine only
    # the pool overhead is checkable (the serial==parallel equivalence is
    # covered by tests/core/test_parallel.py on any machine).
    parallel = report["parallel"]
    for jobs in PARALLEL_JOBS[1:]:
        usable = min(jobs, parallel["cores"])
        if usable > 1:
            assert parallel[f"speedup_{jobs}"] > 0.6 * usable, report
        else:
            assert parallel[f"speedup_{jobs}"] > 0.65, report


if __name__ == "__main__":
    test_perf_hotpaths()
    print(OUTPUT.read_text())
