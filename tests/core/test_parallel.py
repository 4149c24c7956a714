"""Tests for the parallel experiment runner (determinism and equivalence)."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

import repro.exec.run
from repro.core import SystemCell, warm_model_caches
from repro.errors import ConfigurationError
from repro.exec import (
    JOBS_ENV,
    default_jobs,
    parallel_map,
    plan_shards,
    run_cells,
)
from repro.exec import run_cell as _run_cell
from repro.exec.backends import usable_cpus
from repro.learn.cache import CACHE_ENV
from repro.share.policy import CLUSTER, active_sharing, use_sharing

DURATION = 60.0


@pytest.fixture(autouse=True)
def isolated_disk_cache(tmp_path, monkeypatch):
    """Keep worker processes' pretrain cache inside the test sandbox."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))


def assert_results_identical(a, b):
    assert a.system == b.system and a.scenario == b.scenario
    np.testing.assert_array_equal(a.correct, b.correct)
    np.testing.assert_array_equal(a.dropped, b.dropped)
    assert a.phases == b.phases
    assert a.duration_s == b.duration_s


class TestRunCells:
    def test_parallel_matches_serial(self):
        cells = [
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, DURATION),
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 0, DURATION),
            SystemCell("OrinHigh-EOMU", "resnet18_wrn50", "S1", 0, DURATION),
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert len(serial) == len(parallel) == len(cells)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_same_seed_is_deterministic_through_the_pool(self):
        # The ISSUE's determinism guard: the same (system, scenario, seed)
        # cell yields identical RunResult.correct wherever it runs.
        cell = SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, DURATION
        )
        twice = run_cells([cell, cell], jobs=2)
        assert_results_identical(twice[0], twice[1])
        assert_results_identical(twice[0], _run_cell(cell))

    def test_different_seeds_differ(self):
        cells = [
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, DURATION),
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 7, DURATION),
        ]
        results = run_cells(cells, jobs=1)
        assert not np.array_equal(results[0].correct, results[1].correct)

    def test_fig2_cells_run(self):
        cells = [
            SystemCell("RTX3090-Student", "resnet18_wrn50", "S5", 0, DURATION),
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S5", 0, DURATION),
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_rejects_unknown_cell_types(self):
        with pytest.raises(ConfigurationError):
            run_cells(["not-a-cell"], jobs=1)
        with pytest.raises(ConfigurationError):
            run_cells([], jobs=-1)

    def test_empty_grid(self):
        assert run_cells([], jobs=4) == []

    def test_jobs_zero_means_all_cores(self):
        cell = SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, DURATION)
        auto = run_cells([cell], jobs=0)
        assert_results_identical(auto[0], _run_cell(cell))


class TestSharding:
    def test_cells_group_by_stream_signature(self):
        cells = [
            SystemCell(system, "resnet18_wrn50", scenario, 0, DURATION)
            for scenario in ("S1", "S4")
            for system in ("OrinHigh-Ekya", "OrinHigh-EOMU", "DaCapo-Ekya")
        ]
        shards = plan_shards(cells, jobs=2)
        assert len(shards) == 2  # one per (scenario, seed, duration) stream
        for shard in shards:
            signatures = {
                (job.cell.scenario, job.cell.seed) for _, job in shard
            }
            assert len(signatures) == 1
        # every cell appears exactly once, with its original index
        indices = sorted(index for shard in shards for index, _ in shard)
        assert indices == list(range(len(cells)))

    def test_large_shards_split_to_fill_workers(self):
        cells = [
            SystemCell(system, "resnet18_wrn50", "S1", 0, DURATION)
            for system in ("OrinHigh-Ekya", "OrinHigh-EOMU", "DaCapo-Ekya",
                           "OrinLow-Ekya")
        ]
        shards = plan_shards(cells, jobs=4)
        assert len(shards) == 4  # split down to singletons
        shards = plan_shards(cells, jobs=2)
        assert len(shards) == 2

    def test_sharded_grid_matches_serial(self):
        # Multiple systems per stream (the sharing case) plus a second
        # scenario and seed: parallel results must equal serial, in order.
        cells = [
            SystemCell(system, "resnet18_wrn50", scenario, seed, DURATION)
            for scenario in ("S1", "S4")
            for seed in (0, 1)
            for system in ("OrinHigh-Ekya", "DaCapo-Spatiotemporal")
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)


def _square(x):
    return x * x


def _worker_sharing(_item) -> str:
    """The worker's active sharing policy (module-level for pickling)."""
    return active_sharing().name


class TestParallelMap:
    def test_matches_serial_in_order(self):
        items = list(range(7))
        assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
        assert parallel_map(_square, items, jobs=3) == [x * x for x in items]

    def test_rejects_negative_jobs(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1], jobs=-2)

    def test_jobs_zero_uses_all_cores(self):
        assert parallel_map(_square, [1, 2], jobs=0) == [1, 4]

    def test_parallel_map_threads_policy(self, monkeypatch):
        # Workers re-install the caller's policies around every call.  A
        # forked worker would inherit the override anyway, so the pool
        # spawns: only the re-install can put the override there.
        monkeypatch.setattr(
            repro.exec.run,
            "ProcessPoolExecutor",
            partial(
                ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn"),
            ),
        )
        with use_sharing(CLUSTER):
            names = parallel_map(_worker_sharing, [0, 1], jobs=2)
        assert names == ["cluster", "cluster"]


class TestDefaultJobs:
    def test_unset_uses_available_cpus(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() >= 1
        assert default_jobs() == usable_cpus()

    def test_env_override_pins_worker_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert default_jobs() == 7
        monkeypatch.setenv(JOBS_ENV, " 3 ")
        assert default_jobs() == 3

    @pytest.mark.parametrize("value", ["zero", "2.5", "0", "-1", "1e2"])
    def test_env_garbage_raises_configuration_error(
        self, monkeypatch, value
    ):
        monkeypatch.setenv(JOBS_ENV, value)
        with pytest.raises(ConfigurationError, match=JOBS_ENV):
            default_jobs()

    def test_empty_env_falls_through(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "")
        assert default_jobs() >= 1

    def test_jobs_zero_routes_through_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        cell = SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, DURATION)
        results = run_cells([cell], jobs=0)
        assert_results_identical(results[0], _run_cell(cell))


class TestWarmModelCaches:
    def test_warms_each_pair_once(self):
        cells = [
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, DURATION),
            SystemCell("OrinLow-Ekya", "resnet18_wrn50", "S2", 0, DURATION),
        ]
        warm_model_caches(cells)  # must not raise; idempotent
        warm_model_caches(cells)
