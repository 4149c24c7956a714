"""Tests for the scoped phase profiler and its runner wiring."""

import time

import pytest

from repro import profiling


@pytest.fixture(autouse=True)
def profiling_off():
    """Every test starts and ends with profiling disabled."""
    profiling.disable()
    yield
    profiling.disable()


class TestScopes:
    def test_records_totals_and_counts(self):
        profiler = profiling.enable()
        with profiling.scope("a"):
            time.sleep(0.01)
        with profiling.scope("a"):
            pass
        with profiling.scope("b"):
            pass
        snapshot = profiler.snapshot()
        assert snapshot["a"]["count"] == 2
        assert snapshot["b"]["count"] == 1
        assert snapshot["a"]["total_s"] >= 0.01

    def test_nested_scopes_do_not_overlap(self):
        profiler = profiling.enable()
        with profiling.scope("outer"):
            time.sleep(0.005)
            with profiling.scope("inner"):
                time.sleep(0.02)
            time.sleep(0.005)
        totals = profiler.totals
        # Exclusive accounting: the inner 20 ms is not double-counted.
        assert totals["inner"] >= 0.02
        assert totals["outer"] < 0.02
        assert totals["outer"] >= 0.005

    def test_phases_sum_to_at_most_wall_time(self):
        profiler = profiling.enable()
        t0 = time.perf_counter()
        with profiling.scope("x"):
            with profiling.scope("y"):
                time.sleep(0.005)
        with profiling.scope("z"):
            time.sleep(0.005)
        wall = time.perf_counter() - t0
        assert profiler.total_s() <= wall

    def test_report_formats(self):
        profiler = profiling.enable()
        with profiling.scope("alpha"):
            pass
        text = profiler.report()
        assert "alpha" in text and "phase breakdown" in text


class TestDisabledPath:
    def test_scope_is_a_shared_noop_singleton(self):
        # Zero allocations on the hot path: every disabled scope() call
        # returns the same preallocated null context manager.
        assert profiling.active() is None
        first = profiling.scope("materialize")
        second = profiling.scope("retrain")
        assert first is second
        assert first is profiling._NULL_SCOPE
        with first:
            pass  # enter/exit are no-ops

    def test_enable_disable_cycle(self):
        profiler = profiling.enable()
        assert profiling.active() is profiler
        assert profiling.scope("a") is not profiling._NULL_SCOPE
        profiling.disable()
        assert profiling.active() is None
        assert profiling.scope("a") is profiling._NULL_SCOPE


class TestRunnerWiring:
    def test_run_records_the_paper_phases(self):
        from repro.core import build_system, run_on_scenario
        from repro.learn.cache import pretrained_mlp

        # Drop the pretrain memo so the pretrain phase actually executes.
        pretrained_mlp.cache_clear()

        profiler = profiling.enable()
        t0 = time.perf_counter()
        system = build_system("DaCapo-Spatiotemporal", "resnet18_wrn50")
        run_on_scenario(system, "S4", seed=0, duration_s=60.0)
        wall = time.perf_counter() - t0

        snapshot = profiler.snapshot()
        for phase in (
            profiling.MATERIALIZE,
            profiling.PRETRAIN,
            profiling.LABEL,
            profiling.RETRAIN,
            profiling.INFERENCE,
        ):
            assert phase in snapshot, snapshot.keys()
            assert snapshot[phase]["total_s"] >= 0.0
        # Non-overlapping scopes: their sum cannot exceed the wall time.
        assert profiler.total_s() <= wall

    def test_disabled_runs_record_nothing(self):
        from repro.core import build_system, run_on_scenario

        system = build_system("OrinHigh-Ekya", "resnet18_wrn50")
        run_on_scenario(system, "S1", seed=0, duration_s=60.0)
        assert profiling.active() is None
