"""Tests for the experiment definitions (short-duration smoke + shape)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    run_ablation_precision,
    run_experiment,
    run_fig3,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    supports_jobs,
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
            "headline",
            "ablation_partitioning", "ablation_precision", "ablation_nldd",
            "ablation_dataflow", "ablation_scaling",
        }
        assert set(EXPERIMENTS) == expected

    def test_only_the_grid_experiments_take_jobs(self):
        # These run their cells through run_cells; every other experiment
        # builds its rows serially, so --jobs and --backend only warn.
        assert {name for name in EXPERIMENTS if supports_jobs(name)} == {
            "fig2", "fig9", "fig10", "fig11", "fig12", "headline",
            "ablation_partitioning",
        }

    def test_run_experiment_dispatch(self):
        result = run_experiment("table1")
        assert result.name == "table1"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_unknown_override_is_configuration_error(self):
        # Bad kwargs bind-check happens before the runner executes, so
        # the caller sees a configuration mistake, not a raw TypeError.
        with pytest.raises(ConfigurationError, match="table1"):
            run_experiment("table1", bogus=1)


class TestTables:
    def test_table1_rows(self):
        result = run_table1()
        assert len(result.rows) == 6
        assert "Nt" in result.report

    def test_table2_rows(self):
        result = run_table2(duration_s=300)
        assert [r["name"] for r in result.rows][:2] == ["S1", "S2"]

    def test_table3_matches_paper(self):
        for row in run_table3().rows:
            assert row["params_M"] == pytest.approx(
                row["paper_params_M"], rel=0.005
            )

    def test_table4_ratios(self):
        result = run_table4()
        assert result.extras["ratio_high"] == pytest.approx(254, rel=0.01)


class TestLightFigures:
    def test_fig8_shares_sum_to_one(self):
        from repro.data import ALL_CLASSES

        result = run_fig8(duration_s=180)
        for row in result.rows:
            total = sum(row[c] for c in ALL_CLASSES)
            assert total == pytest.approx(1.0)

    def test_fig3_breakdown_monotone(self):
        result = run_fig3(duration_s=120)
        shares = [r["retraining_share"] for r in result.rows]
        assert shares == sorted(shares)

    def test_precision_ablation_shape(self):
        result = run_ablation_precision()
        by_fmt = {r["format"]: r for r in result.rows}
        assert by_fmt["MX4"]["inference_fps"] > by_fmt["MX9"]["inference_fps"]
        assert by_fmt["MX4"]["sqnr_db"] < by_fmt["MX9"]["sqnr_db"]

    def test_reports_are_nonempty_text(self):
        for runner in (run_table1, run_table3, run_table4):
            result = runner()
            assert isinstance(result.report, str)
            assert len(result.report) > 50
