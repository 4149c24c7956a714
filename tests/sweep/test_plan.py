"""Tests for the sweep planner: expansion, overrides, cost estimates."""

from pathlib import Path

import pytest

from repro.core import SystemCell
from repro.errors import ConfigurationError
from repro.experiments.fig2 import FIG2_BARS, FIG2_PAIRS, FIG2_PLATFORMS
from repro.experiments.fig9 import FIG9_PAIRS, FIG9_SCENARIOS, FIG9_SYSTEMS
from repro.numeric import use_policy
from repro.sweep import compile_plan, load_spec, spec_from_mapping

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def make_spec(**updates):
    data = {
        "sweep": {"name": "t", "title": "Test sweep"},
        "axes": {
            "systems": ["DaCapo-Spatiotemporal", "OrinHigh-Ekya"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1", "S4"],
            "durations": [120.0],
        },
    }
    data.update(updates)
    return spec_from_mapping(data)


class TestExpansion:
    def test_cross_product_in_documented_order(self):
        plan = compile_plan(make_spec())
        (group,) = plan.groups
        assert group.cells == (
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1",
                       0, 120.0),
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4",
                       0, 120.0),
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, 120.0),
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 0, 120.0),
        )

    def test_override_replaces_later_axes(self):
        spec = make_spec(override=[
            {"match": {"scenario": "S4"}, "durations": [60.0],
             "seeds": [0, 1]},
        ])
        plan = compile_plan(spec)
        cells = plan.groups[0].cells
        s4 = [c for c in cells if c.scenario == "S4"]
        s1 = [c for c in cells if c.scenario == "S1"]
        assert {c.duration_s for c in s4} == {60.0}
        assert {c.seed for c in s4} == {0, 1}
        assert {c.duration_s for c in s1} == {120.0}
        assert {c.seed for c in s1} == {0}

    def test_last_matching_override_wins(self):
        spec = make_spec(override=[
            {"match": {"scenario": "S4"}, "durations": [60.0]},
            {"match": {"system": "OrinHigh-Ekya", "scenario": "S4"},
             "durations": [30.0]},
        ])
        cells = compile_plan(spec).groups[0].cells
        by_key = {(c.system, c.scenario): c.duration_s for c in cells}
        assert by_key[("DaCapo-Spatiotemporal", "S4")] == 60.0
        assert by_key[("OrinHigh-Ekya", "S4")] == 30.0
        assert by_key[("OrinHigh-Ekya", "S1")] == 120.0

    def test_chained_overrides_fire(self):
        # override[1] matches a seed only override[0] introduces; the
        # chain applies because matches bind against the expanded prefix.
        spec = make_spec(override=[
            {"match": {"scenario": "S4"}, "seeds": [5]},
            {"match": {"seed": 5}, "durations": [30.0]},
        ])
        cells = compile_plan(spec).groups[0].cells
        s4 = [c for c in cells if c.scenario == "S4"]
        assert {(c.seed, c.duration_s) for c in s4} == {(5, 30.0)}
        s1 = [c for c in cells if c.scenario == "S1"]
        assert {(c.seed, c.duration_s) for c in s1} == {(0, 120.0)}

    def test_no_duplicate_cells(self):
        spec = make_spec(override=[
            {"match": {"scenario": "S4"}, "seeds": [0, 1, 2]},
        ])
        cells = compile_plan(spec).groups[0].cells
        assert len(cells) == len(set(cells)) == 8


class TestPolicies:
    def test_explicit_policies_one_group_each(self):
        data_axes = {
            "systems": ["DaCapo-Spatiotemporal"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1"],
        }
        ambient = compile_plan(make_spec(axes=data_axes))
        data_axes["policies"] = ["fp64"]
        plan = compile_plan(make_spec(axes=data_axes))
        assert [g.policy.name for g in plan.groups] == ["float64"]
        assert plan.groups[0].cells == ambient.groups[0].cells

    def test_ambient_policy_resolved_at_plan_time(self, monkeypatch):
        # The spec loads whatever the environment says; compiling it
        # reads REPRO_DTYPE and refuses an undeclared policy.
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        spec = make_spec()
        with pytest.raises(ConfigurationError, match="'float32'"):
            compile_plan(spec)
        with use_policy("float64"):
            plan = compile_plan(spec)
        assert [g.policy.name for g in plan.groups] == ["float64"]


class TestExamples:
    def test_fig9_example_compiles_to_fig9_cells(self):
        """The shipped spec is the fig9 grid, cell for cell, in order."""
        spec = load_spec(EXAMPLES / "fig9_sweep.toml")
        plan = compile_plan(spec)
        (group,) = plan.groups
        expected = tuple(
            SystemCell(system, pair, scenario, 0, 1200.0)
            for pair in FIG9_PAIRS
            for system in FIG9_SYSTEMS
            for scenario in FIG9_SCENARIOS
        )
        assert group.cells == expected

    def test_fig2_example_compiles_to_fig2_cells(self):
        spec = load_spec(EXAMPLES / "fig2_sweep.toml")
        (group,) = compile_plan(spec).groups
        expected = tuple(
            SystemCell(f"{platform}-{bar.capitalize()}", pair, "S5", 0, 600.0)
            for pair in FIG2_PAIRS
            for platform in FIG2_PLATFORMS
            for bar in FIG2_BARS
        )
        assert group.cells == expected

    def test_fleet_smoke_example(self):
        plan = compile_plan(load_spec(EXAMPLES / "fleet_smoke.toml"))
        (group,) = plan.groups
        # The override shortens camera S4.
        durations = {(c.scenario, c.duration_s) for c in group.cells}
        assert durations == {("S1", 120.0), ("S4", 60.0)}
        # Two cameras, each on its own stream.
        estimate = plan.estimate(jobs=2)
        assert estimate.cells == 2
        assert estimate.distinct_streams == 2
        assert estimate.distinct_stream_seconds <= estimate.stream_seconds


class TestEstimate:
    def test_counts_cells_streams_and_seconds(self):
        spec = make_spec(axes={
            "systems": ["DaCapo-Spatiotemporal", "OrinHigh-Ekya"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1", "S4"],
            "seeds": [0, 1],
            "durations": [120.0],
        })
        est = compile_plan(spec).estimate(jobs=4)
        assert est.cells == 2 * 2 * 2
        # 2 scenarios x 2 seeds.
        assert est.distinct_streams == 4
        assert est.stream_seconds == est.cells * 120.0
        assert est.distinct_stream_seconds == 4 * 120.0
        assert est.pretrained_models == 2  # (pair, seed)
        assert est.jobs == 4
        assert est.shards >= 2
        assert est.largest_shard_cells >= 1
        assert est.as_dict()["cells"] == est.cells

    def test_default_duration_priced_as_scenario_default(self):
        spec = make_spec(axes={
            "systems": ["DaCapo-Spatiotemporal"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1"],
        })
        est = compile_plan(spec).estimate()
        assert est.stream_seconds == 1200.0

    def test_describe_mentions_costs(self):
        text = compile_plan(make_spec()).describe(jobs=2)
        assert "cells" in text and "distinct streams" in text
        assert "jobs=2" in text
