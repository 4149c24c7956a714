"""Tests for sweep spec parsing and validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep import SweepSpec, load_spec, spec_from_mapping


def minimal(**updates):
    data = {
        "sweep": {"name": "t", "title": "Test sweep"},
        "axes": {
            "systems": ["DaCapo-Spatiotemporal"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1"],
        },
    }
    data.update(updates)
    return data


TOML_SPEC = """
[sweep]
name = "toml-spec"

[axes]
systems = ["DaCapo-Spatiotemporal", "OrinHigh-Ekya"]
pairs = ["resnet18_wrn50"]
scenarios = ["S1", "S4"]
seeds = [0, 1]
durations = [120.0]
policies = ["fp64"]

[[override]]
match = { scenario = "S4" }
durations = [60.0]

[aggregate]
group_by = ["policy", "system"]
percentiles = [50]
metrics = ["accuracy"]
"""


class TestLoaders:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(TOML_SPEC)
        spec = load_spec(path)
        assert spec.name == "toml-spec"
        assert spec.axes["system"] == (
            "DaCapo-Spatiotemporal", "OrinHigh-Ekya"
        )
        # Policy aliases canonicalize at load time.
        assert spec.axes["policy"] == ("float64",)
        assert spec.overrides[0].match == (("scenario", ("S4",)),)
        assert spec.overrides[0].axes == (("duration", (60.0,)),)

    def test_json_same_schema(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(minimal()))
        spec = load_spec(path)
        assert isinstance(spec, SweepSpec)
        assert spec.axes["scenario"] == ("S1",)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x")
        with pytest.raises(ConfigurationError, match="suffix"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_spec(tmp_path / "nope.toml")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[sweep\nname=")
        with pytest.raises(ConfigurationError, match="parse error"):
            load_spec(path)


class TestDefaults:
    def test_seed_duration_policy_defaults(self):
        spec = spec_from_mapping(minimal())
        assert spec.axes["seed"] == (0,)
        assert spec.axes["duration"] == (None,)
        assert spec.axes["policy"] == ()  # ambient, resolved at plan time
        assert spec.group_by == ("policy", "system")
        assert spec.percentiles == (50.0, 90.0)

    def test_title_defaults_to_name(self):
        data = minimal()
        data["sweep"] = {"name": "only-name"}
        assert spec_from_mapping(data).title == "only-name"


class TestValidation:
    @pytest.mark.parametrize("axes_patch, message", [
        ({"systems": ["H100"]}, "unknown system"),
        ({"pairs": ["resnet18"]}, "unknown pair"),
        ({"scenarios": ["S9"]}, "unknown scenario"),
        ({"policies": ["float32"]}, "unknown numeric policy"),
        ({"seeds": [-1]}, "non-negative"),
        ({"seeds": [0.5]}, "non-negative"),
        ({"durations": [0.0]}, "positive"),
        ({"durations": [-5]}, "positive"),
        ({"scenarios": []}, "must not be empty"),
        ({"scenarios": ["S1", "S1"]}, "duplicate"),
        ({"scenarios": "S1"}, "must be a list"),
    ])
    def test_bad_axis_values(self, axes_patch, message):
        data = minimal()
        data["axes"].update(axes_patch)
        with pytest.raises(ConfigurationError, match=message):
            spec_from_mapping(data)

    def test_missing_required_axis(self):
        data = minimal()
        del data["axes"]["systems"]
        with pytest.raises(ConfigurationError, match="missing required"):
            spec_from_mapping(data)

    def test_fig2_dialect_refused(self):
        # Figure 2's bars are systems now; the old dialect names keys the
        # schema no longer has.
        for section, key, value in (
            ("sweep", "cell", "fig2"),
            ("axes", "platforms", ["RTX3090"]),
            ("axes", "kinds", ["student"]),
        ):
            data = minimal()
            data[section][key] = value
            with pytest.raises(ConfigurationError, match=f"unknown .*{key}"):
                spec_from_mapping(data)

    def test_fig2_systems_accepted(self):
        data = minimal()
        data["axes"]["systems"] = ["RTX3090-Student", "OrinLow-Ekya"]
        data["aggregate"] = {"group_by": ["pair", "system"]}
        spec = spec_from_mapping(data)
        assert spec.axes["system"] == ("RTX3090-Student", "OrinLow-Ekya")

    def test_unknown_cell_kind(self):
        # The one cell type is implied: a ``cell`` key is not schema.
        data = minimal()
        data["sweep"]["cell"] = "gpu"
        with pytest.raises(ConfigurationError, match=r"unknown \[sweep\] keys"):
            spec_from_mapping(data)

    def test_unknown_axis_key(self):
        data = minimal()
        data["axes"]["cameras"] = ["c0"]
        with pytest.raises(ConfigurationError, match="unknown axis key"):
            spec_from_mapping(data)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown top-level"):
            spec_from_mapping(minimal(extra={}))

    def test_bad_name(self):
        data = minimal()
        data["sweep"]["name"] = "no spaces allowed"
        with pytest.raises(ConfigurationError, match="name must be"):
            spec_from_mapping(data)

    @pytest.mark.parametrize("aggregate, message", [
        ({"group_by": ["camera"]}, "not a row key"),
        ({"group_by": ["system", "system"]}, "duplicates"),
        ({"percentiles": [101]}, r"\[0, 100\]"),
        ({"metrics": ["latency"]}, "unknown metric"),
        ({"metrics": []}, "must not be empty"),
        ({"unknown_key": 1}, r"unknown \[aggregate\]"),
    ])
    def test_bad_aggregate(self, aggregate, message):
        with pytest.raises(ConfigurationError, match=message):
            spec_from_mapping(minimal(aggregate=aggregate))


class TestOverrideValidation:
    def override(self, **entry):
        data = minimal()
        data["axes"]["scenarios"] = ["S1", "S4"]
        data["override"] = [entry]
        return data

    def test_valid_override(self):
        spec = spec_from_mapping(
            self.override(match={"scenario": "S4"}, durations=[60.0])
        )
        assert spec.overrides[0].axes == (("duration", (60.0,)),)

    def test_match_required(self):
        with pytest.raises(ConfigurationError, match="match"):
            spec_from_mapping(self.override(durations=[60.0]))

    def test_match_value_must_exist_in_base_axis(self):
        with pytest.raises(ConfigurationError, match="never fire"):
            spec_from_mapping(
                self.override(match={"scenario": "S6"}, durations=[60.0])
            )

    def test_both_override_spellings_rejected(self):
        data = self.override(match={"scenario": "S4"}, durations=[60.0])
        data["overrides"] = [
            {"match": {"scenario": "S1"}, "durations": [30.0]}
        ]
        # Accepting one and silently dropping the other would run cells
        # with the wrong durations; insist the spec picks a spelling.
        with pytest.raises(ConfigurationError, match="not both"):
            spec_from_mapping(data)

    def test_override_values_canonicalized(self):
        # TOML ints become floats just like base-axis durations do, so
        # cells, CSV, and JSON never carry mixed int/float durations.
        spec = spec_from_mapping(
            self.override(match={"scenario": "S4"}, durations=[60])
        )
        assert spec.overrides[0].axes == (("duration", (60.0,)),)

    def test_policy_alias_in_match_canonicalized(self):
        data = self.override(match={"policy": "fp64"}, durations=[60.0])
        data["axes"]["policies"] = ["f64"]
        spec = spec_from_mapping(data)
        assert spec.overrides[0].match == (("policy", ("float64",)),)

    def test_match_may_name_value_introduced_by_another_override(self):
        # seed 5 only exists via override[0]'s replacement, but override[1]
        # matching it is legitimate -- the expansion binds seed=5 for the
        # S4 prefix, so override[1] does fire.
        data = self.override(match={"scenario": "S4"}, seeds=[5])
        data["override"].append(
            {"match": {"seed": 5}, "durations": [30.0]}
        )
        spec = spec_from_mapping(data)
        assert spec.overrides[1].match == (("seed", (5,)),)

    def test_cannot_override_earlier_axis(self):
        # scenario comes after system in the expansion order, so a
        # scenario match cannot replace the systems list.
        with pytest.raises(ConfigurationError, match="must come after"):
            spec_from_mapping(self.override(
                match={"scenario": "S4"},
                systems=["OrinHigh-Ekya"],
            ))

    def test_override_must_change_something(self):
        with pytest.raises(ConfigurationError, match="overrides no axes"):
            spec_from_mapping(self.override(match={"scenario": "S4"}))

    def test_overridden_values_validated(self):
        with pytest.raises(ConfigurationError, match="positive"):
            spec_from_mapping(
                self.override(match={"scenario": "S4"}, durations=[-1])
            )
