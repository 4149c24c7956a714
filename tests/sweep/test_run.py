"""End-to-end sweep execution: equivalence, round-trips, frozen digests.

The acceptance contract: a sweep spec reproducing a figure grid yields
per-cell :class:`RunResult`\\ s bit-identical to the hand-coded experiment
at any ``--jobs`` -- checked here against the frozen reference digests
(the cheap smoke section always; the full Figure 9 grid when
``REPRO_FULL_DIGESTS=1``).
"""

import json
import os
from pathlib import Path

import pytest

from repro.exec import PolicySet, run_cells
from repro.numeric import active_policy
from repro.reference import CASES, expected_digest, run_digest
from repro.sweep import (
    compile_plan,
    load_spec,
    run_sweep,
    spec_from_mapping,
    write_outputs,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FULL = os.environ.get("REPRO_FULL_DIGESTS", "") == "1"


def tiny_spec(policies=None, **sweep_updates):
    data = {
        "sweep": {"name": "tiny", "title": "Tiny fleet"},
        "axes": {
            "systems": ["DaCapo-Spatiotemporal", "OrinHigh-Ekya"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1"],
            "durations": [60.0],
        },
        "aggregate": {
            "group_by": ["policy", "system"],
            "percentiles": [50],
            "metrics": ["accuracy", "drop_rate"],
        },
    }
    data["sweep"].update(sweep_updates)
    if policies is not None:
        data["axes"]["policies"] = policies
    return spec_from_mapping(data)


class TestRunSweep:
    def test_matches_direct_run_cells(self):
        spec = tiny_spec()
        plan = compile_plan(spec)
        result = run_sweep(plan, jobs=1)
        direct = run_cells(list(plan.groups[0].cells), jobs=1)
        triples = result.extras["results"]
        assert len(triples) == len(direct)
        for (_, _, swept), expected in zip(triples, direct):
            assert run_digest(swept) == run_digest(expected)

    def test_rows_and_report_shape(self):
        result = run_sweep(tiny_spec(), jobs=1)
        assert result.name == "sweep_tiny"
        assert [r["system"] for r in result.rows] == [
            "DaCapo-Spatiotemporal", "OrinHigh-Ekya"
        ]
        for row in result.rows:
            assert row["cells"] == 1
            assert 0.0 <= row["accuracy_mean"] <= 1.0
        assert "Aggregate by (policy, system)" in result.report
        assert "Per-cell results:" in result.report
        cells = result.extras["cells"]
        assert cells[0]["policy"] == active_policy().name
        assert cells[0]["duration_s"] == 60.0

    def test_outputs_round_trip(self, tmp_path):
        result = run_sweep(tiny_spec(policies=["float64"]), jobs=1)
        paths = write_outputs(result, tmp_path)
        assert sorted(p.name for p in paths) == [
            "sweep_tiny.json",
            "sweep_tiny.txt",
            "sweep_tiny_aggregate.csv",
            "sweep_tiny_cells.csv",
        ]
        document = json.loads((tmp_path / "sweep_tiny.json").read_text())
        assert document["policies"] == ["float64"]
        assert len(document["cells"]) == 2
        assert len(document["aggregate"]) == 2  # (policy, system) groups
        # Aggregate and per-cell rows survive serialization bit-exactly.
        assert document["aggregate"] == result.rows
        assert document["cells"] == result.extras["cells"]
        assert document["estimate"] == result.extras["estimate"]
        assert document["name"] == "tiny"


class TestFrozenDigests:
    @pytest.mark.parametrize(
        "backend,jobs",
        [("serial", 1), ("process:2", 2), ("subprocess:2", 2)],
    )
    def test_smoke_grid_through_sweep_matches_reference(self, backend, jobs):
        """A spec of the reference smoke grid reproduces its frozen
        digests on every execution backend (the bit-identity acceptance
        contract of the pluggable dispatch layer)."""
        spec = spec_from_mapping({
            "sweep": {"name": "smoke-ref", "title": "Smoke reference"},
            "axes": {
                "systems": [
                    "OrinLow-Ekya", "OrinHigh-Ekya", "OrinHigh-EOMU",
                    "DaCapo-Ekya", "DaCapo-Spatial",
                    "DaCapo-Spatiotemporal",
                ],
                "pairs": ["resnet18_wrn50"],
                "scenarios": ["S4"],
                "durations": [300.0],
            },
        })
        result = run_sweep(spec, jobs=jobs, backend=backend)
        policies = PolicySet.active()
        for _, cell, run in result.extras["results"]:
            assert run_digest(run) == expected_digest(
                "smoke", cell, policies
            ), cell

    @pytest.mark.skipif(
        not FULL,
        reason="set REPRO_FULL_DIGESTS=1 for the full fig9-through-sweep "
               "digest sweep",
    )
    @pytest.mark.parametrize(
        "backend,jobs",
        [("serial", 1), ("process", 2), ("subprocess:2", 2)],
    )
    def test_fig9_example_matches_reference_at_any_jobs(self, backend, jobs):
        """The shipped fig9 spec is bit-identical to `repro experiment
        fig9` per the frozen reference digests -- serial, sharded over
        the pool, and dispatched over the subprocess transport."""
        spec = load_spec(EXAMPLES / "fig9_sweep.toml")
        result = run_sweep(spec, jobs=jobs, backend=backend)
        policies = PolicySet.active()
        runs = {cell: run for _, cell, run in result.extras["results"]}
        assert set(runs) == set(CASES["fig9"].cells)
        mismatched = [
            cell for cell, run in runs.items()
            if run_digest(run) != expected_digest("fig9", cell, policies)
        ]
        assert not mismatched, mismatched


class TestJobsEquivalence:
    def test_rows_identical_at_any_jobs(self):
        spec = tiny_spec(name="tiny-jobs")
        serial = run_sweep(spec, jobs=1)
        sharded = run_sweep(spec, jobs=2)
        assert serial.extras["cells"] == sharded.extras["cells"]
        assert serial.rows == sharded.rows
