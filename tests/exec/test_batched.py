"""The batched multi-cell executor: bit-identity, planning, composition.

The contract under test, at every layer:

- cell level: a batched shard through ``execute_shard`` reproduces the
  serial per-cell digests exactly, one lane degenerates to the serial
  code path, four lanes make at least 2x fewer numpy dispatches than
  four serial cells, and the frozen ``digests_batched.json`` pins the
  batched smoke digests to the (pre-batching) float64 reference;
- planner level: batching groups by geometry signature, mixed numeric
  policies never share a batch shard, observed shard walls re-weight the
  split loop, and the off-path plan is byte-identical to history;
- protocol level: the per-cell job and outcome fields round-trip;
- composition: sharing clusters batch against each other bit-identically.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import profiling
from repro.batching import ON, resolve_batching, use_batching
from repro.errors import ConfigurationError, ProtocolError
from repro.exec import protocol
from repro.exec.batched import BatchConductor
from repro.exec.shard import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardResult,
    ShardSpec,
    SystemCell,
    batch_signature,
    cell_key,
    execute_shard,
    note_shard_observation,
    observed_cost,
    plan_shards,
    reset_observed_costs,
    run_cell,
    shard_key,
    stream_signature,
    warm_model_caches,
)
from repro.learn.ops import dispatch_count, reset_dispatch
from repro.numeric import active_policy, use_policy
from repro.reference import compute_section, reference_path, run_digest
from repro.share.policy import CLUSTER

POLICY = "float64"

CELLS = [
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 60.0),
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 1, 60.0),
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 60.0),
]


def spec_of(cells, batch="on") -> ShardSpec:
    """A one-job-per-cell spec over ``cells``, under the active numeric
    policy, as :func:`make_shard_specs` would plan it."""
    numeric = active_policy()
    return ShardSpec(
        key=shard_key(numeric.name, cells),
        jobs=tuple(CellJob(cell) for cell in cells),
        indices=tuple(range(len(cells))),
        policies=PolicySet(numeric=numeric, batch=resolve_batching(batch)),
    )


def batched_reference_path() -> Path:
    return Path(__file__).resolve().parents[1] / "reference" / (
        "digests_batched.json"
    )


@pytest.fixture(autouse=True)
def _clean_costs():
    reset_observed_costs()
    yield
    reset_observed_costs()


class TestBitIdentity:
    def test_batched_matches_serial_digests(self):
        serial = [run_digest(run_cell(cell)) for cell in CELLS]
        result = execute_shard(spec_of(CELLS))
        assert [run_digest(run) for run in result.results] == serial

    def test_k1_is_the_serial_code_path(self, monkeypatch):
        # A single lane must not spin up lane threads or a conductor.
        import repro.exec.shard as shard

        def boom(jobs):
            raise AssertionError("lane threads engaged for one lane")

        monkeypatch.setattr(shard, "run_lane_jobs", boom)
        warm_model_caches(CELLS[:1])
        reset_dispatch()
        (run,) = execute_shard(spec_of(CELLS[:1])).results
        batched_calls = dispatch_count()
        reset_dispatch()
        serial = run_cell(CELLS[0])
        assert dispatch_count() == batched_calls
        assert run_digest(run) == run_digest(serial)

    def test_four_lanes_collapse_numpy_dispatches(self):
        # What batching is for, counted rather than timed: four
        # same-geometry cameras in one batched shard make at least 2x
        # fewer numpy dispatches than the same cells run one by one
        # (1,440 against 5,636), on bit-identical results.
        fleet = [
            SystemCell(
                "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", seed, 60.0
            )
            for seed in range(4)
        ]
        warm_model_caches(fleet)
        reset_dispatch()
        serial = [run_cell(cell) for cell in fleet]
        serial_calls = dispatch_count()
        reset_dispatch()
        batched = execute_shard(spec_of(fleet)).results
        batched_calls = dispatch_count()
        assert [run_digest(run) for run in batched] == [
            run_digest(run) for run in serial
        ]
        assert serial_calls >= 2 * batched_calls, (serial_calls, batched_calls)

    def test_snapshot_alignment_validated(self):
        # Per-cell snapshots travel in the jobs list, which must line up
        # with the cells it describes.
        request = protocol.encode_shard_request(spec_of(CELLS))
        request["jobs"] = [{"snapshot": {"origin_duration_s": 30.0}}]
        with pytest.raises(ProtocolError, match="one valid entry per cell"):
            protocol.decode_shard_spec(request)

    def test_conductor_needs_a_lane(self):
        with pytest.raises(ConfigurationError):
            BatchConductor(0)


class TestDigestPin:
    def test_frozen_file_matches_float64_reference(self):
        # Batching must not mint its own truth: the pinned batched smoke
        # digests are byte-equal to the serial float64 reference.
        payload = json.loads(batched_reference_path().read_text())
        assert payload["policy"] == POLICY and payload["batch"] == "on"
        serial = json.loads(reference_path(POLICY).read_text())["smoke"]
        batched = payload["smoke"]
        cell_keys = [key for key in serial if key in batched]
        assert cell_keys, "no overlapping smoke entries"
        for key in batched:
            assert batched[key]["digest"] == serial[key]["digest"]

    def test_smoke_recomputes_under_batching(self):
        payload = json.loads(batched_reference_path().read_text())
        with use_policy(POLICY), use_batching(ON):
            computed = compute_section("smoke")
        for key, entry in payload["smoke"].items():
            assert computed[key]["digest"] == entry["digest"], key


class TestPlanner:
    def test_signatures(self):
        assert batch_signature(CELLS[0]) == ("system", "resnet18_wrn50")
        # System, scenario, seed, duration are deliberately ignored.
        assert batch_signature(CELLS[0]) == batch_signature(CELLS[2])

    def test_off_path_plan_is_historical(self):
        shards = plan_shards(CELLS, 1)
        # Without batching, cells group by stream signature: the two S4
        # seeds share one stream-signature family, S1 is its own.
        signatures = {
            stream_signature(shard[0][1].cell) for shard in shards
        }
        assert len(shards) == len(signatures)

    def test_batching_groups_by_geometry(self):
        with use_batching(ON):
            shards = plan_shards(CELLS, 1)
        assert len(shards) == 1
        assert sorted(index for index, _ in shards[0]) == [0, 1, 2]

    def test_observed_costs_weight_the_split(self):
        # Two equal-sized stream groups (same scenario+seed, two systems
        # each).  Uniform weights split the first-encountered group; with
        # the second group observed as expensive, it must split instead.
        light = [
            SystemCell(system, "p", "S1", 0, 10.0)
            for system in ("OrinLow-Ekya", "OrinHigh-Ekya")
        ]
        heavy = [
            SystemCell(system, "p", "S4", 0, 10.0)
            for system in ("OrinLow-Ekya", "OrinHigh-Ekya")
        ]
        # Observations key on the *ambient* policy at planning time.
        policy = active_policy().name
        spec = ShardSpec(
            key=shard_key(policy, heavy),
            jobs=tuple(CellJob(cell) for cell in heavy),
            indices=(0, 1),
            policies=PolicySet(active_policy()),
        )
        note_shard_observation(spec, 20.0)
        assert observed_cost(cell_key(policy, heavy[0])) == 10.0
        assert observed_cost(cell_key(policy, light[0])) == 1.0
        shards = plan_shards(light + heavy, 3)
        assert len(shards) == 3
        split = [
            shard for shard in shards
            if len(shard) == 1 and shard[0][1].cell.scenario == "S4"
        ]
        assert len(split) == 2, "the observed-heavy group did not split"

    def test_observation_guards(self):
        spec = spec_of(CELLS[:1], batch="off")
        note_shard_observation(spec, None)
        note_shard_observation(spec, 0.0)
        assert observed_cost(cell_key(POLICY, CELLS[0])) == 1.0


class TestProtocol:
    def test_shard_request_round_trip(self):
        spec = ShardSpec(
            key=shard_key(POLICY, CELLS[:2]),
            jobs=(
                CellJob(CELLS[0], emit_snapshot=True),
                CellJob(CELLS[1], snapshot={"origin_duration_s": 30.0}),
            ),
            indices=(0, 1),
            policies=PolicySet(batch=ON),
        )
        decoded = protocol.decode_shard_spec(
            protocol.decode_message(
                protocol.encode_message(protocol.encode_shard_request(spec))
            )
        )
        assert decoded == spec

    def test_off_path_request_bytes_unchanged(self):
        # A plain sweep shard carries no per-cell fields: its message is
        # the historical one under the new version number.
        message = protocol.encode_shard_request(
            spec_of(CELLS[:1], batch="off")
        )
        assert set(message) == {
            "v", "kind", "id", "cells", "policy", "profile", "cache_root",
        }

    def test_result_round_trip_carries_wall_and_snapshots(self):
        run = run_cell(CELLS[2])
        result = ShardResult(
            key="k",
            outcomes=(
                CellOutcome(run),
                CellOutcome(run, snapshot={"origin_duration_s": 60.0}),
            ),
            wall_s=1.25,
        )
        message = protocol.encode_shard_result(result)
        assert message["outcomes"] == [
            {}, {"snapshot": {"origin_duration_s": 60.0}}
        ]
        decoded = protocol.decode_shard_result(
            protocol.decode_message(protocol.encode_message(message))
        )
        assert decoded.wall_s == 1.25
        assert [o.snapshot for o in decoded.outcomes] == [
            None, {"origin_duration_s": 60.0}
        ]
        assert run_digest(decoded.results[0]) == run_digest(run)


class TestProfileReconciliation:
    def test_lane_phases_measure_compute_not_waiting(self):
        # Round compute is serialized through the conductor, so the sum
        # of per-phase exclusive seconds across all lanes must stay close
        # to the driver's wall time; without barrier-wait absorption it
        # would approach K times the wall.
        import time

        profiler = profiling.enable()
        try:
            started = time.perf_counter()
            execute_shard(spec_of(CELLS))
            wall = time.perf_counter() - started
        finally:
            profiling.disable()
        total = profiler.total_s()
        assert total > 0
        assert total <= wall * 1.5, (
            f"profiled {total:.3f}s vs wall {wall:.3f}s: lanes are "
            "charging barrier waits to their phases"
        )


class TestSharingComposition:
    def test_two_clusters_batch_bit_identically(self):
        # S4 and S1 drift-cluster apart, so sharing+batching runs two
        # cluster lanes in lockstep; every digest must match the
        # sharing-only (sequential) execution.
        fleet = [
            SystemCell(
                "DaCapo-Spatiotemporal", "resnet18_wrn50", scenario, s, 120.0
            )
            for scenario in ("S4", "S1")
            for s in range(2)
        ]

        def digests(batch):
            spec = ShardSpec(
                key=shard_key(POLICY, fleet),
                jobs=tuple(
                    CellJob(cell, cluster=cell.scenario) for cell in fleet
                ),
                indices=tuple(range(len(fleet))),
                policies=PolicySet(
                    sharing=CLUSTER, batch=resolve_batching(batch)
                ),
            )
            return [run_digest(run) for run in execute_shard(spec).results]

        assert digests("on") == digests("off")
