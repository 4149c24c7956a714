"""Tests for the JSON-lines shard protocol (exactness and robustness)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.batching import ON
from repro.errors import ProtocolError
from repro.exec import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardResult,
    ShardSpec,
    SystemCell,
)
from repro.exec import protocol
from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.numeric import FLOAT64
from repro.reference import run_digest
from repro.share.policy import CLUSTER


def synthetic_result(dtype=np.float64) -> RunResult:
    rng = np.random.default_rng(7)
    times = np.arange(0.0, 12.0, 0.4, dtype=np.float64)
    return RunResult(
        system="DaCapo-Spatiotemporal",
        scenario="S4",
        pair="resnet18_wrn50",
        times=times,
        correct=rng.random(len(times)) < 0.8,
        dropped=rng.random(len(times)) < 0.1,
        phases=(
            PhaseRecord(PhaseKind.LABEL, 0.0, 1.9375, samples=31),
            PhaseRecord(
                PhaseKind.RETRAIN, 1.9375, 5.1, samples=62,
                drift_detected=True,
            ),
            PhaseRecord(PhaseKind.IDLE, 5.1, 12.0),
        ),
        duration_s=12.0,
        energy_j=123.4567890123,
        average_power_w=10.2880657510,
    )


class TestResultRoundTrip:
    def test_digest_exact(self):
        result = synthetic_result()
        payload = protocol.encode_result(result)
        line = protocol.encode_message(
            {"v": protocol.PROTOCOL_VERSION, "kind": "x", "r": payload}
        )
        decoded = protocol.decode_result(
            protocol.decode_message(line)["r"]
        )
        assert run_digest(decoded) == run_digest(result)

    def test_array_dtypes_survive(self):
        result = synthetic_result()
        decoded = protocol.decode_result(
            json.loads(json.dumps(protocol.encode_result(result)))
        )
        assert decoded.times.dtype == result.times.dtype
        assert decoded.correct.dtype == np.bool_
        np.testing.assert_array_equal(decoded.times, result.times)

    def test_float_bits_survive_json(self):
        # Scalars ride as plain JSON numbers: repr round-trips doubles.
        value = 0.1 + 0.2  # not exactly representable in decimal
        assert json.loads(json.dumps(value)) == value

    def test_malformed_result_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_result({"system": "x"})


class TestCellRoundTrip:
    def test_system_cell(self):
        cell = SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 3, 120.0)
        assert protocol.decode_cell(protocol.encode_cell(cell)) == cell

    def test_fig2_cell_and_default_duration(self):
        # Figure 2's bars are systems; the wire knows one cell type.
        cell = SystemCell("RTX3090-Student", "resnet18_wrn50", "S5", 0, None)
        payload = protocol.encode_cell(cell)
        assert payload["type"] == "system"
        assert protocol.decode_cell(payload) == cell

    def test_numpy_scalars_in_cells_coerce(self):
        # Sweeps built from numpy-derived grids leak np scalars into cell
        # fields; the round-tripped cell must equal the Python-literal one.
        cell = SystemCell(
            "OrinHigh-Ekya", "resnet18_wrn50", "S1",
            seed=np.int64(3), duration_s=np.float64(120.0),
        )
        line = protocol.encode_message(protocol.encode_cell(cell))
        decoded = protocol.decode_cell(json.loads(line))
        assert decoded == SystemCell(
            "OrinHigh-Ekya", "resnet18_wrn50", "S1", 3, 120.0
        )
        assert isinstance(decoded.seed, int)
        assert isinstance(decoded.duration_s, float)

    @pytest.mark.parametrize(
        "payload",
        [
            "x",
            ["system"],
            {"type": "system", "system": "a", "pair": "b", "scenario": "c",
             "seed": "0", "duration_s": None},
            {"type": "system", "system": "a", "pair": "b", "scenario": "c",
             "seed": True, "duration_s": None},
            {"type": "system", "system": 5, "pair": "b", "scenario": "c",
             "seed": 0, "duration_s": None},
            {"type": "fig2", "kind": "student", "platform": "p", "pair": "b",
             "scenario": "c", "seed": 0, "duration_s": "60"},
        ],
    )
    def test_mistyped_cell_refused(self, payload):
        with pytest.raises(ProtocolError):
            protocol.decode_cell(payload)

    def test_unknown_cell_type(self):
        with pytest.raises(ProtocolError):
            protocol.encode_cell("not-a-cell")
        with pytest.raises(ProtocolError):
            protocol.decode_cell({"type": "warp-drive"})
        with pytest.raises(ProtocolError, match="unknown cell type 'fig2'"):
            protocol.decode_cell(
                {"type": "fig2", "kind": "student", "platform": "RTX3090",
                 "pair": "resnet18_wrn50", "scenario": "S5", "seed": 0,
                 "duration_s": None}
            )


class TestShardMessages:
    def spec(self):
        return ShardSpec(
            key="abc123",
            jobs=(
                CellJob(
                    SystemCell(
                        "OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, 60.0
                    )
                ),
            ),
            indices=(5,),
            policies=PolicySet(FLOAT64, CLUSTER, ON),
            profile=True,
            cache_root="/tmp/cache",
        )

    def test_request_round_trip(self):
        request = protocol.encode_shard_request(self.spec())
        decoded = protocol.decode_shard_spec(
            protocol.decode_message(protocol.encode_message(request))
        )
        assert decoded.key == "abc123"
        assert decoded.cells == self.spec().cells
        assert decoded.policies == PolicySet(FLOAT64, CLUSTER, ON)
        assert decoded.profile is True
        assert decoded.cache_root == "/tmp/cache"
        # Worker-side indices are synthetic; the parent keeps the real ones.
        assert decoded.indices == (0,)

    def test_result_message_round_trip(self):
        result = synthetic_result()
        message = protocol.encode_shard_result(
            ShardResult(
                key="abc123",
                outcomes=(CellOutcome(result),),
                profile={"retrain": {"total_s": 1.0, "count": 2}},
            )
        )
        decoded = protocol.decode_shard_result(
            protocol.decode_message(protocol.encode_message(message))
        )
        assert decoded.key == "abc123"
        assert run_digest(decoded.results[0]) == run_digest(result)
        assert decoded.profile == {"retrain": {"total_s": 1.0, "count": 2}}

    def test_mis_shaped_messages_refused(self):
        with pytest.raises(ProtocolError, match="results must be a list"):
            protocol.decode_shard_result({"id": "k", "results": 5})
        with pytest.raises(ProtocolError, match="must be an object"):
            protocol.decode_shard_spec({"id": "k", "cells": ["x"]})
        # Per-cell lists must line up with the cells they describe, and
        # hold only known fields of their JSON types.
        for jobs in (
            [{"emit_snapshot": True}, {}],
            [{"emit_snapshot": 1}],
            [{"cluster": None}],
            [{"window": 3}],
            ["c0"],
        ):
            request = protocol.encode_shard_request(self.spec())
            request["jobs"] = jobs
            with pytest.raises(
                ProtocolError, match="one valid entry per cell"
            ):
                protocol.decode_shard_spec(request)
        message = protocol.encode_shard_result(
            ShardResult(key="k", outcomes=(CellOutcome(synthetic_result()),))
        )
        message["outcomes"] = [{"snapshot": []}]
        with pytest.raises(ProtocolError, match="one valid entry per cell"):
            protocol.decode_shard_result(message)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("profile", "no"),
            ("profile", 1),
            ("id", 7),
            ("policy", 5),
            ("policy", "f32"),
            ("policy", None),
            ("sharing", ["x"]),
            ("sharing", "on"),
            ("batch", True),
            ("policy", "float32"),
        ],
    )
    def test_scalar_fields_are_refused_not_coerced(self, field, value):
        # A wrong-typed scalar, a policy alias or an undeclared policy is
        # a malformed message: the decoder never repairs it into something
        # the parent did not send.
        request = protocol.encode_shard_request(self.spec())
        request[field] = value
        with pytest.raises(ProtocolError, match=field):
            protocol.decode_shard_spec(request)

    def test_result_id_must_be_a_string(self):
        message = protocol.encode_shard_result(
            ShardResult(key="k", outcomes=())
        )
        message["id"] = 7
        with pytest.raises(ProtocolError, match="id"):
            protocol.decode_shard_result(message)

    def test_messages_are_single_lines(self):
        request = protocol.encode_shard_request(self.spec())
        assert "\n" not in protocol.encode_message(request)

    def test_snapshot_fields_round_trip(self):
        snap = {"v": 1, "origin_duration_s": 60.0, "clock": 42.5}
        (job,) = self.spec().jobs
        spec = replace(
            self.spec(),
            jobs=(replace(job, snapshot=snap, emit_snapshot=True),),
        )
        request = protocol.encode_shard_request(spec)
        # One per-cell entry, holding only the fields the job sets.
        assert request["jobs"] == [{"snapshot": snap, "emit_snapshot": True}]
        decoded = protocol.decode_shard_spec(
            protocol.decode_message(protocol.encode_message(request))
        )
        assert decoded.jobs == spec.jobs

        result = ShardResult(
            key="abc123",
            outcomes=(CellOutcome(synthetic_result(), snapshot=snap),),
        )
        message = protocol.encode_shard_result(result)
        assert message["outcomes"] == [{"snapshot": snap}]
        back = protocol.decode_shard_result(
            protocol.decode_message(protocol.encode_message(message))
        )
        assert back.outcomes[0].snapshot == snap
        assert back.outcomes[0].cluster_state is None

    def test_snapshot_fields_absent_by_default(self):
        # Plain sweep shards keep their historical byte shape: no
        # per-cell lists unless some job or outcome sets a field.
        request = protocol.encode_shard_request(self.spec())
        assert "jobs" not in request
        decoded = protocol.decode_shard_spec(
            protocol.decode_message(protocol.encode_message(request))
        )
        assert decoded.jobs == self.spec().jobs
        message = protocol.encode_shard_result(
            ShardResult(key="abc123", outcomes=())
        )
        assert "outcomes" not in message
        assert protocol.decode_shard_result(message).outcomes == ()

    def test_numpy_scalars_in_profile_snapshots(self):
        message = {
            "v": protocol.PROTOCOL_VERSION,
            "kind": "result",
            "id": "x",
            "results": [],
            "profile": {
                "retrain": {
                    "total_s": np.float64(1.5), "count": np.int64(3)
                },
                "flag": np.bool_(True),
            },
        }
        decoded = protocol.decode_message(protocol.encode_message(message))
        assert decoded["profile"]["retrain"] == {"total_s": 1.5, "count": 3}
        assert decoded["profile"]["flag"] is True


class TestFraming:
    def test_version_mismatch_rejected(self):
        # Version 1 peers (singular and plural snapshot fields) included.
        for version in (999, 1):
            line = json.dumps({"v": version, "kind": "hello"})
            with pytest.raises(ProtocolError, match="version mismatch"):
                protocol.decode_message(line)

    def test_undecodable_line_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message("[1, 2, 3]")

    def test_blank_lines_are_skipped_not_eof(self, tmp_path):
        # ssh channels can emit empty keepalive lines mid-conversation;
        # only a true EOF may read as "the worker is gone".
        path = tmp_path / "stream.jsonl"
        with path.open("w") as handle:
            handle.write("\n\n")
            protocol.write_message(
                handle, {"v": protocol.PROTOCOL_VERSION, "kind": "hello"}
            )
            handle.write("\n")
        with path.open() as handle:
            assert protocol.read_message(handle)["kind"] == "hello"
            assert protocol.read_message(handle) is None

    def test_stream_read_write(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with path.open("w") as handle:
            protocol.write_message(
                handle, {"v": protocol.PROTOCOL_VERSION, "kind": "hello"}
            )
            protocol.write_message(
                handle, {"v": protocol.PROTOCOL_VERSION, "kind": "shutdown"}
            )
        with path.open() as handle:
            first = protocol.read_message(handle)
            second = protocol.read_message(handle)
            third = protocol.read_message(handle)
        assert first["kind"] == "hello"
        assert second["kind"] == "shutdown"
        assert third is None
