"""Run-state snapshots: bit-identical incremental execution.

The contract under test: chaining ``run_job`` window by window -- each
window resuming the previous window's encoded snapshot -- produces
results byte-identical to full prefix runs, across every scheduler
family, for one window's work per window; and any snapshot a run must
*not* resume from (wrong version, policy, cell, seed, or an unaligned
origin) is refused with :class:`SnapshotError` so callers fall back to
the prefix run.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.arrays import decode_array, encode_array
from repro.core.buffer import SampleBuffer
from repro.core.snapshot import (
    SNAPSHOT_VERSION,
    decode_run_snapshot,
    encode_run_snapshot,
    stream_prefix_aligned,
)
from repro.data.scenarios import SEGMENT_S
from repro.errors import ScheduleError, SnapshotError
from repro.exec.shard import (
    CellJob,
    SystemCell,
    run_cell,
    run_job,
    warm_model_caches,
)
from repro.learn.ops import dispatch_count, reset_dispatch
from repro.numeric import active_policy
from repro.reference import run_digest

PAIR = "resnet18_wrn50"


def run_incremental(cell, snapshot=None, emit_snapshot=False):
    """``(result, snapshot)`` of one resumable job."""
    outcome = run_job(
        CellJob(cell, snapshot=snapshot, emit_snapshot=emit_snapshot)
    )
    return outcome.result, outcome.snapshot


def chain_windows(cell, window_s):
    """Run ``cell`` window by window, resuming each from the last snapshot."""
    total = cell.duration_s
    results = []
    snapshot = None
    end = window_s
    while end <= total + 1e-9:
        result, snapshot = run_incremental(
            replace(cell, duration_s=float(end)),
            snapshot=snapshot,
            emit_snapshot=True,
        )
        results.append(result)
        end += window_s
    return results


class TestRngConcatenation:
    def test_split_draws_match_one_draw(self):
        # The property idle-resume leans on: PCG64 draws concatenate.
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        whole = a.random(100)
        parts = np.concatenate([b.random(60), b.random(40)])
        np.testing.assert_array_equal(whole, parts)

    def test_state_roundtrips_through_json(self):
        rng = np.random.default_rng(3)
        rng.random(17)
        state = json.loads(json.dumps(rng.bit_generator.state))
        clone = np.random.default_rng(0)
        clone.bit_generator.state = state
        np.testing.assert_array_equal(rng.random(8), clone.random(8))


class TestArrayCodec:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.zeros((0, 5), dtype=np.float32),
            np.array([True, False, True]),
            np.arange(6, dtype=np.int64),
        ],
    )
    def test_roundtrip_exact(self, array):
        payload = json.loads(json.dumps(encode_array(array)))
        out = decode_array(payload)
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        np.testing.assert_array_equal(out, array)


class TestBufferSnapshot:
    def test_roundtrip_and_isolation(self):
        rng = np.random.default_rng(0)
        buffer = SampleBuffer(capacity=8, feature_dim=4)
        buffer.add(rng.standard_normal((5, 4)), np.arange(5) % 3)
        features, labels = buffer.snapshot()
        other = SampleBuffer(capacity=8, feature_dim=4)
        other.restore(features, labels)
        assert len(other) == len(buffer)
        # The snapshot is a copy: mutating it must not reach the buffer.
        features[:] = 0.0
        restored, _ = other.snapshot()
        assert not np.allclose(restored, 0.0)

    def test_restore_rejects_wrong_shape(self):
        buffer = SampleBuffer(capacity=8, feature_dim=4)
        with pytest.raises(ScheduleError):
            buffer.restore(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))


class TestAlignment:
    def test_segment_boundaries_are_aligned(self):
        assert stream_prefix_aligned(SEGMENT_S)
        assert stream_prefix_aligned(4 * SEGMENT_S)

    def test_everything_else_is_not(self):
        assert not stream_prefix_aligned(0.0)
        assert not stream_prefix_aligned(-SEGMENT_S)
        assert not stream_prefix_aligned(SEGMENT_S / 2)
        assert not stream_prefix_aligned(SEGMENT_S + 1.0)


class TestDecodeRejections:
    @pytest.fixture(scope="class")
    def snapshot(self):
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 60.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        assert snapshot is not None
        return snapshot

    def kwargs(self, **overrides):
        base = dict(
            policy=active_policy().name,
            system="DaCapo-Ekya",
            scenario="S1",
            seed=0,
            duration_s=120.0,
        )
        base.update(overrides)
        return base

    def test_accepts_the_matching_run(self, snapshot):
        checkpoint = decode_run_snapshot(snapshot, **self.kwargs())
        # The safe point is wherever the last untruncated phase ended --
        # anywhere inside the origin run, never past it.
        assert 0.0 <= checkpoint.clock <= 60.0
        assert len(checkpoint.correct) == len(checkpoint.dropped)

    def test_json_roundtrip_still_accepted(self, snapshot):
        payload = json.loads(json.dumps(snapshot))
        decode_run_snapshot(payload, **self.kwargs())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("system", "DaCapo-Spatiotemporal"),
            ("scenario", "S4"),
            ("policy", "no-such-policy"),
            ("seed", 1),
        ],
    )
    def test_identity_mismatch_raises(self, snapshot, field, value):
        with pytest.raises(SnapshotError):
            decode_run_snapshot(snapshot, **self.kwargs(**{field: value}))

    def test_version_bump_forces_recompute(self, snapshot):
        stale = dict(snapshot, v=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError):
            decode_run_snapshot(stale, **self.kwargs())

    def test_unaligned_origin_refused(self, snapshot):
        skewed = dict(snapshot, origin_duration_s=45.0)
        with pytest.raises(SnapshotError):
            decode_run_snapshot(skewed, **self.kwargs())

    def test_clock_past_target_refused(self, snapshot):
        ahead = dict(snapshot, clock=60.0)
        with pytest.raises(SnapshotError):
            decode_run_snapshot(ahead, **self.kwargs(duration_s=30.0))

    def test_malformed_payload_raises_snapshot_error(self, snapshot):
        broken = dict(snapshot)
        del broken["rng"]
        with pytest.raises(SnapshotError, match="malformed"):
            decode_run_snapshot(broken, **self.kwargs())


@pytest.mark.parametrize(
    "cell",
    [
        SystemCell("DaCapo-Spatiotemporal", PAIR, "S4", 0, 240.0),
        SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 240.0),
        SystemCell("OrinHigh-EOMU", PAIR, "S4", 0, 240.0),
        SystemCell("OrinLow-Ekya", PAIR, "S1", 0, 240.0),
        pytest.param(
            SystemCell("OrinHigh-Student", PAIR, "S4", 0, 240.0),
            id="fig2-student",
        ),
        pytest.param(
            SystemCell("OrinHigh-Ekya", PAIR, "S4", 0, 240.0), id="fig2-ekya"
        ),
    ],
    ids=lambda cell: cell.system,
)
class TestIncrementalBitIdentity:
    def test_windows_match_prefix_runs(self, cell):
        # Every scheduler family: each resumed window's digest equals the
        # stateless prefix run's at the same duration.
        chained = chain_windows(cell, window_s=60.0)
        assert len(chained) == 4
        for i, result in enumerate(chained):
            prefix = run_cell(replace(cell, duration_s=60.0 * (i + 1)))
            assert run_digest(result) == run_digest(prefix), f"window {i}"


class TestIncrementalWork:
    def test_windows_cost_one_window_each(self):
        # O(W) total instead of O(W^2), counted rather than timed: eight
        # chained 60 s windows make at least 2x fewer numpy dispatches
        # than the eight matching prefix runs (2,213 against 8,633), and
        # no window after the first makes more than the last, longest
        # prefix run does (712 at most, against 2,149).
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 480.0)
        warm_model_caches([cell])
        prefix_calls, window_calls = [], []
        snapshot = None
        for i in range(8):
            window = replace(cell, duration_s=60.0 * (i + 1))
            reset_dispatch()
            prefix = run_cell(window)
            prefix_calls.append(dispatch_count())
            reset_dispatch()
            result, snapshot = run_incremental(
                window, snapshot=snapshot, emit_snapshot=True
            )
            window_calls.append(dispatch_count())
            assert run_digest(result) == run_digest(prefix), f"window {i}"
        assert sum(prefix_calls) >= 2 * sum(window_calls), (
            prefix_calls, window_calls,
        )
        assert max(window_calls[1:]) <= prefix_calls[-1], (
            prefix_calls, window_calls,
        )


class TestIncrementalFallbacks:
    def test_unaligned_duration_emits_no_snapshot(self):
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 90.0)
        result, snapshot = run_incremental(cell, emit_snapshot=True)
        assert snapshot is None
        assert run_digest(result) == run_digest(run_cell(cell))

    def test_bad_snapshot_falls_back_to_prefix(self):
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 60.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        longer = replace(cell, duration_s=120.0)
        stale = dict(snapshot, v=SNAPSHOT_VERSION + 1)
        result, _ = run_incremental(longer, snapshot=stale)
        assert run_digest(result) == run_digest(run_cell(longer))

    def test_phase_ending_before_it_starts_falls_back_to_prefix(self):
        # A phase record the phase type itself refuses is a bad snapshot
        # like any other: the run falls back, it does not raise.
        cell = SystemCell("DaCapo-Spatiotemporal", PAIR, "S4", 0, 120.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        bad = json.loads(json.dumps(snapshot))
        assert bad["phases"]
        bad["phases"][0]["end_s"] = bad["phases"][0]["start_s"] - 1.0
        with pytest.raises(SnapshotError, match="malformed"):
            decode_run_snapshot(
                bad,
                policy=active_policy().name,
                system=cell.system,
                scenario=cell.scenario,
                seed=cell.seed,
                duration_s=180.0,
            )
        longer = replace(cell, duration_s=180.0)
        result, _ = run_incremental(longer, snapshot=bad)
        assert run_digest(result) == run_digest(run_cell(longer))

    def test_non_bool_frame_flags_fall_back_to_prefix(self):
        # Flags cast into the bool prefix would resume a different run.
        cell = SystemCell("DaCapo-Spatiotemporal", PAIR, "S4", 0, 120.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        bad = json.loads(json.dumps(snapshot))
        correct = decode_array(bad["correct"])
        assert len(correct)
        bad["correct"] = encode_array(np.full(len(correct), 0.5))
        longer = replace(cell, duration_s=180.0)
        result, _ = run_incremental(longer, snapshot=bad)
        assert run_digest(result) == run_digest(run_cell(longer))

    def test_corrupt_weights_fall_back_to_prefix(self):
        # Decode succeeds but restore blows up mid-way: the run must be
        # rebuilt fresh, not resumed from half-restored state.
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 60.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        longer = replace(cell, duration_s=120.0)
        corrupt = json.loads(json.dumps(snapshot))
        corrupt["correct"] = encode_array(np.zeros(3, dtype=bool))
        result, _ = run_incremental(longer, snapshot=corrupt)
        assert run_digest(result) == run_digest(run_cell(longer))


def _set(path, value):
    """A damage that sets ``path`` (keys and indices) to ``value(old)``."""
    def damage(payload):
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value(target[last])
        return payload
    return damage


class TestDamagedSnapshots:
    """A damaged snapshot falls back to the prefix run instead of raising.

    A 60 s snapshot resumes the same run to 120 s.  Each damage but the
    last once raised out of ``run_job``; the last is a snapshot from a
    session run under the removed float32 policy.
    """

    CELL = SystemCell("DaCapo-Ekya", PAIR, "S1", 0, 60.0)

    @pytest.fixture(scope="class")
    def snapshot(self):
        _, snapshot = run_incremental(self.CELL, emit_snapshot=True)
        assert snapshot is not None
        return snapshot

    @pytest.fixture(scope="class")
    def prefix_digest(self):
        return run_digest(run_cell(replace(self.CELL, duration_s=120.0)))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: [payload],
            _set(["rng"], lambda rng: {
                key: value for key, value in rng.items() if key != "state"
            }),
            _set(["rng", "bit_generator"], lambda _: "MT19937"),
            _set(["rng"], lambda _: "PCG64"),
            _set(["student", "weights", 0, "shape"], lambda s: s[::-1]),
            _set(["student", "weights"], lambda weights: weights[:-1]),
            _set(["buffer", "features"], lambda _: encode_array(
                np.zeros((0, 3))
            )),
            _set(["scheduler", "used"], lambda _: "x"),
            _set(["policy"], lambda _: "float32"),
        ],
        ids=[
            "payload-is-a-list",
            "rng-without-state",
            "rng-mt19937",
            "rng-is-a-string",
            "student-weight-transposed",
            "student-one-layer-short",
            "buffer-features-too-narrow",
            "scheduler-value-not-a-number",
            "policy-float32",
        ],
    )
    def test_falls_back_to_prefix(self, snapshot, prefix_digest, damage):
        damaged = damage(json.loads(json.dumps(snapshot)))
        longer = replace(self.CELL, duration_s=120.0)
        result, _ = run_incremental(longer, snapshot=damaged)
        assert run_digest(result) == prefix_digest


class TestEncodeIdentity:
    def test_payload_names_its_run(self):
        cell = SystemCell("DaCapo-Ekya", PAIR, "S1", 3, 60.0)
        _, snapshot = run_incremental(cell, emit_snapshot=True)
        assert snapshot["v"] == SNAPSHOT_VERSION
        assert snapshot["system"] == "DaCapo-Ekya"
        assert snapshot["scenario"] == "S1"
        assert snapshot["seed"] == 3
        assert snapshot["policy"] == active_policy().name
        assert snapshot["origin_duration_s"] == 60.0
        # JSON-safe end to end: the service journals this payload as-is.
        json.dumps(snapshot)
