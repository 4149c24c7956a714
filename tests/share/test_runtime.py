"""ClusterRuntime behavior: labels, warm starts, deltas, state codec."""

import numpy as np
import pytest

from repro.errors import SnapshotError
from repro.exec.shard import SystemCell
from repro.share.cluster import cluster_cells
from repro.share.policy import CLUSTER
from repro.share.runtime import (
    ClusterRuntime,
    active_cluster_runtime,
    decode_cluster_state,
    encode_cluster_state,
)


def cell(seed, scenario="S4", duration=240.0):
    return SystemCell(
        "DaCapo-Spatiotemporal", "resnet18_wrn50", scenario, seed, duration
    )


def state(value, shapes=((4, 3), (3,))):
    weights = [np.full(shapes[0], float(value))]
    biases = [np.full(shapes[1], float(value))]
    return (weights, biases)


class _FakeMLP:
    def __init__(self, value):
        self._state = state(value)

    def snapshot(self):
        return (
            [w.copy() for w in self._state[0]],
            [b.copy() for b in self._state[1]],
        )

    def restore(self, snap):
        self._state = snap


class TestActivation:
    def test_default_is_none(self):
        assert active_cluster_runtime() is None

    def test_activate_installs_and_resets(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            assert active_cluster_runtime() is runtime
            assert runtime._member == "S4/s0/240"
            assert runtime._tokens  # schedule tokens resolved
        assert active_cluster_runtime() is None
        assert runtime._member is None


class TestLabelSharing:
    def test_first_writer_publishes_neighbor_reads(self):
        runtime = ClusterRuntime("c0")
        x = np.ones((16, 4))
        y = np.arange(16)
        with runtime.activate(cell(0)):
            assert runtime.shared_labels(0.0) is None
            runtime.publish_labels(0.0, x, y)
            # The publisher itself never re-adopts its own labels.
            assert runtime.shared_labels(0.0) is None
        with runtime.activate(cell(1)):
            shared = runtime.shared_labels(0.0)
            assert shared is not None
            np.testing.assert_array_equal(shared[0], x)
            np.testing.assert_array_equal(shared[1], y)
        assert runtime.counters["labels_computed"] == 16
        assert runtime.counters["labels_shared"] == 16

    def test_different_slots_do_not_collide(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            runtime.publish_labels(0.0, np.ones((4, 2)), np.zeros(4))
        with runtime.activate(cell(1)):
            assert runtime.shared_labels(60.0) is None


class TestWarmStartAndDeltas:
    def test_first_member_founds_base_later_warm_start(self):
        runtime = ClusterRuntime("c0")
        founder = _FakeMLP(0.0)
        with runtime.activate(cell(0)):
            runtime.adopt_student("mlp", founder)
            assert runtime.base is not None
            runtime.publish_retrain(0.0, state(2.0), samples=100)
        neighbor = _FakeMLP(5.0)
        with runtime.activate(cell(1)):
            runtime.adopt_student("mlp", neighbor)
        # Neighbor starts from the freshest published weights, not init.
        np.testing.assert_allclose(neighbor.snapshot()[0][0], 2.0)
        assert runtime.counters["warm_starts"] == 1

    def test_retrain_reuse_is_base_plus_delta(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            runtime.adopt_student("mlp", _FakeMLP(1.0))
            runtime.publish_retrain(0.0, state(3.0), samples=10)
        with runtime.activate(cell(1)):
            reused = runtime.reusable_retrain(0.0, samples=10)
        assert reused is not None
        np.testing.assert_allclose(reused[0][0], 3.0)  # base 1 + delta 2
        assert runtime.counters["retrains_reused"] == 1
        assert runtime.counters["retrain_samples_reused"] == 10

    def test_own_delta_never_reused(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            runtime.adopt_student("mlp", _FakeMLP(1.0))
            runtime.publish_retrain(0.0, state(3.0), samples=10)
            assert runtime.reusable_retrain(0.0, samples=10) is None

    def test_divergent_deltas_blend(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            runtime.adopt_student("mlp", _FakeMLP(0.0))
            runtime.publish_retrain(0.0, state(2.0), samples=10)
        with runtime.activate(cell(1)):
            runtime.publish_retrain(0.0, state(4.0), samples=10)
        assert runtime.counters["merges"] == 1
        # alpha=0.5: blended delta (2 + 4) / 2 = 3 over base 0.
        entry = next(iter(runtime.deltas.values()))
        np.testing.assert_allclose(entry.delta[0][0], 3.0)


class TestStateCodec:
    def build(self):
        runtime = ClusterRuntime("c0")
        with runtime.activate(cell(0)):
            runtime.adopt_student("mlp", _FakeMLP(1.0))
            runtime.publish_retrain(0.0, state(3.0), samples=10)
        return runtime

    def test_roundtrip(self):
        runtime = self.build()
        payload = encode_cluster_state(runtime)
        decoded = decode_cluster_state(payload)
        assert decoded.cluster_id == "c0"
        assert decoded.base_model == runtime.base_model
        np.testing.assert_allclose(decoded.base[0][0], runtime.base[0][0])
        np.testing.assert_allclose(
            decoded.freshest[0][0], runtime.freshest[0][0]
        )
        assert set(decoded.deltas) == set(runtime.deltas)
        assert decoded.counters == runtime.counters
        # Labels are deliberately not journaled.
        assert not decoded.labels

    def test_roundtrip_survives_json(self):
        import json

        payload = json.loads(json.dumps(encode_cluster_state(self.build())))
        decoded = decode_cluster_state(payload)
        np.testing.assert_allclose(decoded.base[0][0], 1.0)

    def test_version_mismatch_is_typed(self):
        payload = encode_cluster_state(self.build())
        payload["version"] = 999
        with pytest.raises(SnapshotError):
            decode_cluster_state(payload)

    def test_malformed_is_typed(self):
        with pytest.raises(SnapshotError):
            decode_cluster_state({"version": 1})

    def test_state_under_a_disabled_policy_is_refused(self):
        # The journal names the policy its state was built under; a state
        # that claims no sharing cannot seed a runtime.
        payload = encode_cluster_state(self.build())
        assert payload["policy"] == CLUSTER.name
        for name in ("off", "bogus", None):
            payload["policy"] = name
            with pytest.raises(SnapshotError):
                decode_cluster_state(payload)


class TestClusterCellsHelper:
    def test_counters_start_zero(self):
        cells = [cell(s) for s in range(2)]
        assignment = cluster_cells(cells)
        runtime = ClusterRuntime(assignment.cluster_of(cells[0]))
        assert all(v == 0 for v in runtime.counters.values())
