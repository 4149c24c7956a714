"""Tests for the MLP classifier, including end-to-end gradient checking."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learn import MLPClassifier
from repro.learn.ops import cross_entropy_loss
from repro.mx import MX6, MX9


def make_mlp(seed=0, hidden=(8,), classes=4, dim=6):
    return MLPClassifier.create(dim, hidden, classes, np.random.default_rng(seed))


class TestConstruction:
    def test_layer_shapes(self):
        mlp = make_mlp(hidden=(8, 5))
        assert [w.shape for w in mlp.weights] == [(6, 8), (8, 5), (5, 4)]
        assert mlp.num_classes == 4
        assert mlp.num_layers == 3

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier.create(0, (4,), 3, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            MLPClassifier.create(4, (4,), 1, np.random.default_rng(0))


class TestForward:
    def test_logit_shape(self):
        mlp = make_mlp()
        logits = mlp.forward(np.zeros((10, 6)))
        assert logits.shape == (10, 4)

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            make_mlp().forward(np.zeros(6))

    def test_quantized_forward_differs_slightly(self):
        mlp = make_mlp()
        x = np.random.default_rng(1).normal(size=(20, 6))
        fp = mlp.forward(x)
        q = mlp.forward(x, fmt=MX6)
        assert not np.allclose(fp, q)
        assert np.allclose(fp, q, atol=0.5)

    def test_sensitivity_scales_quantization_error(self):
        mlp = make_mlp()
        x = np.random.default_rng(2).normal(size=(20, 6))
        fp = mlp.forward(x)
        err1 = np.abs(mlp.forward(x, fmt=MX6, sensitivity=1.0) - fp).mean()
        err3 = np.abs(mlp.forward(x, fmt=MX6, sensitivity=3.0) - fp).mean()
        assert err3 > err1

    def test_predict_returns_class_indices(self):
        mlp = make_mlp()
        preds = mlp.predict(np.random.default_rng(3).normal(size=(30, 6)))
        assert preds.min() >= 0 and preds.max() < 4

    def test_accuracy_empty_is_zero(self):
        assert make_mlp().accuracy(np.zeros((0, 6)), np.zeros(0)) == 0.0


class TestTrainStep:
    def test_gradient_check_through_network(self):
        # Numerically verify dLoss/dW for every parameter of a tiny net.
        mlp = MLPClassifier.create(3, (4,), 3, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(5, 3))
        y = np.array([0, 1, 2, 0, 1])

        # Analytic step with lr=1 equals the negative gradient.
        reference = mlp.clone()
        mlp.train_step(x, y, lr=1.0)
        analytic_grads = [
            ref_w - new_w
            for ref_w, new_w in zip(reference.weights, mlp.weights)
        ]

        eps = 1e-6
        for layer, grad in enumerate(analytic_grads):
            flat = grad.ravel()
            for idx in range(0, flat.size, 3):  # spot-check every 3rd entry
                probe = reference.clone()
                shape = probe.weights[layer].shape
                bump = np.zeros(shape).ravel()
                bump[idx] = eps
                probe.weights[layer] = probe.weights[layer] + bump.reshape(
                    shape
                )
                loss_plus = cross_entropy_loss(probe.forward(x), y)
                loss_base = cross_entropy_loss(reference.forward(x), y)
                numeric = (loss_plus - loss_base) / eps
                assert flat[idx] == pytest.approx(numeric, abs=1e-4)

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-3, 1, (50, 6)), rng.normal(3, 1, (50, 6))])
        y = np.array([0] * 50 + [1] * 50)
        mlp = MLPClassifier.create(6, (8,), 2, rng)
        first = mlp.train_step(x, y, lr=0.1)
        for _ in range(50):
            last = mlp.train_step(x, y, lr=0.1)
        assert last < first
        assert mlp.accuracy(x, y) > 0.95

    def test_invalid_lr(self):
        with pytest.raises(ConfigurationError):
            make_mlp().train_step(np.zeros((2, 6)), np.zeros(2, dtype=int), lr=0)

    def test_empty_batch(self):
        with pytest.raises(ConfigurationError):
            make_mlp().train_step(np.zeros((0, 6)), np.zeros(0, dtype=int), lr=0.1)


class TestSnapshot:
    def test_snapshot_restore_round_trip(self):
        mlp = make_mlp()
        state = mlp.snapshot()
        x = np.random.default_rng(7).normal(size=(20, 6))
        y = np.random.default_rng(8).integers(0, 4, 20)
        mlp.train_step(x, y, lr=0.5)
        changed = mlp.forward(x)
        mlp.restore(state)
        np.testing.assert_array_equal(
            mlp.forward(x), MLPClassifier(*state).forward(x)
        )
        assert not np.allclose(mlp.forward(x), changed)

    def test_snapshot_is_deep(self):
        mlp = make_mlp()
        state = mlp.snapshot()
        mlp.weights[0][0, 0] += 100.0
        assert state[0][0][0, 0] != mlp.weights[0][0, 0]

    def test_restore_shape_mismatch(self):
        mlp = make_mlp()
        other = make_mlp(hidden=(8, 8))
        with pytest.raises(ConfigurationError):
            mlp.restore(other.snapshot())

    def test_clone_is_independent(self):
        mlp = make_mlp()
        twin = mlp.clone()
        mlp.weights[0][0, 0] += 1.0
        assert twin.weights[0][0, 0] != mlp.weights[0][0, 0]
