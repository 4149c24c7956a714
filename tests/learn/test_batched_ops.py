"""Per-slice bit-identity of the batched kernels against the serial path.

The batched executor's whole contract rests on these identities: every
stacked primitive must produce, slice by slice, exactly the bytes the
serial code produces.  No tolerances anywhere -- ``array_equal`` on the
raw float arrays.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learn import MLPClassifier, TrainConfig, train_sgd
from repro.learn.mlp import BatchedMLPBank
from repro.learn.ops import (
    batched_cross_entropy_grad,
    batched_cross_entropy_loss,
    cross_entropy_grad,
    cross_entropy_loss,
    dispatch_count,
    reset_dispatch,
)
from repro.learn.train import train_sgd_batched
from repro.mx import MX6, MX9

K = 4


def cast(model, dtype):
    """A model built from ``model``'s parameters cast to ``dtype``."""
    return MLPClassifier(
        weights=[w.astype(dtype) for w in model.weights],
        biases=[b.astype(dtype) for b in model.biases],
    )


def make_models(k=K, in_dim=6, hidden=(8,), classes=3, dtype=np.float64):
    return [
        cast(
            MLPClassifier.create(
                in_dim, hidden, classes, np.random.default_rng(100 + seed)
            ),
            dtype,
        )
        for seed in range(k)
    ]


def make_batches(k=K, n=32, in_dim=6, classes=3):
    xs, ys = [], []
    for seed in range(k):
        rng = np.random.default_rng(500 + seed)
        xs.append(rng.normal(size=(n, in_dim)))
        ys.append(rng.integers(0, classes, size=n))
    return xs, ys


class TestBatchedCrossEntropy:
    def test_loss_matches_per_slice(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(K, 16, 5))
        labels = rng.integers(0, 5, size=(K, 16))
        batched = batched_cross_entropy_loss(logits, labels)
        assert batched.shape == (K,)
        for k in range(K):
            serial = cross_entropy_loss(logits[k], labels[k])
            assert batched[k] == serial

    def test_grad_matches_per_slice(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(K, 16, 5))
        labels = rng.integers(0, 5, size=(K, 16))
        batched = batched_cross_entropy_grad(logits, labels)
        for k in range(K):
            serial = cross_entropy_grad(logits[k], labels[k])
            assert np.array_equal(batched[k], serial)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            batched_cross_entropy_loss(
                np.zeros((2, 4, 3)), np.zeros((2, 5), dtype=int)
            )
        with pytest.raises(ConfigurationError):
            batched_cross_entropy_grad(
                np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=int)
            )


class TestBatchedBankForward:
    @pytest.mark.parametrize("fmt,sensitivity", [
        (None, 1.0), (MX9, 1.0), (MX6, 0.5),
    ])
    def test_forward_matches_per_slice(self, fmt, sensitivity):
        models = make_models()
        xs, _ = make_batches()
        stacked = np.stack(xs)
        bank = BatchedMLPBank(models)
        logits = bank.forward(stacked, fmt, sensitivity)
        for k, model in enumerate(models):
            serial = model.forward(xs[k], fmt, sensitivity)
            assert np.array_equal(logits[k], serial)

    def test_forward_float32_models(self):
        models = make_models(dtype=np.float32)
        xs, _ = make_batches()
        logits = BatchedMLPBank(models).forward(np.stack(xs), MX9, 1.0)
        assert logits.dtype == np.float32
        for k, model in enumerate(models):
            assert np.array_equal(logits[k], model.forward(xs[k], MX9, 1.0))

    def test_stack_cache_tracks_weight_versions(self):
        models = make_models()
        xs, ys = make_batches()
        bank = BatchedMLPBank(models)
        before = bank.forward(np.stack(xs), MX9, 1.0)
        # Mutate one member through the serial trainer; the bank must
        # restack instead of serving stale weights.
        rng = np.random.default_rng(9)
        train_sgd(models[0], xs[0], ys[0], TrainConfig(epochs=1), rng)
        after = bank.forward(np.stack(xs), MX9, 1.0)
        assert not np.array_equal(before[0], after[0])
        assert np.array_equal(after[0], models[0].forward(xs[0], MX9, 1.0))

    def test_geometry_and_dtype_validation(self):
        rng = np.random.default_rng(3)
        a = MLPClassifier.create(6, (8,), 3, rng)
        b = MLPClassifier.create(6, (9,), 3, rng)
        with pytest.raises(ConfigurationError):
            BatchedMLPBank([a, b])
        with pytest.raises(ConfigurationError):
            BatchedMLPBank([a, cast(a, np.float32)])
        with pytest.raises(ConfigurationError):
            BatchedMLPBank([])


class TestBatchedTrain:
    @pytest.mark.parametrize("fmt", [None, MX9], ids=["fp", "mx9"])
    def test_train_matches_per_slice(self, fmt):
        config = TrainConfig(5e-2, 16, epochs=3, fmt=fmt)
        serial_models = make_models()
        batched_models = make_models()
        xs, ys = make_batches()
        serial_losses = [
            train_sgd(
                model, xs[k], ys[k], config, np.random.default_rng(40 + k)
            )
            for k, model in enumerate(serial_models)
        ]
        batched_losses = train_sgd_batched(
            batched_models,
            xs,
            ys,
            config,
            [np.random.default_rng(40 + k) for k in range(K)],
        )
        assert batched_losses == serial_losses
        for serial, batched in zip(serial_models, batched_models):
            for w_s, w_b in zip(serial.weights, batched.weights):
                assert np.array_equal(w_s, w_b)
            for b_s, b_b in zip(serial.biases, batched.biases):
                assert np.array_equal(b_s, b_b)

    def test_forward_after_batched_train_matches(self):
        # The quantized-weight cache must be invalidated by the scatter.
        config = TrainConfig(5e-2, 16, epochs=2, fmt=MX9)
        serial = make_models(k=1)[0]
        batched = make_models(k=2)
        xs, ys = make_batches(k=2)
        train_sgd(serial, xs[0], ys[0], config, np.random.default_rng(7))
        train_sgd_batched(
            batched, xs, ys, config,
            [np.random.default_rng(7), np.random.default_rng(8)],
        )
        probe = xs[0][:5]
        assert np.array_equal(
            serial.forward(probe, MX9, 1.0), batched[0].forward(probe, MX9, 1.0)
        )

    def test_validation(self):
        models = make_models(k=2)
        xs, ys = make_batches(k=2)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ConfigurationError):
            train_sgd_batched(models, xs[:1], ys, TrainConfig(), rngs)
        with pytest.raises(ConfigurationError):
            train_sgd_batched([], [], [], TrainConfig(), [])
        ragged = [xs[0], xs[1][:-1]]
        with pytest.raises(ConfigurationError):
            train_sgd_batched(models, ragged, ys, TrainConfig(), rngs)


class TestDispatchCounter:
    def test_batched_forward_dispatches_fewer_calls(self):
        models = make_models()
        xs, _ = make_batches()
        stacked = np.stack(xs)
        bank = BatchedMLPBank(models)
        bank.forward(stacked, MX9, 1.0)  # warm the weight-stack cache
        for model in models:
            model.forward(xs[0], MX9, 1.0)  # warm per-model quant caches
        reset_dispatch()
        for k, model in enumerate(models):
            model.forward(xs[k], MX9, 1.0)
        serial_calls = dispatch_count()
        reset_dispatch()
        bank.forward(stacked, MX9, 1.0)
        batched_calls = dispatch_count()
        assert serial_calls == K * batched_calls
