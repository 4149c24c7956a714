"""SGD training loop with the paper's retraining hyperparameters.

Section VII-A: learning rate 1e-3, SGD, batch size 16.  The loop shuffles
each epoch and reports per-epoch mean loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batching import current_lane
from repro.errors import ConfigurationError
from repro.learn.mlp import MLPClassifier
from repro.learn.ops import (
    add_dispatch,
    batched_cross_entropy_grad,
    batched_cross_entropy_loss,
    relu,
    relu_grad,
)
from repro.learn.quantized import quantize_operands
from repro.mx import MXFormat

__all__ = [
    "TRAINER_VERSION",
    "TrainConfig",
    "train_sgd",
    "train_sgd_batched",
]

#: Version of the training-loop numerics.  Bump whenever a change to this
#: module (or anything it calls) can alter trained weights at a fixed seed;
#: the on-disk pretrained-model cache keys on it (:mod:`repro.learn.cache`).
TRAINER_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (paper defaults).

    Attributes:
        learning_rate: SGD step size (paper: 1e-3).
        batch_size: Mini-batch size (paper: 16).
        epochs: Passes over the retraining set.
        fmt: MX precision of training compute (None = FP32).
        sensitivity: Model precision-sensitivity multiplier.
    """

    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 1
    fmt: MXFormat | None = None
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")


def train_sgd(
    model: MLPClassifier,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Train ``model`` in place; returns per-epoch mean losses.

    The batch is cast once to the model's own dtype; per-epoch loss means
    accumulate in float64 whatever that dtype is (they are Python floats
    from :func:`~repro.learn.ops.cross_entropy_loss`).

    Under the batched executor a lane is installed on this thread and the
    call routes through the lockstep conductor, which either runs it as
    one slice of :func:`train_sgd_batched` (bit-identical) or falls back
    to this exact serial body.
    """
    lane = current_lane()
    if lane is not None:
        return lane.train(model, x, y, config, rng)
    x = np.asarray(x, dtype=model.dtype)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ConfigurationError("features and labels must align")
    if len(x) == 0:
        raise ConfigurationError("cannot train on an empty dataset")

    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        # One gather per epoch; batches below are contiguous views into the
        # shuffled copies instead of per-batch fancy-index copies.
        x_epoch = x[order]
        y_epoch = y[order]
        epoch_losses: list[float] = []
        for start in range(0, len(x), config.batch_size):
            stop = start + config.batch_size
            loss = model.train_step(
                x_epoch[start:stop],
                y_epoch[start:stop],
                lr=config.learning_rate,
                fmt=config.fmt,
                sensitivity=config.sensitivity,
            )
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return losses


def _train_step_batched(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
) -> np.ndarray:
    """One stacked SGD step; returns per-model pre-step losses ``(K,)``.

    ``weights``/``biases`` are per-layer ``(K, in, out)`` / ``(K, out)``
    stacks, updated in place (the list slots are rebound to the stepped
    arrays).  Every line is the stacked spelling of the corresponding
    :meth:`MLPClassifier.train_step` line, in the same order, so slice
    ``k`` evolves bitwise as model ``k`` would:

    - each layer makes one fused MX fake-quantize call
      (:func:`~repro.learn.quantized.quantize_operands`), as the serial
      step does: the activation stack ``(K, n, in)`` and the transposed
      weight stack ``(K, out, in)`` are quantized as one
      ``(K, n + out, in)`` stack, and the kernel reduces along the
      trailing axis only, so slice ``k`` of that call equals model
      ``k``'s own fused call;
    - equal-shape batched matmul, broadcast bias add, relu, and the
      take/put-along-axis cross-entropy are all per-slice identical;
    - the backward pass differentiates through the *unquantized*
      pre-update weights, exactly as the serial step does.
    """
    fmt, sensitivity = config.fmt, config.sensitivity
    lr = config.learning_rate
    num_layers = len(weights)

    inputs: list[np.ndarray] = []
    pre_acts: list[np.ndarray] = []
    h = x
    for i in range(num_layers):
        if fmt is not None:
            add_dispatch()
        h_q, w_q = quantize_operands(h, weights[i], fmt, sensitivity)
        inputs.append(h_q)
        add_dispatch()
        z = np.matmul(h_q, w_q) + biases[i][:, None, :]
        pre_acts.append(z)
        h = relu(z) if i < num_layers - 1 else z

    loss = batched_cross_entropy_loss(h, y)

    grad = batched_cross_entropy_grad(h, y)
    for i in reversed(range(num_layers)):
        if i < num_layers - 1:
            add_dispatch()
            grad = grad * relu_grad(pre_acts[i])
        add_dispatch(5)
        grad_w = np.matmul(inputs[i].transpose(0, 2, 1), grad)
        grad_b = grad.sum(axis=1)
        grad = np.matmul(grad, weights[i].transpose(0, 2, 1))
        weights[i] = weights[i] - lr * grad_w
        biases[i] = biases[i] - lr * grad_b
    return loss


def train_sgd_batched(
    models: list[MLPClassifier],
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    config: TrainConfig,
    rngs: list[np.random.Generator],
) -> list[list[float]]:
    """Train K same-geometry models in lockstep; one numpy call per site.

    Member ``k`` trains on ``(xs[k], ys[k])`` with its own ``rngs[k]``
    driving the epoch shuffles, and ends bitwise identical to what
    ``train_sgd(models[k], xs[k], ys[k], config, rngs[k])`` would have
    produced -- the grouping precondition (identical feature/label shapes
    across members, shared geometry and dtype) is what makes the stacked
    kernels slice-exact, and the conductor only builds groups that satisfy
    it.  Returns per-model per-epoch mean losses.
    """
    if not (len(models) == len(xs) == len(ys) == len(rngs)):
        raise ConfigurationError("models, data, and rngs must align")
    if not models:
        raise ConfigurationError("cannot train an empty model group")
    dtype = models[0].dtype
    cast = [np.asarray(x, dtype=dtype) for x in xs]
    labels = [np.asarray(y) for y in ys]
    for x, y in zip(cast, labels):
        if len(x) != len(y):
            raise ConfigurationError("features and labels must align")
        if len(x) == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        if x.shape != cast[0].shape or y.shape != labels[0].shape:
            raise ConfigurationError("batched members must share data shapes")

    num_layers = models[0].num_layers
    num = len(cast[0])
    count = len(models)
    x_all = np.stack(cast)
    y_all = np.stack(labels)
    weights = [
        np.stack([m.weights[i] for m in models]) for i in range(num_layers)
    ]
    biases = [
        np.stack([m.biases[i] for m in models]) for i in range(num_layers)
    ]

    losses: list[list[float]] = [[] for _ in range(count)]
    rows = np.arange(count)[:, None]
    for _ in range(config.epochs):
        # Each member's shuffle comes from its own generator, consuming
        # exactly the draws its serial loop would.
        orders = np.stack([rng.permutation(num) for rng in rngs])
        add_dispatch()
        x_epoch = x_all[rows, orders]
        y_epoch = y_all[rows, orders]
        epoch_losses: list[list[float]] = [[] for _ in range(count)]
        for start in range(0, num, config.batch_size):
            stop = start + config.batch_size
            # The serial loop hands train_step a contiguous view of the
            # shuffled copy; a mid-axis slice of the stack is strided, so
            # copy to match the serial operands' layout exactly.
            x_batch = np.ascontiguousarray(x_epoch[:, start:stop])
            y_batch = np.ascontiguousarray(y_epoch[:, start:stop])
            step_losses = _train_step_batched(
                weights, biases, x_batch, y_batch, config
            )
            for k in range(count):
                epoch_losses[k].append(float(step_losses[k]))
        for k in range(count):
            losses[k].append(float(np.mean(epoch_losses[k])))

    for k, model in enumerate(models):
        model.weights = [weights[i][k].copy() for i in range(num_layers)]
        model.biases = [biases[i][k].copy() for i in range(num_layers)]
        model.invalidate_quantization_cache()
    return losses
