"""A plain MLP classifier with hand-written backpropagation.

The behavioural proxy for every student/teacher model.  Supports optional
MX precision injection on weights and activations during the forward pass
(see :mod:`repro.learn.quantized`), mirroring how the DaCapo hardware
executes inference at MX6 and training at MX9.

Weight quantization is cached for inference: between parameter updates
the weights are immutable, so the per-layer ``effective_quantize`` result
is computed once and reused across every forward pass (inference phases
re-quantize nothing).  The cache is invalidated whenever
:meth:`train_step` or :meth:`restore` mutates the parameters; callers that
assign ``weights``/``biases`` directly must call
:meth:`invalidate_quantization_cache` themselves.  Training steps bypass
the cache: every step changes the weights, so each layer's weight is
quantized together with its input activation in one
:func:`~repro.learn.quantized.quantize_operands` call instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.batching import current_lane
from repro.errors import ConfigurationError
from repro.learn.ops import (
    add_dispatch,
    cross_entropy_grad,
    cross_entropy_loss,
    he_init,
    relu,
    relu_grad,
)
from repro.learn.quantized import effective_quantize, quantize_operands
from repro.mx import MXFormat

__all__ = ["BatchedMLPBank", "MLPClassifier"]


@dataclass
class MLPClassifier:
    """Fully connected ReLU classifier.

    Attributes:
        weights: Per-layer weight matrices.
        biases: Per-layer bias vectors.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    #: Per-(layer, format, sensitivity) quantized weights, valid until the
    #: next parameter mutation.
    _wq_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Mutation counter: bumped on every cache invalidation so a
    #: :class:`BatchedMLPBank` can key its stacked-weight cache on the
    #: member versions instead of re-stacking every round.
    _version: int = field(default=0, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        input_dim: int,
        hidden_sizes: tuple[int, ...],
        num_classes: int,
        rng: np.random.Generator,
    ) -> "MLPClassifier":
        """He-initialized network ``input -> hidden... -> classes``."""
        if input_dim < 1 or num_classes < 2:
            raise ConfigurationError("invalid MLP dimensions")
        dims = (input_dim, *hidden_sizes, num_classes)
        weights = [
            he_init(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]
        biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
        return cls(weights=weights, biases=biases)

    @property
    def dtype(self) -> np.dtype:
        """The dtype parameters and activations are carried in.

        Float64 from :meth:`create`; a model built from arrays carries
        theirs.  Inputs are cast to it on entry.
        """
        return self.weights[0].dtype

    @property
    def num_classes(self) -> int:
        """Output width."""
        return self.weights[-1].shape[1]

    @property
    def num_layers(self) -> int:
        """Number of weight layers."""
        return len(self.weights)

    def invalidate_quantization_cache(self) -> None:
        """Drop cached quantized weights (call after mutating parameters)."""
        self._wq_cache.clear()
        self._version += 1

    def _quantized_weight(
        self, layer: int, fmt: MXFormat | None, sensitivity: float
    ) -> np.ndarray:
        """The layer's weights under MX precision, cached until mutation."""
        if fmt is None:
            return self.weights[layer]
        key = (layer, fmt, sensitivity)
        w_q = self._wq_cache.get(key)
        if w_q is None:
            add_dispatch()
            w_q = effective_quantize(
                self.weights[layer], fmt, sensitivity, axis=0
            )
            self._wq_cache[key] = w_q
        return w_q

    def forward(
        self,
        x: np.ndarray,
        fmt: MXFormat | None = None,
        sensitivity: float = 1.0,
    ) -> np.ndarray:
        """Logits for a batch, optionally under MX precision.

        Quantization (when ``fmt`` is given) is applied to the weights and
        to every layer's input activations, which is where the hardware
        applies it.

        Under the batched executor a lane is installed on this thread and
        the call is routed through the lockstep conductor instead; the
        result is bit-identical (the conductor either stacks it with the
        other lanes' identically-shaped calls or falls back to this exact
        serial body).
        """
        lane = current_lane()
        if lane is not None:
            return lane.forward(self, x, fmt, sensitivity)
        h = np.asarray(x, dtype=self.dtype)
        if h.ndim != 2:
            raise ConfigurationError("forward expects a 2-D batch")
        for i, b in enumerate(self.biases):
            if fmt is not None:
                add_dispatch()
            h_q = effective_quantize(h, fmt, sensitivity)
            w_q = self._quantized_weight(i, fmt, sensitivity)
            add_dispatch()
            h = h_q @ w_q + b
            if i < self.num_layers - 1:
                h = relu(h)
        return h

    def predict(
        self,
        x: np.ndarray,
        fmt: MXFormat | None = None,
        sensitivity: float = 1.0,
    ) -> np.ndarray:
        """Argmax class predictions."""
        return np.argmax(self.forward(x, fmt, sensitivity), axis=-1)

    def accuracy(
        self,
        x: np.ndarray,
        y: np.ndarray,
        fmt: MXFormat | None = None,
        sensitivity: float = 1.0,
    ) -> float:
        """Fraction of correct predictions (empty batches score 0)."""
        if len(x) == 0:
            return 0.0
        return float(np.mean(self.predict(x, fmt, sensitivity) == y))

    def train_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        lr: float,
        fmt: MXFormat | None = None,
        sensitivity: float = 1.0,
    ) -> float:
        """One SGD step on a batch; returns the pre-step loss.

        Training under MX runs the forward pass at the training precision;
        gradients are computed against the quantized forward (straight-
        through on the quantization error).
        """
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        x = np.asarray(x, dtype=self.dtype)
        y = np.asarray(y)
        if len(x) == 0:
            raise ConfigurationError("cannot train on an empty batch")

        # Forward, caching pre-activations and inputs per layer.
        inputs: list[np.ndarray] = []
        pre_acts: list[np.ndarray] = []
        h = x
        for i, b in enumerate(self.biases):
            if fmt is not None:
                add_dispatch()
            h_q, w_q = quantize_operands(h, self.weights[i], fmt, sensitivity)
            inputs.append(h_q)
            add_dispatch()
            z = h_q @ w_q + b
            pre_acts.append(z)
            h = relu(z) if i < self.num_layers - 1 else z

        loss = cross_entropy_loss(h, y)

        # Backward.
        grad = cross_entropy_grad(h, y)
        for i in reversed(range(self.num_layers)):
            if i < self.num_layers - 1:
                add_dispatch()
                grad = grad * relu_grad(pre_acts[i])
            add_dispatch(5)
            grad_w = inputs[i].T @ grad
            grad_b = grad.sum(axis=0)
            grad = grad @ self.weights[i].T
            self.weights[i] = self.weights[i] - lr * grad_w
            self.biases[i] = self.biases[i] - lr * grad_b
        self.invalidate_quantization_cache()
        return loss

    def snapshot(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Deep copy of the parameters."""
        return (
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def restore(
        self, state: tuple[list[np.ndarray], list[np.ndarray]]
    ) -> None:
        """Restore parameters from a :meth:`snapshot`."""
        weights, biases = state
        if len(weights) != self.num_layers or len(biases) != self.num_layers:
            raise ConfigurationError("snapshot does not match architecture")
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]
        self.invalidate_quantization_cache()

    def clone(self) -> "MLPClassifier":
        """Independent copy of this model."""
        weights, biases = self.snapshot()
        return MLPClassifier(weights=weights, biases=biases)


class BatchedMLPBank:
    """K same-geometry classifiers advanced one stacked numpy call at a time.

    The bank stacks its members' per-layer parameters into ``(K, in, out)``
    / ``(K, out)`` arrays and runs one ``np.matmul`` per layer for all K
    members.  Slice ``k`` of every result is bitwise what member ``k``'s
    own :meth:`MLPClassifier.forward` would produce: equal-shape stacked
    matmul, broadcast bias add, relu, and the MX fake-quantize kernel are
    all verified per-slice identical to their serial spellings (the
    quantize kernel reduces along the trailing axis only, so one stacked
    call quantizes every member exactly as K serial calls would).

    Weight stacks are cached per (fmt, sensitivity) and keyed on the
    members' mutation counters, so inference phases between retrains
    re-stack nothing.  The stacked slices are the members' *own* cached
    ``_quantized_weight`` arrays, which is what makes per-slice identity
    trivial rather than merely verified.

    Only einsum-style batched matmul and broadcasting are used -- the
    array-API-clean substrate the ROADMAP names for a GPU backend.
    """

    def __init__(self, models: "list[MLPClassifier]") -> None:
        if not models:
            raise ConfigurationError("a bank needs at least one model")
        shapes = [tuple(w.shape for w in m.weights) for m in models]
        if any(s != shapes[0] for s in shapes[1:]):
            raise ConfigurationError("bank members must share geometry")
        dtypes = {m.dtype for m in models}
        if len(dtypes) != 1:
            raise ConfigurationError("bank members must share a dtype")
        self.models = list(models)
        #: (fmt, sensitivity) -> (member versions, weight stacks, bias stacks)
        self._stack_cache: dict = {}

    @property
    def dtype(self) -> np.dtype:
        return self.models[0].dtype

    @property
    def num_layers(self) -> int:
        return self.models[0].num_layers

    def _stacked_params(self, fmt: MXFormat | None, sensitivity: float):
        versions = tuple(m._version for m in self.models)
        key = (fmt, sensitivity)
        entry = self._stack_cache.get(key)
        if entry is not None and entry[0] == versions:
            return entry[1], entry[2]
        weights = [
            np.stack(
                [m._quantized_weight(i, fmt, sensitivity) for m in self.models]
            )
            for i in range(self.num_layers)
        ]
        biases = [
            np.stack([m.biases[i] for m in self.models])
            for i in range(self.num_layers)
        ]
        self._stack_cache[key] = (versions, weights, biases)
        return weights, biases

    def forward(
        self,
        xs: np.ndarray,
        fmt: MXFormat | None = None,
        sensitivity: float = 1.0,
    ) -> np.ndarray:
        """Stacked logits ``(K, n, C)`` for a stacked batch ``(K, n, in)``."""
        h = np.asarray(xs, dtype=self.dtype)
        if h.ndim != 3 or h.shape[0] != len(self.models):
            raise ConfigurationError("bank forward expects a (K, n, in) batch")
        weights, biases = self._stacked_params(fmt, sensitivity)
        for i in range(self.num_layers):
            if fmt is not None:
                add_dispatch()
            h_q = effective_quantize(h, fmt, sensitivity)
            add_dispatch()
            h = np.matmul(h_q, weights[i]) + biases[i][:, None, :]
            if i < self.num_layers - 1:
                h = relu(h)
        return h
