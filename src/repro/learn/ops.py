"""Elementary neural-network operations with explicit gradients.

Everything the MLP proxies need, implemented directly in numpy so the
training loop is self-contained (no autograd framework available or
required).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "add_dispatch",
    "batched_cross_entropy_grad",
    "batched_cross_entropy_loss",
    "cross_entropy_grad",
    "cross_entropy_loss",
    "dispatch_count",
    "he_init",
    "relu",
    "relu_grad",
    "reset_dispatch",
    "softmax",
]

# -- dispatch accounting ---------------------------------------------------
#
# One count per numpy-kernel invocation at a model-compute site.  The point
# of the batched executor is K cells per dispatch instead of one, so the
# counter is the direct measurement of that claim (tests/exec/test_batched.py
# asserts the serial/batched ratio).  Not locked: batched rounds execute one
# at a time under the conductor lock, and the serial path is single-threaded.

_dispatch_calls = 0


def add_dispatch(n: int = 1) -> None:
    """Record ``n`` numpy-kernel dispatches on a model-compute hot path."""
    global _dispatch_calls
    _dispatch_calls += n


def dispatch_count() -> int:
    """Dispatches recorded since the last :func:`reset_dispatch`."""
    return _dispatch_calls


def reset_dispatch() -> None:
    """Zero the dispatch counter (tests call this between legs)."""
    global _dispatch_calls
    _dispatch_calls = 0


def he_init(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He-normal weight initialization for ReLU networks."""
    if fan_in < 1 or fan_out < 1:
        raise ConfigurationError("fan_in and fan_out must be >= 1")
    scale = np.sqrt(2.0 / fan_in)
    return rng.normal(scale=scale, size=(fan_in, fan_out))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    add_dispatch()
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU evaluated at the pre-activation ``x``."""
    add_dispatch()
    return (x > 0.0).astype(x.dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized (any leading shape)."""
    add_dispatch()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under ``logits``.

    The softmax/log run in the logits' dtype; the final mean accumulates
    in float64 whatever that dtype is, so the loss of a float32 model (one
    built from float32 arrays) is not a float32 sum over the batch.
    """
    if len(logits) != len(labels):
        raise ConfigurationError("logits and labels must align")
    if len(labels) == 0:
        raise ConfigurationError("cannot compute loss of an empty batch")
    probs = softmax(logits)
    picked = probs[np.arange(len(labels)), labels]
    add_dispatch()
    return float(
        -np.mean(np.log(np.clip(picked, 1e-12, None)), dtype=np.float64)
    )


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the logits."""
    if len(logits) != len(labels):
        raise ConfigurationError("logits and labels must align")
    if len(labels) == 0:
        raise ConfigurationError("cannot compute gradient of an empty batch")
    grad = softmax(logits)
    grad[np.arange(len(labels)), labels] -= 1.0
    add_dispatch()
    return grad / len(labels)


def batched_cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-slice mean cross-entropy of ``(K, n)`` labels under ``(K, n, C)``.

    Slice ``k`` of the result is bitwise :func:`cross_entropy_loss` of
    ``(logits[k], labels[k])``: the softmax, clip, log, and float64 mean
    all reduce along the trailing axes only, so stacking K cells changes
    nothing but the number of kernel dispatches.  ``take_along_axis``
    keeps the gather array-API-clean for a later GPU backend.
    """
    if logits.shape[:-1] != labels.shape:
        raise ConfigurationError("logits and labels must align")
    if labels.shape[-1] == 0:
        raise ConfigurationError("cannot compute loss of an empty batch")
    probs = softmax(logits)
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
    add_dispatch()
    return -np.mean(
        np.log(np.clip(picked, 1e-12, None)), axis=-1, dtype=np.float64
    )


def batched_cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-slice gradient of the mean cross-entropy w.r.t. the logits.

    Slice ``k`` is bitwise :func:`cross_entropy_grad` of
    ``(logits[k], labels[k])``; ``put_along_axis`` is the stacked
    spelling of the serial fancy-index subtraction.
    """
    if logits.shape[:-1] != labels.shape:
        raise ConfigurationError("logits and labels must align")
    if labels.shape[-1] == 0:
        raise ConfigurationError("cannot compute gradient of an empty batch")
    grad = softmax(logits)
    picked = np.take_along_axis(grad, labels[..., None], axis=-1)
    np.put_along_axis(grad, labels[..., None], picked - 1.0, axis=-1)
    add_dispatch()
    return grad / labels.shape[-1]
