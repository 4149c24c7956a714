"""Functional MX execution of proxy models through the real numerics.

The fast path in :class:`~repro.learn.mlp.MLPClassifier` injects MX effects
with :func:`~repro.learn.quantized.effective_quantize`.  This module
provides the *reference* path: executing every layer with
:func:`~repro.mx.mx_matmul` -- quantized operands, FP32 accumulation --
exactly as the DPE datapath computes it.  At sensitivity 1.0 the two paths
are bit-identical (asserted in ``tests/learn/test_executor.py``), which is
the justification for using the fast path in the system simulator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.learn.mlp import MLPClassifier
from repro.learn.ops import relu
from repro.mx import MXFormat, mx_matmul

__all__ = ["mx_forward", "mx_predict"]


def mx_forward(
    model: MLPClassifier, x: np.ndarray, fmt: MXFormat
) -> np.ndarray:
    """Forward pass computed with MX GEMMs (the DPE functional path).

    Activations are blocked along the feature axis and weights along the
    contraction axis, matching the accelerator's operand layout.  The
    batch is cast to the model's own dtype, so the reference path runs at
    the same precision as the fast path it is compared against.
    """
    h = np.asarray(x, dtype=model.dtype)
    if h.ndim != 2:
        raise ConfigurationError("mx_forward expects a 2-D batch")
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = mx_matmul(h, w, fmt) + b
        if i < model.num_layers - 1:
            h = relu(h)
    return h


def mx_predict(
    model: MLPClassifier, x: np.ndarray, fmt: MXFormat
) -> np.ndarray:
    """Argmax predictions through the MX functional path."""
    return np.argmax(mx_forward(model, x, fmt), axis=-1)
