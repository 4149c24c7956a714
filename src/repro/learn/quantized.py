"""MX precision-effect injection for the proxy models.

Real hardware quantizes weights and activations into MX blocks; the proxy
models reproduce that by adding the *measured* MX quantization error of each
tensor, scaled by the model's precision sensitivity:

``x_eff = x + sensitivity * (mx_quantize(x) - x)``

With sensitivity 1.0 this is exactly fake quantization; larger values model
architectures whose accuracy degrades faster than the raw numeric error
(the paper observes this for ViTs, section VII-B).

A training step quantizes two operands per layer, its input activation and
its weight, and each is a few hundred elements, so the kernel's cost there
is numpy overhead per call rather than work per element.
:func:`quantize_operands` quantizes both in one call.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.mx import MXFormat, quantize
from repro.numeric import ensure_float

__all__ = ["effective_quantize", "quantize_operands"]


def effective_quantize(
    x: np.ndarray,
    fmt: MXFormat | None,
    sensitivity: float = 1.0,
    axis: int = -1,
) -> np.ndarray:
    """Apply sensitivity-scaled MX quantization error to ``x``.

    Dtype-polymorphic: a float32 tensor is quantized entirely at single
    precision (the MX kernel preserves the operand dtype), a float64 one
    exactly as before -- no silent upcasts on this, the hottest path of an
    end-to-end run.

    Sensitivity 1.0 returns ``quantize(x, fmt, axis)`` itself, with no
    error arithmetic.  That is the formula's value wherever ``q - x`` is
    exact, which by Sterbenz's lemma is every input below the
    shared-exponent clamp; above it (float64 magnitudes of at least
    ``2**128``, which the clamp saturates) the formula would cancel to
    0.0, and the result is the saturated fake-quantized value instead.

    Args:
        x: Tensor to quantize.
        fmt: MX format; ``None`` returns ``x`` unchanged (FP32 execution).
        sensitivity: Error multiplier (1.0 = exact fake quantization); a
            finite number >= 0.
        axis: Blocking axis.

    Raises:
        ConfigurationError: If ``sensitivity`` is negative, NaN or
            infinite.
    """
    if fmt is None:
        return ensure_float(x)
    # A chained comparison, not a numpy call, on this hot path: NaN and
    # inf both fail it.
    if not 0.0 <= sensitivity < math.inf:
        raise ConfigurationError(
            f"sensitivity must be a finite number >= 0, got {sensitivity!r}"
        )
    x = ensure_float(x)
    if sensitivity == 1.0:
        return quantize(x, fmt, axis=axis)
    # Computed as x + sensitivity * (quantize(x) - x), accumulated in place
    # on the freshly allocated quantized array (this is the hottest function
    # in an end-to-end run; every temporary counts).
    error = quantize(x, fmt, axis=axis)
    error -= x
    error *= sensitivity
    error += x
    return error


def quantize_operands(
    h: np.ndarray,
    w: np.ndarray,
    fmt: MXFormat | None,
    sensitivity: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One layer's activation and weight, quantized in one kernel call.

    The activation ``h`` (``(..., n, in)``) is blocked along ``in`` and
    the weight ``w`` (``(..., in, out)``) along its contraction axis, so
    both are rows of length ``in``, and each row quantizes on its own.
    So ``h`` is stacked over ``swapaxes(w, -1, -2)`` on axis -2, goes
    through one :func:`effective_quantize` call, and is split again.  The
    two results have the bytes, dtype and shape of
    ``effective_quantize(h, fmt, sensitivity)`` and
    ``effective_quantize(w, fmt, sensitivity, axis=-2)``, and the strides
    of their last two axes, so every matmul on them sees the same layout.
    Works for 2-D operands and for ``(K, n, in)`` / ``(K, in, out)``
    stacks alike.

    Returns:
        ``(h_q, w_q)``; with ``fmt`` None, ``h`` and ``w`` unquantized.
    """
    if fmt is None:
        return ensure_float(h), ensure_float(w)
    rows = h.shape[-2]
    both = effective_quantize(
        np.concatenate((h, np.swapaxes(w, -1, -2)), axis=-2),
        fmt,
        sensitivity,
    )
    return both[..., :rows, :], np.swapaxes(both[..., rows:, :], -1, -2)
