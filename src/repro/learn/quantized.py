"""MX precision-effect injection for the proxy models.

Real hardware quantizes weights and activations into MX blocks; the proxy
models reproduce that by adding the *measured* MX quantization error of each
tensor, scaled by the model's precision sensitivity:

``x_eff = x + sensitivity * (mx_quantize(x) - x)``

With sensitivity 1.0 this is exactly fake quantization; larger values model
architectures whose accuracy degrades faster than the raw numeric error
(the paper observes this for ViTs, section VII-B).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.mx import MXFormat, quantize
from repro.numeric import ensure_float

__all__ = ["effective_quantize"]


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
    # Computed as x + sensitivity * (quantize(x) - x), accumulated in place
    # on the freshly allocated quantized array (this is the hottest function
    # in an end-to-end run; every temporary counts).
    error = quantize(x, fmt, axis=axis)
    error -= x
    error *= sensitivity
    error += x
    return error
