"""The MX encode kernel as it stood before the lane-wise rewrite, frozen.

A verbatim copy of ``repro.mx.quantize``'s ``_normalize_axis``,
``_binary_exponents``, ``_prepare_blocks``, ``_encode_core``,
``quantize_blocks`` and ``quantize`` from before the core was rewritten to
reduce and scale over strided sub-block lanes.  ``test_kernel_identity.py``
requires the live kernel to match it byte for byte.  Do not edit: it is the
reference, not a second implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError
from repro.mx.formats import (
    MAX_SHARED_EXPONENT,
    MIN_SHARED_EXPONENT,
    MXFormat,
)
from repro.mx.quantize import MXTensor
from repro.numeric import ensure_float


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise QuantizationError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def _binary_exponents(values: np.ndarray) -> np.ndarray:
    """Per-element ``floor(log2 |v|)``, with zeros mapped to the minimum.

    Uses ``frexp`` (``|v| = f * 2**e`` with ``f`` in ``[0.5, 1)``), so the
    binary exponent is exactly ``e - 1`` without log-precision concerns.
    """
    _, exp = np.frexp(values)
    exponents = exp.astype(np.int32, copy=False)
    exponents -= 1
    exponents[values == 0.0] = MIN_SHARED_EXPONENT
    return exponents


def _prepare_blocks(
    values: np.ndarray, fmt: MXFormat, axis: int
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Validate input and reshape it into the block layout.

    Dtype-polymorphic: float32 and float64 inputs keep their dtype through
    the whole encode (non-float inputs are cast to float64 as before);
    every downstream scale is built in the operand dtype, so a float32
    block never silently upcasts to float64 mid-kernel.

    Returns ``(arr, axis, grouped, length)`` where ``grouped`` has shape
    ``(*lead, blocks, block_size)`` (zero-padded along the final block) and
    ``length`` is the unpadded extent along the blocking axis.
    """
    arr = ensure_float(values)
    if arr.size and not np.isfinite(arr).all():
        raise QuantizationError("MX cannot encode NaN or Inf values")
    if arr.ndim == 0:
        arr = arr.reshape(1)
    axis = _normalize_axis(axis, arr.ndim)
    moved = arr if axis == arr.ndim - 1 else np.moveaxis(arr, axis, -1)
    length = moved.shape[-1]
    if length == 0:
        raise QuantizationError("cannot quantize along an empty axis")

    blocks = -(-length // fmt.block_size)
    padded_len = blocks * fmt.block_size
    if padded_len != length:
        padded = np.zeros(
            (*moved.shape[:-1], padded_len), dtype=arr.dtype
        )
        padded[..., :length] = moved
        moved = padded
    grouped = moved.reshape(*moved.shape[:-1], blocks, fmt.block_size)
    return arr, axis, grouped, length


def _encode_core(
    grouped: np.ndarray,
    fmt: MXFormat,
    rounding: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-pass block encode on the grouped layout.

    Returns ``(quantized, scales, shared, micro)`` where ``quantized`` holds
    the rounded, saturated mantissa *values* as float64 in the sub-block
    layout ``(*lead, blocks, subblocks, subblock_size)`` and ``scales`` are
    the per-sub-block power-of-two scales.  ``quantized`` is freshly
    allocated, so callers may mutate it in place.
    """
    exponents = _binary_exponents(grouped)
    shared = exponents.max(axis=-1)
    shared = np.clip(shared, MIN_SHARED_EXPONENT, MAX_SHARED_EXPONENT)
    shared = shared.astype(np.int32, copy=False)

    sub_shape = (*grouped.shape[:-1], fmt.subblocks_per_block, fmt.subblock_size)
    sub_exponents = exponents.reshape(sub_shape)
    sub_max = sub_exponents.max(axis=-1)
    micro = (sub_max < shared[..., None]).astype(np.uint8)

    # Effective sub-block exponent: one binade lower when the microexponent
    # bit is set, which is what buys back a bit of precision (Figure 6).
    scale_exp = shared[..., None] - micro.astype(np.int32)
    scale_exp -= fmt.mantissa_bits - 1
    # Scales in the operand dtype (powers of two are exact in either), so
    # a float32 encode stays float32 end to end instead of upcasting here.
    scales = np.ldexp(grouped.dtype.type(1.0), scale_exp)

    scaled = grouped.reshape(sub_shape) / scales[..., None]
    if rounding == "nearest":
        quantized = np.round(scaled, out=scaled)
    elif rounding == "stochastic":
        if rng is None:
            raise QuantizationError(
                "stochastic rounding requires an rng argument"
            )
        floor = np.floor(scaled)
        quantized = floor + (rng.random(scaled.shape) < (scaled - floor))
    else:
        raise QuantizationError(
            f"unknown rounding mode {rounding!r}; "
            "expected 'nearest' or 'stochastic'"
        )
    limit = float(fmt.max_mantissa)
    # clip == minimum(maximum(x, lo), hi); the two in-place ufunc calls skip
    # np.clip's scalar-bound promotion machinery on this hot path.
    np.maximum(quantized, -limit, out=quantized)
    np.minimum(quantized, limit, out=quantized)
    return quantized, scales, shared, micro


def quantize_blocks(
    values: np.ndarray,
    fmt: MXFormat,
    axis: int = -1,
    rounding: str = "nearest",
    rng: np.random.Generator | None = None,
) -> MXTensor:
    """Encode ``values`` into an :class:`MXTensor`.

    Args:
        values: Real-valued array.  NaN/Inf are rejected, mirroring the
            hardware which has no encodings for them.
        fmt: Target MX format.
        axis: Axis along which 16-value blocks are formed (address-adjacency
            axis).  A trailing partial block is zero-padded.
        rounding: ``"nearest"`` (round-to-nearest-even, the default) or
            ``"stochastic"`` (FAST-style stochastic rounding, unbiased in
            expectation -- useful for low-precision training studies).
        rng: Randomness source, required for stochastic rounding.

    Returns:
        The encoded tensor.

    Raises:
        QuantizationError: On non-finite input, an empty axis, or an
            unknown rounding mode.
    """
    arr, axis, grouped, _ = _prepare_blocks(values, fmt, axis)
    quantized, _, shared, micro = _encode_core(grouped, fmt, rounding, rng)
    mantissas = quantized.reshape(grouped.shape).astype(np.int32)

    return MXTensor(
        fmt=fmt,
        mantissas=mantissas,
        shared_exponents=shared,
        microexponents=micro,
        shape=arr.shape,
        axis=axis,
    )


def quantize(values: np.ndarray, fmt: MXFormat, axis: int = -1) -> np.ndarray:
    """Fake-quantize: encode to ``fmt`` and immediately decode.

    This is the workhorse used by the learning substrate to expose MX
    precision effects to the proxy models without carrying packed tensors
    around.  The encode and decode are fused: the rounded mantissa values
    are rescaled in place, skipping the :class:`MXTensor` materialization
    and its float64 -> int32 -> float64 round-trip.  Mantissa magnitudes
    never exceed ``fmt.max_mantissa`` (< 2**53), so dropping the integer
    cast is exact and the result is bit-identical to
    ``dequantize(quantize_blocks(values, fmt, axis))``.
    """
    arr, axis, grouped, length = _prepare_blocks(values, fmt, axis)
    quantized, scales, _, _ = _encode_core(grouped, fmt, "nearest", None)
    # The integer cast normalized negative zeros (round(-0.1) -> -0.0 ->
    # int32 0 -> +0.0); adding +0.0 reproduces that exactly (IEEE-754:
    # -0.0 + 0.0 == +0.0, every other finite value is unchanged).
    np.add(quantized, 0.0, out=quantized)
    decoded = np.multiply(quantized, scales[..., None], out=quantized)

    flat = decoded.reshape(*grouped.shape[:-2], -1)
    flat = flat[..., :length]
    if axis == arr.ndim - 1:
        return flat.reshape(arr.shape)
    moved_shape = list(arr.shape)
    moved_shape.append(moved_shape.pop(axis))
    flat = flat.reshape(moved_shape)
    return np.moveaxis(flat, -1, axis)
