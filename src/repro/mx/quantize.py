"""FP32 <-> MX conversion, following the paper's Figure 6 step by step.

Encoding a block of 16 values:

1. Take each value's binary exponent (``floor(log2 |v|)``).
2. The *shared exponent* ``E`` is the maximum exponent in the block, clamped
   to the 8-bit range.
3. For each sub-block of 2 values, the *microexponent* bit is set when every
   exponent in the sub-block is strictly below ``E``; the sub-block is then
   scaled one binade lower (``E - 1``), recovering one mantissa bit.
4. Mantissas are quantized to ``m`` magnitude bits (round-to-nearest-even,
   saturating) against the sub-block scale ``2 ** (E_sub - m + 1)``.

Decoding multiplies the integer mantissa back by its sub-block scale.  Both
directions are exact integer/power-of-two arithmetic, so encode->decode is a
pure function of the input bits -- there is no hidden floating-point fuzz
beyond the quantization itself.

:func:`quantize_blocks` and :func:`quantize` (fake quantization, the
learning substrate's hot path) share one encode core.  :func:`quantize`
fuses the decode onto it: the rounded mantissa values are rescaled in place
with no integer round-trip, bit-identical to
``dequantize(quantize_blocks(...))`` because every arithmetic step is the
same power-of-two scaling in the same order.

The core never reduces or broadcasts over a short trailing axis.  numpy
runs such an operation as one tiny inner loop per sub-block or block (a
loop of 2 for the sub-block maximum, of 16 for the block maximum), so it
pays loop overhead per sub-block instead of streaming the data, and comes
out tens of times slower than an elementwise ``np.maximum`` over the same
values.  Instead, both maxima fold adjacent strided lanes (``e[..., 0::2]``
against ``e[..., 1::2]``) with elementwise ``np.maximum``, which numpy runs
as one long strided loop; the block exponent is repeated once per
sub-block; and the scaling divides and multiplies lane ``k`` of every
sub-block, ``x[..., k::subblock_size]``, by the per-sub-block scales
elementwise.  Integer maxima and power-of-two scalings are exact, so the
order of the folds cannot change a bit.  The blocking axis moves by
``transpose`` and the clamps are in-place ``np.maximum``/``np.minimum``:
both cost less per call than ``np.moveaxis`` and ``np.clip``, which counts
for the many tiny tensors of a training step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.mx.formats import (
    MAX_SHARED_EXPONENT,
    MIN_SHARED_EXPONENT,
    MXFormat,
)
from repro.numeric import ensure_float

__all__ = ["MXTensor", "quantize_blocks", "dequantize", "quantize"]


@dataclass(frozen=True)
class MXTensor:
    """A tensor encoded in an MX format.

    The payload is stored unpacked for simulation convenience (one numpy
    element per field) but :attr:`nbytes` reports the packed hardware size.

    Attributes:
        fmt: The MX format this tensor is encoded in.
        mantissas: Signed integer mantissas, shape ``(*lead, blocks, block_size)``.
        shared_exponents: Per-block shared exponents, shape ``(*lead, blocks)``.
        microexponents: Per-sub-block 0/1 bits, shape
            ``(*lead, blocks, subblocks_per_block)``.
        shape: Logical (unpadded) shape of the original tensor.
        axis: The axis of ``shape`` along which blocks were formed.
    """

    fmt: MXFormat
    mantissas: np.ndarray
    shared_exponents: np.ndarray
    microexponents: np.ndarray
    shape: tuple[int, ...]
    axis: int

    @property
    def num_values(self) -> int:
        """Number of logical (unpadded) values represented."""
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def num_blocks(self) -> int:
        """Number of hardware blocks, padding included."""
        return int(np.prod(self.shared_exponents.shape))

    @property
    def nbytes(self) -> int:
        """Packed storage size in bytes, as laid out by the memory interface."""
        return self.num_blocks * self.fmt.block_bytes


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise QuantizationError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def _binary_exponents(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``frexp`` of ``values``, with zeros given the minimum exponent.

    ``frexp`` writes ``|v| = f * 2**e`` with ``f`` in ``[0.5, 1)``, so its
    exponent ``e`` is exactly ``floor(log2 |v|) + 1`` without
    log-precision concerns.  The core keeps that one-up convention through
    its integer maxima and subtracts the 1 only where an exponent leaves
    it.  Zeros get ``MIN_SHARED_EXPONENT + 1``.

    Returns ``(fractions, exponents)``, both fresh and C-ordered whatever
    the layout of ``values``; the core reuses ``fractions``, which has the
    shape and dtype of ``values``, as its output buffer.
    """
    fractions, exp = np.frexp(values, order="C")
    exponents = exp.astype(np.int32, copy=False)
    exponents[values == 0.0] = MIN_SHARED_EXPONENT + 1
    return fractions, exponents


def _to_last(axis: int, ndim: int) -> tuple[int, ...]:
    """The ``transpose`` order that moves ``axis`` to the end."""
    return (*range(axis), *range(axis + 1, ndim), axis)


def _from_last(axis: int, ndim: int) -> tuple[int, ...]:
    """The ``transpose`` order that undoes :func:`_to_last`."""
    return (*range(axis), ndim - 1, *range(axis, ndim - 1))


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
    moved = (
        arr if axis == arr.ndim - 1
        else arr.transpose(_to_last(axis, arr.ndim))
    )
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


def _group_max(values: np.ndarray, group: int) -> np.ndarray:
    """Maximum over each run of ``group`` adjacent values on the last axis.

    Built from elementwise ``np.maximum`` over strided lanes, never from a
    reduction over a short trailing axis: adjacent pairs are folded while
    the run length is even, and an odd remainder folds its lanes one by
    one.  Integer maxima are exact in any order.  Returns ``values`` itself
    when ``group`` is 1.
    """
    while group % 2 == 0:
        values = np.maximum(values[..., 0::2], values[..., 1::2])
        group //= 2
    if group > 1:
        folded = np.maximum(values[..., 0::group], values[..., 1::group])
        for lane in range(2, group):
            np.maximum(folded, values[..., lane::group], out=folded)
        values = folded
    return values


def _encode_core(
    grouped: np.ndarray,
    fmt: MXFormat,
    rounding: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block encode on the grouped layout, shared by every entry point.

    Returns ``(quantized, scales, top, micro)``.  ``quantized`` holds the
    rounded, saturated mantissa *values* in the grouped layout
    ``(*lead, blocks, block_size)`` and is freshly allocated, so callers
    may mutate it in place.  ``scales`` are the per-sub-block power-of-two
    scales, shape ``(*lead, blocks, subblocks)``: lane ``k`` of every
    sub-block, ``quantized[..., k::subblock_size]``, lines up with them
    elementwise.  ``top`` is the shared exponent plus one (frexp's
    convention), shape ``(*lead, blocks, 1)``.
    """
    step = fmt.subblock_size
    scaled, exponents = _binary_exponents(grouped)
    sub_max = _group_max(exponents, step)
    top = np.maximum(
        _group_max(sub_max, fmt.subblocks_per_block), MIN_SHARED_EXPONENT + 1
    )
    np.minimum(top, MAX_SHARED_EXPONENT + 1, out=top)
    # One copy of the block's exponent per sub-block, so the sub-block
    # arithmetic below is elementwise rather than a broadcast.
    scale_exp = np.repeat(top, fmt.subblocks_per_block, axis=-1)

    # The microexponent bit: every exponent in the sub-block sits strictly
    # below the shared one, so the sub-block is scaled one binade lower
    # (Figure 6).  A bool array's bytes are 0/1, so viewing it as uint8 is
    # the cast.
    micro = np.less(sub_max, scale_exp).view(np.uint8)
    # shared - micro - (mantissa_bits - 1), in frexp's one-up convention.
    np.subtract(scale_exp, micro, out=scale_exp)
    scale_exp -= fmt.mantissa_bits
    # Scales in the operand dtype (powers of two are exact in either), so
    # a float32 encode stays float32 end to end instead of upcasting here.
    scales = np.ldexp(grouped.dtype.type(1.0), scale_exp)

    for lane in range(step):
        np.divide(
            grouped[..., lane::step], scales, out=scaled[..., lane::step]
        )
    if rounding == "nearest":
        quantized = np.rint(scaled, out=scaled)
    elif rounding == "stochastic":
        if rng is None:
            raise QuantizationError(
                "stochastic rounding requires an rng argument"
            )
        floor = np.floor(scaled)
        draws = rng.random(
            (*grouped.shape[:-1], fmt.subblocks_per_block, step)
        ).reshape(scaled.shape)
        quantized = floor + (draws < (scaled - floor))
    else:
        raise QuantizationError(
            f"unknown rounding mode {rounding!r}; "
            "expected 'nearest' or 'stochastic'"
        )
    limit = float(fmt.max_mantissa)
    np.maximum(quantized, -limit, out=quantized)
    np.minimum(quantized, limit, out=quantized)
    return quantized, scales, top, micro


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
    quantized, _, top, micro = _encode_core(grouped, fmt, rounding, rng)

    return MXTensor(
        fmt=fmt,
        mantissas=quantized.astype(np.int32),
        shared_exponents=(top - 1).reshape(top.shape[:-1]),
        microexponents=micro,
        shape=arr.shape,
        axis=axis,
    )


def dequantize(tensor: MXTensor, dtype: np.dtype = np.float64) -> np.ndarray:
    """Decode an :class:`MXTensor` to ``dtype``, dropping block padding.

    Every representable MX value (mantissa magnitude < 2**8 times a power
    of two) is exact in float32 and float64 alike, so decoding to either
    dtype yields the same real numbers.
    """
    fmt = tensor.fmt
    dtype = np.dtype(dtype)
    effective = tensor.shared_exponents[..., None] - tensor.microexponents.astype(
        np.int32
    )
    scale_exp = effective - (fmt.mantissa_bits - 1)
    scales = np.ldexp(dtype.type(1.0), scale_exp)
    sub_shape = (
        *tensor.mantissas.shape[:-1],
        fmt.subblocks_per_block,
        fmt.subblock_size,
    )
    sub_mantissas = tensor.mantissas.reshape(sub_shape).astype(dtype)
    decoded = (sub_mantissas * scales[..., None]).reshape(tensor.mantissas.shape)

    flat = decoded.reshape(*decoded.shape[:-2], -1)
    length = tensor.shape[tensor.axis] if tensor.shape else 1
    flat = flat[..., :length]
    moved_shape = list(tensor.shape)
    moved_shape.append(moved_shape.pop(tensor.axis))
    flat = flat.reshape(moved_shape)
    return np.moveaxis(flat, -1, tensor.axis)


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
    step = fmt.subblock_size
    for lane in range(step):
        lanes = quantized[..., lane::step]
        np.multiply(lanes, scales, out=lanes)

    flat = quantized.reshape(*grouped.shape[:-2], -1)
    if flat.shape[-1] != length:
        flat = flat[..., :length]
    if axis == arr.ndim - 1:
        return flat.reshape(arr.shape)
    moved_shape = list(arr.shape)
    moved_shape.append(moved_shape.pop(axis))
    return flat.reshape(moved_shape).transpose(_from_last(axis, arr.ndim))
