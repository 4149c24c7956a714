"""The live MX kernel against the frozen pre-rewrite kernel, byte for byte.

``reference_kernel.py`` keeps the encode core as it was before it was
rewritten to reduce and scale over strided sub-block lanes.  Every output
of :func:`repro.mx.quantize` and every field of
:func:`repro.mx.quantize_blocks` must match it exactly: same dtype, same
shape, same bytes -- including ``-0.0`` normalization, the zero-exponent
rule, the shared-exponent clamp, and the stochastic-rounding draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_kernel as frozen
from repro.errors import QuantizationError
from repro.mx import MX4, MX6, MX9, MXFormat, quantize, quantize_blocks

FORMATS = (
    MX4,
    MX6,
    MX9,
    MXFormat("B8S4", mantissa_bits=4, block_size=8, subblock_size=4),
    MXFormat("B32S1", mantissa_bits=7, block_size=32, subblock_size=1),
    # Odd run lengths take the lane-by-lane fold instead of pair halving.
    MXFormat("B12S3", mantissa_bits=5, block_size=12, subblock_size=3),
    MXFormat("B6S1", mantissa_bits=3, block_size=6, subblock_size=1),
)

_POWERS = [2.0**k for k in range(-24, 25)]
# Halfway between two mantissa steps at some scale: round-half-even ties.
_TIES = [(n + 0.5) * 2.0**k for n in range(16) for k in range(-9, 3)]
# Below the smallest shared exponent, 2**-126: float32 subnormals included.
_TINY32 = [2.0**-127, 2.0**-130, 2.0**-140, 2.0**-149, 1e-40, 1.5 * 2.0**-126]
_TINY64 = [2.0**-300, 2.0**-1022, 2.0**-1074, 1e-300]
# Above the largest shared exponent: only float64 can hold them.
_HUGE64 = [2.0**128, 2.0**200, 1e300, 1.7e308, 3.0 * 2.0**127]


def _signed(values):
    return [v for m in values for v in (m, -m)]


def _elements(dtype):
    specials = [0.0, -0.0] + _signed(_POWERS + _TIES + _TINY32)
    if dtype == np.float64:
        specials += _signed(_TINY64 + _HUGE64)
    return st.one_of(
        st.sampled_from(specials),
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            width=32 if dtype == np.float32 else 64,
        ),
    )


@st.composite
def cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=40))
    # Sparse arrays make all-zero blocks and sub-blocks common.
    fill = draw(st.sampled_from([None, 0.0]))
    values = draw(
        hnp.arrays(
            dtype, shape, elements=_elements(dtype),
            fill=None if fill is None else st.just(fill),
        )
    )
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    fmt = draw(st.sampled_from(FORMATS))
    return values, fmt, axis


def _assert_same_array(live, ref):
    assert live.dtype == ref.dtype
    assert live.shape == ref.shape
    assert live.tobytes() == ref.tobytes()


def _assert_same_tensor(live, ref):
    assert live.fmt == ref.fmt
    assert live.shape == ref.shape
    assert live.axis == ref.axis
    _assert_same_array(live.mantissas, ref.mantissas)
    _assert_same_array(live.shared_exponents, ref.shared_exponents)
    _assert_same_array(live.microexponents, ref.microexponents)


def _assert_identical(values, fmt, axis):
    _assert_same_array(
        quantize(values, fmt, axis=axis), frozen.quantize(values, fmt, axis)
    )
    _assert_same_tensor(
        quantize_blocks(values, fmt, axis=axis),
        frozen.quantize_blocks(values, fmt, axis),
    )


@given(cases())
@settings(max_examples=400, deadline=None)
def test_matches_frozen_kernel(case):
    _assert_identical(*case)


@given(cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_stochastic_rounding_matches_frozen_kernel(case, seed):
    values, fmt, axis = case
    live_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    _assert_same_tensor(
        quantize_blocks(
            values, fmt, axis=axis, rounding="stochastic", rng=live_rng
        ),
        frozen.quantize_blocks(values, fmt, axis, "stochastic", ref_rng),
    )
    # Same number of draws: the generators stay in step afterwards.
    assert live_rng.random() == ref_rng.random()


def _block(*head, size=16):
    block = np.zeros(size)
    block[: len(head)] = head
    return block


EDGE_CASES = {
    "all-zero block": np.zeros(16),
    "negative zeros": np.full((2, 16), -0.0),
    "all-zero blocks among live ones": np.stack(
        [np.zeros(16), np.linspace(-3.0, 3.0, 16), np.zeros(16)]
    ),
    "all-zero sub-blocks": _block(0.0, 0.0, 1.5, -2.0, 0.0, 0.0, 0.25),
    "zeros beside subnormal-only sub-blocks": _block(
        0.0, 2.0**-130, 2.0**-131, 2.0**-132, 0.0, 0.0, 2.0**-140, 2.0**-127
    ),
    "zero beside a tiny value": _block(0.0, 0.3, 0.0, 0.01, 1e-3, 0.0),
    "shared exponent clamped high": _block(2.0**200, 1.0, 0.0, -2.0**128),
    "shared exponent clamped low": _block(2.0**-1000, -(2.0**-1074), 0.0),
    "partial trailing block, 17": np.linspace(-1.0, 1.0, 17),
    "partial trailing block, 5": np.array([0.3, -0.0, 7.5, 2.0**-130, 0.0]),
    "partial trailing block, 33 x 3": np.arange(99.0).reshape(33, 3) - 40.0,
    "single value": np.array(3.75),
    "ties": np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 15.5, 16.5] * 3),
}


@pytest.mark.parametrize(
    "name, dtype",
    [
        (name, dtype)
        for name in sorted(EDGE_CASES)
        for dtype in (np.float32, np.float64)
        # Values past float32's range stay float64-only.
        if np.abs(EDGE_CASES[name]).max() <= np.finfo(dtype).max
    ],
)
def test_edge_table_matches_frozen_kernel(name, dtype):
    values = EDGE_CASES[name].astype(dtype)
    for fmt in FORMATS:
        for axis in range(-max(values.ndim, 1), max(values.ndim, 1)):
            _assert_identical(values, fmt, axis)


def _message(fn, *args, **kwargs) -> str:
    with pytest.raises(QuantizationError) as info:
        fn(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_raises_the_same_message(bad, dtype):
    values = np.array([[1.0, bad, 0.0], [2.0, 3.0, 4.0]], dtype=dtype)
    for fns in (
        (quantize, frozen.quantize),
        (quantize_blocks, frozen.quantize_blocks),
    ):
        live, ref = (_message(fn, values, MX9, 0) for fn in fns)
        assert live == ref == "MX cannot encode NaN or Inf values"
        # The finiteness check still comes before the axis check.
        assert _message(fns[0], values, MX9, 5) == _message(
            fns[1], values, MX9, 5
        )


@pytest.mark.parametrize(
    "values, kwargs",
    [
        (np.ones((2, 3)), {"axis": 2}),
        (np.ones((2, 3)), {"axis": -3}),
        (np.ones((2, 0)), {"axis": 1}),
        (np.ones(4), {"rounding": "banana"}),
        (np.ones(4), {"rounding": "stochastic"}),
    ],
)
def test_bad_arguments_raise_the_same_message(values, kwargs):
    assert _message(quantize_blocks, values, MX6, **kwargs) == _message(
        frozen.quantize_blocks, values, MX6, **kwargs
    )
    if "rounding" not in kwargs:
        assert _message(quantize, values, MX6, **kwargs) == _message(
            frozen.quantize, values, MX6, **kwargs
        )
