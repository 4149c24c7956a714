"""Tests for sensitivity-scaled MX error injection (``effective_quantize``)
and the fused per-layer operand quantization (``quantize_operands``)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.learn.quantized import effective_quantize, quantize_operands
from repro.mx import MX4, MX6, MX9, MXFormat, quantize

# The formats and special values of tests/mx/test_kernel_identity.py.
FORMATS = (
    MX4,
    MX6,
    MX9,
    MXFormat("B8S4", mantissa_bits=4, block_size=8, subblock_size=4),
    MXFormat("B32S1", mantissa_bits=7, block_size=32, subblock_size=1),
    MXFormat("B12S3", mantissa_bits=5, block_size=12, subblock_size=3),
    MXFormat("B6S1", mantissa_bits=3, block_size=6, subblock_size=1),
)
_POWERS = [2.0**k for k in range(-24, 25)]
_TIES = [(n + 0.5) * 2.0**k for n in range(16) for k in range(-9, 3)]
_TINY32 = [2.0**-127, 2.0**-130, 2.0**-140, 2.0**-149, 1e-40, 1.5 * 2.0**-126]
_TINY64 = [2.0**-300, 2.0**-1022, 2.0**-1074, 1e-300]
# Above the largest shared exponent, where the clamp saturates.
_HUGE64 = [2.0**128, 2.0**200, 1e300, 1.7e308, 3.0 * 2.0**127]


def _elements(dtype):
    specials = [0.0, -0.0, *_POWERS, *_TIES, *_TINY32]
    if dtype == np.float64:
        specials += _TINY64 + _HUGE64
    specials += [-v for v in specials]
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
    values = draw(hnp.arrays(dtype, shape, elements=_elements(dtype)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    fmt = draw(st.sampled_from(FORMATS))
    return values, fmt, axis


def _assert_same_array(live, ref):
    assert live.dtype == ref.dtype
    assert live.shape == ref.shape
    assert live.tobytes() == ref.tobytes()


@pytest.fixture
def x():
    return np.random.default_rng(0).normal(size=(8, 24))


@pytest.mark.parametrize(
    "sensitivity", [float("nan"), float("inf"), -float("inf"), -1.0, np.nan]
)
def test_rejects_non_finite_or_negative_sensitivity(x, sensitivity):
    with pytest.raises(ConfigurationError, match="finite number >= 0"):
        effective_quantize(x, MX9, sensitivity)


@given(cases())
@example((np.array([1e300, -(2.0**128), 1.0]), MX6, -1))
@settings(max_examples=300, deadline=None)
def test_unit_sensitivity_is_fake_quantization(case):
    # Every finite input, including float64 values past the shared
    # exponent's clamp, where x + 1.0 * (q - x) would cancel to 0.0.
    values, fmt, axis = case
    _assert_same_array(
        effective_quantize(values, fmt, 1.0, axis),
        quantize(values, fmt, axis=axis),
    )


def test_zero_sensitivity_returns_the_input(x):
    np.testing.assert_array_equal(effective_quantize(x, MX9, 0.0), x)


def test_no_format_skips_the_check(x):
    # FP32 execution never quantizes, so the multiplier is never used.
    np.testing.assert_array_equal(effective_quantize(x, None, float("nan")), x)


@pytest.mark.parametrize("sensitivity", [1.0, 2.5])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("width", [10, 16, 24, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
def test_fused_operands_match_separate_calls(
    fmt, dtype, width, lead, sensitivity
):
    # A layer's activation (n x in) and weight (in x out), contracting
    # over ``width``; n != out, so a wrong split cannot pass.
    rng = np.random.default_rng(width)
    h = rng.normal(size=(*lead, 16, width)).astype(dtype)
    w = rng.normal(size=(*lead, width, 10)).astype(dtype)
    fused = quantize_operands(h, w, fmt, sensitivity)
    separate = (
        effective_quantize(h, fmt, sensitivity),
        effective_quantize(w, fmt, sensitivity, axis=-2),
    )
    for live, ref in zip(fused, separate):
        _assert_same_array(live, ref)
        # A stack's leading stride spans both operands' rows; the layout
        # of each slice, which the matmul sees, is the same.
        assert live.strides[-2:] == ref.strides[-2:]
    _assert_same_array(np.matmul(*fused), np.matmul(*separate))


def test_fused_operands_without_a_format_are_the_operands():
    h = np.ones((4, 6))
    w = np.ones((6, 3))
    h_q, w_q = quantize_operands(h, w, None, float("nan"))
    assert h_q is h and w_q is w
