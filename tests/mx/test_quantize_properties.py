"""Property-based tests (hypothesis) for MX quantization invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mx import FORMATS, MX4, MX9, dequantize, quantize, quantize_blocks
from repro.mx.formats import MIN_SHARED_EXPONENT

finite_floats = st.floats(
    min_value=-1e30,
    max_value=1e30,
    allow_nan=False,
    allow_infinity=False,
)

vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=100),
    elements=finite_floats,
)

formats = st.sampled_from(FORMATS)

#: Magnitude floor keeping every exponent comfortably above the shared-
#: exponent clamp even after scaling by the test's power-of-two factors.
#: Below ``2 ** MIN_SHARED_EXPONENT`` the 8-bit shared exponent saturates
#: and power-of-two scaling genuinely stops commuting (see
#: ``test_clamped_binade_saturates``), exactly as on the hardware.
_UNCLAMPED_MIN = 2.0 ** (MIN_SHARED_EXPONENT + 6)

unclamped_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=_UNCLAMPED_MIN, max_value=1e30),
    st.floats(min_value=-1e30, max_value=-_UNCLAMPED_MIN),
)

unclamped_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=100),
    elements=unclamped_floats,
)


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_round_trip_preserves_shape(x, fmt):
    assert quantize(x, fmt).shape == x.shape


def above_the_floor(x, fmt):
    """Per element of ``x``: is its block's shared exponent above the floor?

    The frozen kernel gives a zero the floor's exponent (the zero-exponent
    rule that ``test_kernel_identity.py`` pins), so in a block at the
    floor a zero switches its sub-block's microexponent off, and a second
    quantize can round further (``test_idempotence_stops_at_the_floor``).
    """
    exponents = quantize_blocks(x, fmt).shared_exponents.ravel()
    above = np.repeat(exponents > MIN_SHARED_EXPONENT, fmt.block_size)
    return above[: x.size]


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
@example(np.array([1.28333231e-293, 2.80572422e-39]), MX4)
def test_quantization_is_idempotent(x, fmt):
    once = quantize(x, fmt)
    keep = above_the_floor(x, fmt)
    np.testing.assert_array_equal(quantize(once, fmt)[keep], once[keep])


def test_idempotence_stops_at_the_floor():
    # A block at the clamp floor whose zero turns its sub-block's
    # microexponent off on the second pass: 2**-128 rounds away.
    x = np.array([1.28333231e-293, 2.80572422e-39])
    assert quantize_blocks(x, MX4).shared_exponents.max() == (
        MIN_SHARED_EXPONENT
    )
    once = quantize(x, MX4)
    np.testing.assert_array_equal(once, [0.0, 2.0**-128])
    np.testing.assert_array_equal(quantize(once, MX4), [0.0, 0.0])


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_error_bounded_by_one_ulp_of_block_scale(x, fmt):
    # One ULP covers the sign-magnitude saturation sliver at the top of the
    # shared binade; non-saturating values meet half a ULP (unit test).
    enc = quantize_blocks(x, fmt)
    dec = dequantize(enc)
    scales = np.ldexp(
        1.0, enc.shared_exponents.astype(int) - (fmt.mantissa_bits - 1)
    )
    bound = np.repeat(scales.ravel(), fmt.block_size)[: x.size]
    assert np.all(np.abs(x - dec) <= bound * (1 + 1e-12) + 1e-300)


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_sign_antisymmetry(x, fmt):
    np.testing.assert_array_equal(quantize(-x, fmt), -quantize(x, fmt))


@given(vectors)
@settings(max_examples=200, deadline=None)
def test_precision_ordering(x):
    # Higher-precision formats never produce a larger max error.
    errors = [np.abs(x - quantize(x, fmt)).max() for fmt in FORMATS]
    assert errors == sorted(errors, reverse=True) or np.allclose(
        errors, sorted(errors, reverse=True)
    )


@given(unclamped_vectors, formats, st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_power_of_two_scaling_commutes(x, fmt, scale_pow):
    # Scaling inputs by a power of two scales the output identically,
    # because block exponents shift uniformly -- as long as no block
    # saturates the shared-exponent clamp (bounded by the strategy; the
    # clamped binade is pinned by test_clamped_binade_saturates below).
    factor = 2.0 ** np.floor(np.log2(scale_pow))
    lhs = quantize(x * factor, fmt)
    rhs = quantize(x, fmt) * factor
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=0)


def test_clamped_binade_saturates():
    # Regression for the property above: below 2**MIN_SHARED_EXPONENT the
    # 8-bit shared exponent clamps, the mantissa grid stops tracking the
    # input binade, and power-of-two scaling no longer commutes.  This is
    # faithful hardware saturation, not an encoder bug.
    tiny = 1.74710504e-39  # ~1.19 * 2**-129, three binades under the clamp
    x = np.array([tiny])

    for fmt in FORMATS:
        enc = quantize_blocks(x, fmt)
        # The shared exponent saturates at the clamp (the zero padding of
        # the block carries the sentinel minimum exponent as well).
        assert enc.shared_exponents.max() == MIN_SHARED_EXPONENT

    # At MX4 the clamped grid step is 2**-127: quantize(x) underflows to 0
    # while quantize(2 * x) rounds up to one step, so scaling by 2 does not
    # commute -- the exact falsifying example the unbounded property finds.
    assert quantize(x, MX4)[0] == 0.0
    assert quantize(2.0 * x, MX4)[0] != 0.0

    # Back inside the representable range the property holds again.
    safe = x * 2.0 ** 64
    np.testing.assert_array_equal(
        quantize(2.0 * safe, MX4), 2.0 * quantize(safe, MX4)
    )


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_fused_quantize_matches_encode_decode_bitwise(x, fmt):
    # The fused fake-quantize must equal the explicit encode/decode path to
    # the last bit -- including the sign of zeros, which array_equal would
    # not catch (the int32 round-trip normalizes -0.0 to +0.0).
    fused = quantize(x, fmt)
    reference = dequantize(quantize_blocks(x, fmt))
    assert fused.tobytes() == reference.tobytes()


def test_fused_quantize_normalizes_negative_zero():
    # round(-0.001 / scale) produces -0.0; the fused kernel must emit +0.0
    # exactly as the old float64 -> int32 -> float64 round-trip did.
    out = quantize(np.array([-0.2, 0.0, 1.0, -3.7, -1e-3]), MX4)
    assert not np.signbit(out[np.where(out == 0.0)]).any()


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_zeros_stay_zero(x, fmt):
    mask = x == 0.0
    dec = quantize(x, fmt)
    assert np.all(dec[mask] == 0.0)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=40),
        ),
        elements=finite_floats,
    ),
    formats,
)
@settings(max_examples=100, deadline=None)
def test_rows_quantize_independently(x, fmt):
    # Quantizing a matrix along its last axis equals quantizing each row.
    full = quantize(x, fmt, axis=1)
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(full[i], quantize(x[i], fmt))


@given(vectors, formats)
@settings(max_examples=100, deadline=None)
def test_packed_bytes_match_format_accounting(x, fmt):
    enc = quantize_blocks(x, fmt)
    assert enc.nbytes == fmt.bytes_for(x.size)


@given(vectors)
@settings(max_examples=100, deadline=None)
def test_mx4_mantissas_fit_two_bits(x):
    enc = quantize_blocks(x, MX4)
    assert np.all(np.abs(enc.mantissas) <= 3)


@given(vectors)
@settings(max_examples=100, deadline=None)
@example(np.array([5.64548745e-39, 2.71115033e-126]))
def test_mx9_representable_round_trip_is_exact(x):
    # Anything MX9 emits must round-trip exactly through MX9 again, in
    # every block above the exponent floor (see above_the_floor).
    once = quantize(x, MX9)
    keep = above_the_floor(x, MX9)
    np.testing.assert_array_equal(quantize(once, MX9)[keep], once[keep])
