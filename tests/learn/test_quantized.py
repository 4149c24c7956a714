"""Tests for sensitivity-scaled MX error injection (``effective_quantize``)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learn.quantized import effective_quantize
from repro.mx import MX6, MX9, quantize


@pytest.fixture
def x():
    return np.random.default_rng(0).normal(size=(8, 24))


@pytest.mark.parametrize(
    "sensitivity", [float("nan"), float("inf"), -float("inf"), -1.0, np.nan]
)
def test_rejects_non_finite_or_negative_sensitivity(x, sensitivity):
    with pytest.raises(ConfigurationError, match="finite number >= 0"):
        effective_quantize(x, MX9, sensitivity)


def test_unit_sensitivity_is_fake_quantization(x):
    np.testing.assert_array_equal(
        effective_quantize(x, MX6, 1.0), quantize(x, MX6)
    )


def test_zero_sensitivity_returns_the_input(x):
    np.testing.assert_array_equal(effective_quantize(x, MX9, 0.0), x)


def test_no_format_skips_the_check(x):
    # FP32 execution never quantizes, so the multiplier is never used.
    np.testing.assert_array_equal(effective_quantize(x, None, float("nan")), x)
