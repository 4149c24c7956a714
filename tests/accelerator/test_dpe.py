"""Tests for the Dot-Product Engine model."""

import numpy as np
import pytest

from repro.accelerator import DPE_LANES, DotProductEngine, cycles_per_dot
from repro.errors import ConfigurationError
from repro.mx import MX4, MX6, MX9, MXFormat, quantize


class TestCyclesPerDot:
    def test_paper_serialization(self):
        # Section V-B: MX4 one cycle, MX6 four, MX9 sixteen.
        assert cycles_per_dot(MX4) == 1
        assert cycles_per_dot(MX6) == 4
        assert cycles_per_dot(MX9) == 16

    def test_rejects_foreign_block_size(self):
        odd = MXFormat("odd", mantissa_bits=4, block_size=32, subblock_size=2)
        with pytest.raises(ConfigurationError):
            cycles_per_dot(odd)

    def test_cycles_monotone_in_precision(self):
        assert cycles_per_dot(MX4) < cycles_per_dot(MX6) < cycles_per_dot(MX9)


class TestDotProductEngine:
    def test_lanes_default(self):
        assert DotProductEngine().lanes == DPE_LANES == 16

    def test_functional_dot_matches_mx_reference(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=16), rng.normal(size=16)
        dpe = DotProductEngine()
        expected = float(np.dot(quantize(a, MX6), quantize(b, MX9)))
        assert dpe.dot(a, b, MX6, MX9) == expected

    def test_functional_dot_default_format(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=16), rng.normal(size=16)
        dpe = DotProductEngine()
        assert dpe.dot(a, b, MX9) == dpe.dot(a, b, MX9, MX9)

    def test_wrong_operand_shape(self):
        dpe = DotProductEngine()
        with pytest.raises(ConfigurationError):
            dpe.dot(np.zeros(8), np.zeros(8), MX6)
