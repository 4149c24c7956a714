"""Dot-Product Engine (DPE) model -- paper Figure 7.

A DPE consumes two MX-compressed 16-value blocks per dot-product and drives
them through a hierarchical tree of sixteen 2-bit multipliers:

- **MX4** (2-bit mantissas): every multiplier handles one product; all 16
  products issue in parallel -> 1 cycle per block dot-product.
- **MX6** (4-bit): four 2-bit multipliers fuse per product, four products at
  a time -> 4 cycles.
- **MX9** (7-bit, padded to 8): all sixteen multipliers fuse into a single
  8-bit product -> 16 cycles.

The FP32 generator rescales the integer accumulation into floating point;
the functional result therefore equals a float dot product of the
dequantized operands (verified against :mod:`repro.mx` in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.mx import MXFormat, quantize
from repro.numeric import ensure_float

__all__ = ["DPE_LANES", "cycles_per_dot", "DotProductEngine"]

#: Vector width of one DPE dot product (the MX block size).
DPE_LANES = 16

#: Width of the elementary multipliers in the hierarchical MAC tree.
_BASE_MULTIPLIER_BITS = 2


def cycles_per_dot(fmt: MXFormat) -> int:
    """Cycles one DPE needs for a 16-wide dot product in ``fmt``.

    Derived from the multiplier-fusion arithmetic of Figure 7: each product
    needs ``ceil(bits/2) ** 2`` 2-bit partial products, and the tree provides
    sixteen of them per cycle.
    """
    if fmt.block_size != DPE_LANES:
        raise ConfigurationError(
            f"DPE supports block size {DPE_LANES}, got {fmt.block_size}"
        )
    # Mantissa bits padded up to the next multiple of the base multiplier.
    segments = -(-fmt.mantissa_bits // _BASE_MULTIPLIER_BITS)
    partial_products_per_value = segments * segments
    total = partial_products_per_value * DPE_LANES
    return -(-total // DPE_LANES)  # tree throughput: 16 partials / cycle


@dataclass(frozen=True)
class DotProductEngine:
    """Functional + timing model of one DPE.

    The timing side is :meth:`cycles`; the functional side, :meth:`dot`,
    quantizes both operand blocks and accumulates in float (bit-equivalent
    to the integer datapath, see ``tests/mx/test_dot.py``).
    """

    lanes: int = DPE_LANES

    def cycles(self, fmt: MXFormat) -> int:
        """Cycles for one ``lanes``-wide dot product at ``fmt``."""
        return cycles_per_dot(fmt)

    def dot(
        self,
        a: np.ndarray,
        b: np.ndarray,
        fmt_a: MXFormat,
        fmt_b: MXFormat | None = None,
    ) -> float:
        """Functional dot product of one operand block pair.

        Accepts either policy dtype without upcasting: a float32 operand
        pair is quantized and accumulated at single precision, exactly as
        the FP32 generator hardware would.
        """
        a = ensure_float(a)
        b = ensure_float(b)
        if a.shape != (self.lanes,) or b.shape != (self.lanes,):
            raise ConfigurationError(
                f"DPE operands must be vectors of {self.lanes} values"
            )
        fmt_b = fmt_b or fmt_a
        return float(np.dot(quantize(a, fmt_a), quantize(b, fmt_b)))
