"""Accelerator simulator facade: model-level timing on a sub-accelerator.

Combines the GEMM compute model, the DRAM roofline, and the precision-
conversion unit into per-model forward/training timings.  This is the layer
the performance estimator (paper workflow step 2) queries.

Modeling notes:

- Compute and memory streams are double-buffered, so a GEMM costs
  ``max(compute, memory)`` cycles; the PCU is pipelined with the output
  drain and folded into the same max.
- Non-GEMM work (normalization, activations, pooling, softmax) runs on the
  vector units concurrently with the array; a fixed overhead factor covers
  the fraction that does not overlap.
- Training runs each forward GEMM plus its two backward GEMMs at the
  training precision, with the PCU producing the transposed copies
  (section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.conversion import PrecisionConversionUnit
from repro.accelerator.gemm import backward_gemms, gemm_compute_cycles
from repro.accelerator.memory import MemoryInterface
from repro.accelerator.systolic import SubAccelerator
from repro.errors import PartitionError
from repro.models.graph import ModelGraph
from repro.models.layers import Gemm
from repro.mx import MXFormat

__all__ = ["AcceleratorSimulator", "Timing", "clear_timing_caches"]

#: Non-overlapped vector-unit work as a fraction of array cycles.
VECTOR_OVERHEAD = 0.05

#: Timing memos.  Every key component (simulator, GEMM shape, MX format,
#: sub-accelerator, model graph) is a frozen dataclass, so keys capture the
#: full simulator configuration -- two simulators with different memory/PCU/
#: dataflow settings never share entries.  Timings are pure functions of
#: their key, so entries stay valid for the life of the process.
_GEMM_TIMING_CACHE: dict = {}
_MODEL_TIMING_CACHE: dict = {}


def clear_timing_caches() -> None:
    """Drop all memoized timings (for tests and benchmarks)."""
    _GEMM_TIMING_CACHE.clear()
    _MODEL_TIMING_CACHE.clear()


@dataclass(frozen=True)
class Timing:
    """Timing of a unit of work on a sub-accelerator.

    Attributes:
        cycles: Bottleneck (wall-clock) cycles.
        compute_cycles: Array-busy cycles (drives dynamic energy).
        memory_cycles: DRAM-stream cycles.
    """

    cycles: float
    compute_cycles: float
    memory_cycles: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(
            self.cycles + other.cycles,
            self.compute_cycles + other.compute_cycles,
            self.memory_cycles + other.memory_cycles,
        )


_ZERO = Timing(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AcceleratorSimulator:
    """Timing queries against one memory system and PCU configuration.

    Attributes:
        memory: Off-chip memory model.
        pcu: Precision-conversion unit model.
        vector_overhead: Non-overlapped vector-unit cycle fraction.
    """

    memory: MemoryInterface = MemoryInterface()
    pcu: PrecisionConversionUnit = PrecisionConversionUnit()
    vector_overhead: float = VECTOR_OVERHEAD
    dataflow: str = "output_stationary"

    def gemm_timing(
        self,
        gemm: Gemm,
        fmt: MXFormat,
        sub: SubAccelerator,
        for_training: bool = False,
    ) -> Timing:
        """Roofline timing of a single GEMM (memoized)."""
        key = (self, gemm, fmt, sub, for_training)
        timing = _GEMM_TIMING_CACHE.get(key)
        if timing is None:
            compute = gemm_compute_cycles(gemm, fmt, sub, self.dataflow)
            mem = self.memory.gemm_memory_cycles(gemm, fmt, sub.frequency_hz)
            convert = self.pcu.cycles(gemm.m * gemm.n, fmt, for_training)
            bottleneck = max(compute, mem, convert)
            timing = Timing(bottleneck, compute, mem)
            _GEMM_TIMING_CACHE[key] = timing
        return timing

    def forward_timing(
        self,
        model: ModelGraph,
        fmt: MXFormat,
        sub: SubAccelerator,
        batch: int = 1,
    ) -> Timing:
        """Timing of one forward pass of ``model`` for a batch (memoized)."""
        if sub.is_empty:
            raise PartitionError(f"{sub.name} has no rows assigned")
        key = (self, model, fmt, sub, batch, False)
        timing = _MODEL_TIMING_CACHE.get(key)
        if timing is None:
            total = _ZERO
            for gemm in model.gemms(batch):
                total = total + self.gemm_timing(gemm, fmt, sub)
            overhead = total.cycles * self.vector_overhead
            timing = Timing(
                total.cycles + overhead,
                total.compute_cycles,
                total.memory_cycles,
            )
            _MODEL_TIMING_CACHE[key] = timing
        return timing

    def training_timing(
        self,
        model: ModelGraph,
        fmt: MXFormat,
        sub: SubAccelerator,
        batch: int,
    ) -> Timing:
        """Timing of one training step, forward + both backward GEMMs (memoized)."""
        if sub.is_empty:
            raise PartitionError(f"{sub.name} has no rows assigned")
        key = (self, model, fmt, sub, batch, True)
        timing = _MODEL_TIMING_CACHE.get(key)
        if timing is None:
            total = _ZERO
            for gemm in model.gemms(batch):
                total = total + self.gemm_timing(
                    gemm, fmt, sub, for_training=True
                )
                for grad in backward_gemms(gemm):
                    total = total + self.gemm_timing(
                        grad, fmt, sub, for_training=True
                    )
            overhead = total.cycles * self.vector_overhead
            timing = Timing(
                total.cycles + overhead,
                total.compute_cycles,
                total.memory_cycles,
            )
            _MODEL_TIMING_CACHE[key] = timing
        return timing

    def forward_latency_s(
        self,
        model: ModelGraph,
        fmt: MXFormat,
        sub: SubAccelerator,
        batch: int = 1,
    ) -> float:
        """Seconds per forward pass of a batch."""
        return sub.seconds(self.forward_timing(model, fmt, sub, batch).cycles)

    def inference_throughput(
        self,
        model: ModelGraph,
        fmt: MXFormat,
        sub: SubAccelerator,
        batch: int = 1,
    ) -> float:
        """Sustained forward samples/second at the given batch size."""
        latency = self.forward_latency_s(model, fmt, sub, batch)
        return batch / latency

    def training_throughput(
        self,
        model: ModelGraph,
        fmt: MXFormat,
        sub: SubAccelerator,
        batch: int,
    ) -> float:
        """Sustained training samples/second at the given batch size."""
        timing = self.training_timing(model, fmt, sub, batch)
        return batch / sub.seconds(timing.cycles)
