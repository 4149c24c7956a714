"""Model graph: an ordered sequence of layer descriptors.

A :class:`ModelGraph` is the unit the performance estimator consumes.  It
exposes aggregate parameter counts, MAC counts (with and without attention
batched matmuls, to match the paper's Table III convention), and the GEMM
work list for a given batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelSpecError
from repro.models.layers import Attention, Gemm, Layer

__all__ = ["ModelGraph"]

#: Training compute relative to one forward pass: forward + input-gradient
#: + weight-gradient passes.  The standard 3x accounting used by the paper's
#: workload characterization (section III-B).
TRAINING_MACS_FACTOR = 3


@dataclass(frozen=True)
class ModelGraph:
    """An ordered feed-forward model description.

    Attributes:
        name: Model name as used in the paper (e.g. ``"resnet18"``).
        layers: Ordered layer descriptors.
        input_size: Input image side (square), e.g. 224.
        num_classes: Classification head width.
    """

    name: str
    layers: tuple[Layer, ...]
    input_size: int = 224
    num_classes: int = 1000
    _names: frozenset = field(init=False, repr=False, default=frozenset())

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelSpecError(f"{self.name}: duplicate layer names {dupes}")
        object.__setattr__(self, "_names", frozenset(names))
        # Per-batch GEMM work-list memo (plain attribute, not a field, so it
        # stays out of __eq__/__hash__/__repr__).  Layers are immutable, so
        # the work list for a batch size never changes.
        object.__setattr__(self, "_gemm_cache", {})

    @property
    def params(self) -> int:
        """Total learnable parameters."""
        return sum(layer.params for layer in self.layers)

    def macs(self, batch: int = 1, include_attention_bmm: bool = True) -> int:
        """Forward-pass MACs for a batch.

        Args:
            batch: Batch size.
            include_attention_bmm: When False, excludes the per-head
                attention matmuls, reproducing the convention behind the
                paper's Table III GFLOPs column.
        """
        total = 0
        for layer in self.layers:
            if isinstance(layer, Attention):
                total += layer.macs(batch, include_attention_bmm)
            else:
                total += layer.macs(batch)
        return total

    def training_macs(self, batch: int = 1) -> int:
        """MACs for one training step (forward + backward)."""
        return TRAINING_MACS_FACTOR * self.macs(batch)

    @property
    def gflops(self) -> float:
        """Table III convention: GMACs per sample, attention bmm excluded."""
        return self.macs(1, include_attention_bmm=False) / 1e9

    def gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        """The full GEMM work list for one forward pass of a batch (memoized)."""
        cached = self._gemm_cache.get(batch)
        if cached is None:
            work: list[Gemm] = []
            for layer in self.layers:
                work.extend(layer.gemms(batch))
            cached = tuple(work)
            self._gemm_cache[batch] = cached
        return cached

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        if name not in self._names:
            raise ModelSpecError(f"{self.name}: no layer named {name!r}")
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise AssertionError("unreachable")

    def summary(self) -> str:
        """Human-readable one-line summary, Table III style."""
        return (
            f"{self.name}: {self.params / 1e6:.1f}M params, "
            f"{self.gflops:.2f} GFLOPs @ {self.input_size}px"
        )
