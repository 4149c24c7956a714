"""Layer descriptors and their lowering to GEMM shapes.

Every compute-bearing layer lowers to one or more :class:`Gemm` shapes, the
unit the systolic-array simulator schedules.  Non-GEMM layers (normalization,
pooling, activations) execute on the accelerator's vector processing unit;
they carry parameters and activation footprints but no GEMMs, and their
runtime is folded into the vector-unit overhead factor of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelSpecError

__all__ = ["Gemm", "Layer", "Conv2d", "Linear", "Norm", "Pool", "Attention"]


@dataclass(frozen=True)
class Gemm:
    """An ``(M x K) @ (K x N)`` matrix multiplication.

    Attributes:
        m: Output rows (spatial positions x batch for convs, tokens for ViT).
        k: Contraction depth (streams through the DPE dot products).
        n: Output columns (output channels / features).
    """

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 1:
            raise ModelSpecError(f"GEMM dims must be positive, got {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count."""
        return self.m * self.k * self.n


@dataclass(frozen=True)
class Layer:
    """Base layer descriptor.

    Attributes:
        name: Unique name within the model (e.g. ``"layer1.0.conv2"``).
        params: Learnable parameter count.
        out_elems: Activation elements produced per sample (memory traffic).
    """

    name: str
    params: int = 0
    out_elems: int = 0

    def gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        """GEMMs this layer issues for a batch of ``batch`` samples."""
        return ()

    def macs(self, batch: int = 1) -> int:
        """Total MACs for a batch (all GEMMs included)."""
        return sum(g.macs for g in self.gemms(batch))


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class Conv2d(Layer):
    """2-D convolution, lowered to a single im2col GEMM.

    Attributes:
        in_channels / out_channels: Channel counts.
        kernel: Square kernel size.
        stride: Stride (same both dims).
        padding: Zero padding (same both dims).
        in_size: Input spatial size (square feature map).
        bias: Whether a bias vector is learned (ResNets use BN instead).
    """

    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    in_size: int = 0
    bias: bool = False
    params: int = field(init=False, default=0)
    out_elems: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_channels < 1 or self.in_size < 1:
            raise ModelSpecError(f"invalid Conv2d spec: {self.name}")
        weights = self.in_channels * self.kernel * self.kernel * self.out_channels
        if self.bias:
            weights += self.out_channels
        object.__setattr__(self, "params", weights)
        out = self.out_size
        object.__setattr__(self, "out_elems", out * out * self.out_channels)

    @property
    def out_size(self) -> int:
        """Output spatial size."""
        return conv_out_size(self.in_size, self.kernel, self.stride, self.padding)

    def gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        out = self.out_size
        return (
            Gemm(
                m=out * out * batch,
                k=self.in_channels * self.kernel * self.kernel,
                n=self.out_channels,
            ),
        )


@dataclass(frozen=True)
class Linear(Layer):
    """Fully connected layer: one ``(rows x in) @ (in x out)`` GEMM.

    ``tokens`` is the number of positions the layer is applied to per sample
    (1 for a classification head, sequence length for a transformer MLP).
    """

    in_features: int = 0
    out_features: int = 0
    bias: bool = True
    tokens: int = 1
    params: int = field(init=False, default=0)
    out_elems: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.in_features < 1 or self.out_features < 1 or self.tokens < 1:
            raise ModelSpecError(f"invalid Linear spec: {self.name}")
        weights = self.in_features * self.out_features
        if self.bias:
            weights += self.out_features
        object.__setattr__(self, "params", weights)
        object.__setattr__(self, "out_elems", self.tokens * self.out_features)

    def gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        return (
            Gemm(m=batch * self.tokens, k=self.in_features, n=self.out_features),
        )


@dataclass(frozen=True)
class Norm(Layer):
    """Batch/layer normalization: 2 learnable vectors, vector-unit compute."""

    channels: int = 0
    params: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ModelSpecError(f"invalid Norm spec: {self.name}")
        object.__setattr__(self, "params", 2 * self.channels)


@dataclass(frozen=True)
class Pool(Layer):
    """Pooling layer: no parameters, vector-unit compute only."""


@dataclass(frozen=True)
class Attention(Layer):
    """Multi-head self-attention block (ViT style).

    The QKV and output projections are ordinary GEMMs.  The per-head
    ``Q @ K^T`` and ``softmax @ V`` batched matmuls are modeled as GEMMs too
    (one per head), but flagged so callers can reproduce the paper's Table
    III FLOP convention, which excludes them.

    Attributes:
        dim: Embedding dimension.
        heads: Number of attention heads.
        seq: Sequence length (tokens, CLS included).
    """

    dim: int = 0
    heads: int = 0
    seq: int = 0
    params: int = field(init=False, default=0)
    out_elems: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.dim < 1 or self.heads < 1 or self.seq < 1:
            raise ModelSpecError(f"invalid Attention spec: {self.name}")
        if self.dim % self.heads:
            raise ModelSpecError(
                f"{self.name}: dim {self.dim} not divisible by heads {self.heads}"
            )
        # QKV projection (dim -> 3*dim, with bias) + output proj (dim -> dim).
        qkv = self.dim * 3 * self.dim + 3 * self.dim
        proj = self.dim * self.dim + self.dim
        object.__setattr__(self, "params", qkv + proj)
        object.__setattr__(self, "out_elems", self.seq * self.dim)

    @property
    def head_dim(self) -> int:
        """Per-head feature dimension."""
        return self.dim // self.heads

    def projection_gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        """The QKV and output projection GEMMs (Table III convention)."""
        tokens = self.seq * batch
        return (
            Gemm(m=tokens, k=self.dim, n=3 * self.dim),
            Gemm(m=tokens, k=self.dim, n=self.dim),
        )

    def attention_gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        """The score (``Q @ K^T``) and value (``A @ V``) matmuls, per head."""
        per_head = (
            Gemm(m=self.seq, k=self.head_dim, n=self.seq),
            Gemm(m=self.seq, k=self.seq, n=self.head_dim),
        )
        return per_head * (self.heads * batch)

    def gemms(self, batch: int = 1) -> tuple[Gemm, ...]:
        return self.projection_gemms(batch) + self.attention_gemms(batch)

    def macs(self, batch: int = 1, include_attention_bmm: bool = True) -> int:
        total = sum(g.macs for g in self.projection_gemms(batch))
        if include_attention_bmm:
            total += sum(g.macs for g in self.attention_gemms(batch))
        return total
