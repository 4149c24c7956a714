"""The numeric policy: one explicit dtype decision threaded everywhere.

Historically every float-producing layer hardcoded ``np.float64``.  That is
the safe default -- all reference digests were frozen under it -- but it is
also double the memory traffic and half the SIMD throughput the experiments
could have on bandwidth-starved hosts (the same scarcity DaCapo itself is
built around).  This module makes the dtype an explicit *policy* object:

- :data:`FLOAT64` -- the default.  Bit-identical to the historical
  behavior; the frozen reference digests in ``tests/reference/`` are
  re-verified against it.
- :data:`FLOAT32` -- the opt-in fast path (``REPRO_DTYPE=float32``).
  Streams, proxy weights, and MX tensors are generated and carried in
  float32; it has its *own* frozen reference digests and accuracy-delta
  bounds against float64.

The policy is one :class:`~repro.knobs.Knob`, :data:`NUMERIC`
(``REPRO_DTYPE``, default float64); README "Policies" gives its sweep-spec
key and the resolution order every knob shares.

Layering contract: the *data-producing* layers (streams, proxy models,
buffers, caches) consult :func:`active_policy` when they allocate, and from
then on arrays are self-describing -- the MX kernels and the accelerator
functional models are policy-free and simply preserve whatever float dtype
reaches them (:func:`ensure_float`).  Reductions that would drift past test
tolerances in float32 (loss means, SQNR statistics, windowed-accuracy
accumulation, geometric means) accumulate in float64 regardless of policy;
each such site is documented where it lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.knobs import Knob

__all__ = [
    "DTYPE_ENV",
    "FLOAT32",
    "FLOAT64",
    "NUMERIC",
    "POLICIES",
    "NumericPolicy",
    "active_policy",
    "ensure_float",
    "resolve_policy",
    "use_policy",
]

#: Environment variable selecting the process-wide policy.
DTYPE_ENV = "REPRO_DTYPE"

#: The float dtypes arrays are allowed to flow through the numeric layers
#: in; anything else is cast (never silently upcast between these two).
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class NumericPolicy:
    """Every dtype-dependent constant, resolved once and threaded through.

    Attributes:
        name: Canonical policy name (``"float64"`` / ``"float32"``) -- the
            value ``REPRO_DTYPE`` takes and the token cache keys embed.
        dtype: The numpy dtype streams, weights, and activations carry.
        atol: Absolute tolerance for closeness assertions at this precision.
        rtol: Relative tolerance for closeness assertions at this precision.
        digest_namespace: Short token namespacing content-addressed cache
            keys and reference-digest files, so float32 and float64
            artifacts can never collide.
    """

    name: str
    dtype: np.dtype
    atol: float
    rtol: float
    digest_namespace: str

    def asarray(self, values) -> np.ndarray:
        """``values`` as an array of the policy dtype (no copy if already)."""
        return np.asarray(values, dtype=self.dtype)

    def empty(self, shape) -> np.ndarray:
        """An uninitialized array of the policy dtype."""
        return np.empty(shape, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        """A zero array of the policy dtype."""
        return np.zeros(shape, dtype=self.dtype)

    def __str__(self) -> str:
        return self.name


FLOAT64 = NumericPolicy(
    name="float64",
    dtype=np.dtype(np.float64),
    atol=1e-9,
    rtol=1e-9,
    digest_namespace="f64",
)

FLOAT32 = NumericPolicy(
    name="float32",
    dtype=np.dtype(np.float32),
    atol=1e-4,
    rtol=1e-4,
    digest_namespace="f32",
)

#: The numeric knob, with its accepted spellings (environment values, CLI
#: args, spec entries).
NUMERIC = Knob(
    DTYPE_ENV,
    FLOAT64,
    label="numeric policy",
    aliases={
        "": FLOAT64,
        "float64": FLOAT64,
        "fp64": FLOAT64,
        "f64": FLOAT64,
        "64": FLOAT64,
        "double": FLOAT64,
        "float32": FLOAT32,
        "fp32": FLOAT32,
        "f32": FLOAT32,
        "32": FLOAT32,
        "single": FLOAT32,
    },
)

#: Supported policies by canonical name.
POLICIES: dict[str, NumericPolicy] = NUMERIC.by_name

resolve_policy = NUMERIC.resolve
active_policy = NUMERIC.active
use_policy = NUMERIC.use


def ensure_float(values) -> np.ndarray:
    """``values`` as a float32/float64 array, preserving which one it is.

    The dtype-polymorphic layers (MX kernels, DPE functional model) accept
    either policy dtype without silently upcasting float32 work to float64;
    non-float inputs (ints, bools, lists) are cast to float64, matching the
    historical behavior for those call sites.
    """
    arr = np.asarray(values)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float64)
