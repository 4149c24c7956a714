"""The numeric policy: the one host dtype every float-producing layer uses.

:data:`FLOAT64` is the only policy.  The frozen reference digests in
``tests/reference/`` are verified against it, and its name and
``f64`` namespace are written into the shard wire, both journal
fingerprints, run snapshots and the stream-artifact and pretrain cache
keys.  The paper's precision flexibility is modelled on the simulated
accelerator (MX formats), not by the host dtype.

The policy is one :class:`~repro.knobs.Knob`, :data:`NUMERIC`
(``REPRO_DTYPE``, default float64); README "Policies" gives its sweep-spec
key and the resolution order every knob shares.  A spelling it does not
declare, ``float32`` included, raises
:class:`~repro.errors.ConfigurationError`.

The MX kernels and the accelerator functional models are policy-free:
they preserve whatever float dtype reaches them (:func:`ensure_float`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.knobs import Knob

__all__ = [
    "DTYPE_ENV",
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
    """The host dtype and the names it is written under.

    Attributes:
        name: Canonical policy name (``"float64"``) -- the value
            ``REPRO_DTYPE`` takes and the name the wire, the journals and
            the snapshots carry.
        dtype: The numpy dtype streams, weights, and activations carry.
        digest_namespace: Short token namespacing content-addressed cache
            keys and reference-digest files.
    """

    name: str
    dtype: np.dtype
    digest_namespace: str

    def __str__(self) -> str:
        return self.name


FLOAT64 = NumericPolicy(
    name="float64",
    dtype=np.dtype(np.float64),
    digest_namespace="f64",
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
    either float dtype without silently upcasting float32 work to float64;
    non-float inputs (ints, bools, lists) are cast to float64, matching the
    historical behavior for those call sites.
    """
    arr = np.asarray(values)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float64)
