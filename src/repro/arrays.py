"""The JSON-safe array codec: base64 raw bytes + dtype + shape, exactly.

Shard-protocol results, run-state snapshots and journaled cluster state
all carry numpy arrays through this one codec, and model weight states --
``(weights, biases)`` lists -- through :func:`encode_state`.  It imports
only numpy, so every layer can use it at module scope.
"""

from __future__ import annotations

import base64

import numpy as np

__all__ = ["decode_array", "decode_state", "encode_array", "encode_state"]


def encode_array(array: np.ndarray) -> dict:
    """Base64 raw bytes + dtype + shape: exact and compact."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """The inverse of :func:`encode_array`."""
    return np.frombuffer(
        base64.b64decode(payload["data"]), dtype=np.dtype(payload["dtype"])
    ).reshape(payload["shape"])


def encode_state(state: tuple[list, list]) -> dict:
    """A ``(weights, biases)`` weight state, layer by layer."""
    weights, biases = state
    return {
        "weights": [encode_array(w) for w in weights],
        "biases": [encode_array(b) for b in biases],
    }


def decode_state(payload: dict) -> tuple[list, list]:
    """The inverse of :func:`encode_state`."""
    return (
        [decode_array(w) for w in payload["weights"]],
        [decode_array(b) for b in payload["biases"]],
    )
