"""Frame samplers for the labeling pipeline (paper Figure 1).

Every frame reaches inference; only a sampled subset is labeled by the
teacher and considered for retraining.  The paper's workload study sweeps
sampling rates of 3/5/10% (Figure 3).

Samplers return int64 *indices* and consume only the integer/choice RNG
stream (`FrameWindow.subset` then yields views of the sampled frames).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScenarioError

__all__ = ["uniform_sample_indices", "stratified_indices"]


def uniform_sample_indices(
    num_frames: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a uniform ``rate`` subsample of ``num_frames`` frames.

    Args:
        num_frames: Population size.
        rate: Sampling fraction in ``(0, 1]``.
        rng: Randomness source.

    Returns:
        Sorted unique indices (chronological order preserved).
    """
    if num_frames < 0:
        raise ScenarioError("num_frames must be non-negative")
    if not 0 < rate <= 1:
        raise ScenarioError(f"sampling rate must be in (0, 1], got {rate}")
    count = int(round(num_frames * rate))
    count = min(count, num_frames)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    picked = rng.choice(num_frames, size=count, replace=False)
    return np.sort(picked)


def stratified_indices(
    labels: np.ndarray, per_class: int, rng: np.random.Generator
) -> np.ndarray:
    """Up to ``per_class`` indices from each class present in ``labels``.

    Used to keep validation sets representative of the buffer contents.
    """
    if per_class < 1:
        raise ScenarioError("per_class must be >= 1")
    labels = np.asarray(labels)
    picked: list[np.ndarray] = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        take = min(per_class, len(members))
        picked.append(rng.choice(members, size=take, replace=False))
    if not picked:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(picked))
