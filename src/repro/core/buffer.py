"""The fixed-capacity labeled-sample buffer (Algorithm 1's ``Bcur``).

FIFO eviction keeps the buffer biased toward recent data; ``reset`` clears
it entirely when drift is detected so outdated samples stop polluting
retraining (Algorithm 1, line 12).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError

__all__ = ["SampleBuffer"]


class SampleBuffer:
    """Bounded store of teacher-labeled samples.

    Args:
        capacity: ``Cb``, the maximum number of retained samples.
        feature_dim: Dimensionality of stored features.
    """

    def __init__(self, capacity: int, feature_dim: int) -> None:
        if capacity < 1:
            raise ScheduleError("buffer capacity must be >= 1")
        if feature_dim < 1:
            raise ScheduleError("feature_dim must be >= 1")
        self.capacity = capacity
        self.feature_dim = feature_dim
        self._features = np.empty((0, feature_dim))
        self._labels = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def features(self) -> np.ndarray:
        """View of the stored features (oldest first)."""
        return self._features

    @property
    def labels(self) -> np.ndarray:
        """View of the stored (teacher) labels."""
        return self._labels

    def add(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Append labeled samples, evicting the oldest beyond capacity."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ScheduleError(
                f"expected (n, {self.feature_dim}) features, "
                f"got {features.shape}"
            )
        if len(features) != len(labels):
            raise ScheduleError("features and labels must align")
        self._features = np.concatenate([self._features, features])
        self._labels = np.concatenate([self._labels, labels])
        if len(self._labels) > self.capacity:
            start = len(self._labels) - self.capacity
            self._features = self._features[start:]
            self._labels = self._labels[start:]

    def reset(self) -> None:
        """Discard every stored sample (drift response)."""
        self._features = np.empty((0, self.feature_dim))
        self._labels = np.empty(0, dtype=np.int64)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the stored ``(features, labels)``, oldest first."""
        return self._features.copy(), self._labels.copy()

    def restore(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Replace the contents with a :meth:`snapshot`'s arrays.

        Raises:
            ScheduleError: If the arrays do not fit this buffer's shape,
                dtype, or capacity.
        """
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ScheduleError(
                f"expected (n, {self.feature_dim}) features, "
                f"got {features.shape}"
            )
        if features.dtype != np.float64:
            raise ScheduleError(
                f"expected float64 features, got {features.dtype}"
            )
        if len(features) != len(labels):
            raise ScheduleError("features and labels must align")
        if len(labels) > self.capacity:
            raise ScheduleError(
                f"{len(labels)} samples exceed capacity {self.capacity}"
            )
        self._features = features.copy()
        self._labels = np.asarray(labels, dtype=np.int64).copy()

    def draw(
        self, num_train: int, num_validation: int, rng: np.random.Generator
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Disjoint retraining and validation sets (Algorithm 1, line 4).

        When the buffer holds fewer than ``num_train + num_validation``
        samples, both sets shrink proportionally (at least one sample each
        when the buffer is non-empty).

        Raises:
            ScheduleError: If the buffer is empty.
        """
        total = len(self)
        if total == 0:
            raise ScheduleError("cannot draw from an empty buffer")
        want = num_train + num_validation
        if want > total:
            scale = total / want
            num_train = max(1, int(num_train * scale))
            num_validation = max(1, min(
                total - num_train, int(num_validation * scale)
            ))
        picked = rng.choice(total, size=num_train + num_validation,
                            replace=False)
        train_idx = picked[:num_train]
        val_idx = picked[num_train:]
        return (
            (self._features[train_idx], self._labels[train_idx]),
            (self._features[val_idx], self._labels[val_idx]),
        )
