"""Accuracy metrics used across the evaluation.

The paper reports:

- end-to-end *averaged accuracy* over window-period time slices
  (section VII-A, "Accuracy metric");
- *accuracy over time* at 15-second intervals (Figure 10);
- geometric means across scenarios (Figure 9).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["accuracy", "windowed_accuracy", "geometric_mean"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions (empty inputs score 0)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ConfigurationError("predictions and labels must align")
    if len(labels) == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def windowed_accuracy(
    times: np.ndarray,
    correct: np.ndarray,
    window_s: float,
    duration_s: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window accuracy series.

    Args:
        times: Frame timestamps (seconds).
        correct: Per-frame correctness (bool or 0/1); dropped frames count
            as incorrect and must already be included.
        window_s: Window length (paper: 15 s for plots, the baseline window
            period for averages).
        duration_s: Total span; defaults to ``max(times)``.

    Returns:
        ``(window_starts, accuracies)``; windows without frames score 0.
    """
    # Accumulation site: times/correct arrive as floats, ints or bools and
    # are binned and summed in float64 (a float32 bincount sum would lose
    # counts past 2**24 frames).
    times = np.asarray(times, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    if times.shape != correct.shape:
        raise ConfigurationError("times and correctness must align")
    if window_s <= 0:
        raise ConfigurationError("window length must be positive")
    if len(times) == 0:
        return np.empty(0), np.empty(0)

    span = duration_s if duration_s is not None else float(times.max()) + 1e-9
    num_windows = max(1, int(np.ceil(span / window_s)))
    starts = np.arange(num_windows) * window_s
    indices = np.minimum(
        (times // window_s).astype(np.int64), num_windows - 1
    )
    sums = np.bincount(indices, weights=correct, minlength=num_windows)
    counts = np.bincount(indices, minlength=num_windows)
    with np.errstate(invalid="ignore", divide="ignore"):
        series = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return starts, series


def geometric_mean(values: np.ndarray) -> float:
    """Geometric mean of positive values (Figure 9's gmean columns).

    Accumulation site: always computed in float64, whatever dtype the
    values arrive in.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ConfigurationError("geometric mean of empty input")
    if np.any(values <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))
