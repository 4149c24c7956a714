"""Chronological frame streams assembled from domain segments.

A scenario is a sequence of :class:`Segment`\\ s (domain + duration).  The
paper unfolds each scenario over 20 minutes at 30 FPS (section VII-A);
materializing a stream draws every frame's feature vector and label from
the segment's domain model, in chronological order.

Materialization routes through the shared :class:`ArtifactStore`
(:mod:`repro.data.artifacts`): a (scenario, schedule, geometry, fps, seed)
key maps to one generated stream that is memoized in-process and persisted
as memmap-openable ``.npy`` files, so grid experiments share a single copy
instead of regenerating 36,000 frames per cell.  :meth:`ScenarioStream.generate`
is the raw (uncached) generator underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.data.attributes import Domain
from repro.data.distributions import DomainModel
from repro.errors import ScenarioError

__all__ = ["Segment", "FrameWindow", "ScenarioStream"]

#: Paper section VII-A stream parameters.
DEFAULT_FPS = 30.0
DEFAULT_DURATION_S = 20 * 60


@dataclass(frozen=True)
class Segment:
    """A maximal stretch of the stream with a constant domain.

    Attributes:
        domain: The attribute combination in effect.
        duration_s: Segment length in seconds.
    """

    domain: Domain
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ScenarioError("segment duration must be positive")


@dataclass(frozen=True)
class FrameWindow:
    """A contiguous slice of materialized frames.

    The public constructor validates that the arrays agree in length;
    internal slicing (:meth:`window`, :meth:`subset`) runs on the hot path
    of every simulated phase and skips that revalidation -- slices of a
    valid window are valid by construction.  Slices are numpy views (of a
    memmap when the stream came from the artifact store), never copies.

    Attributes:
        features: ``(n, feature_dim)`` crop embeddings.
        labels: ``(n,)`` integer ground-truth labels.
        times: ``(n,)`` frame timestamps in seconds, non-decreasing.
    """

    features: np.ndarray
    labels: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.features) == len(self.labels) == len(self.times)
        ):
            raise ScenarioError("frame arrays must have equal length")

    @classmethod
    def _trusted(
        cls, features: np.ndarray, labels: np.ndarray, times: np.ndarray
    ) -> "FrameWindow":
        """Construct without revalidation (callers guarantee equal lengths)."""
        window = object.__new__(cls)
        object.__setattr__(window, "features", features)
        object.__setattr__(window, "labels", labels)
        object.__setattr__(window, "times", times)
        return window

    def __len__(self) -> int:
        return len(self.labels)

    def window(self, t0: float, t1: float) -> "FrameWindow":
        """Frames with timestamps in ``[t0, t1)`` (a zero-copy view)."""
        if t1 < t0:
            raise ScenarioError(f"invalid window [{t0}, {t1})")
        lo = int(np.searchsorted(self.times, t0, side="left"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        return FrameWindow._trusted(
            self.features[lo:hi], self.labels[lo:hi], self.times[lo:hi]
        )

    def subset(self, indices: np.ndarray) -> "FrameWindow":
        """Frames at the given positions (sampler output)."""
        return FrameWindow._trusted(
            self.features[indices], self.labels[indices], self.times[indices]
        )


@dataclass(frozen=True)
class ScenarioStream:
    """A named schedule of segments over one domain model.

    Attributes:
        name: Scenario name (``"S1"`` .. ``"ES2"``).
        segments: Chronological segments.
        model: Generative geometry shared by all segments (by default
            the default geometry, made when the first stream is).
        fps: Frame rate.
    """

    name: str
    segments: tuple[Segment, ...]
    model: DomainModel = field(default_factory=DomainModel)
    fps: float = DEFAULT_FPS

    def __post_init__(self) -> None:
        if not self.segments:
            raise ScenarioError(f"{self.name}: scenario has no segments")
        if self.fps <= 0:
            raise ScenarioError(f"{self.name}: fps must be positive")

    @cached_property
    def _segment_ends(self) -> np.ndarray:
        """Cumulative segment end times (the searchsorted boundaries)."""
        return np.cumsum([s.duration_s for s in self.segments])

    @cached_property
    def _frame_counts(self) -> tuple[int, ...]:
        """Frames contributed by each segment."""
        return tuple(
            int(round(s.duration_s * self.fps)) for s in self.segments
        )

    @cached_property
    def duration_s(self) -> float:
        """Total stream length in seconds."""
        return float(self._segment_ends[-1])

    @cached_property
    def num_frames(self) -> int:
        """Total frame count."""
        return sum(self._frame_counts)

    def segment_at(self, t: float) -> Segment:
        """The segment containing time ``t``."""
        if t < 0:
            raise ScenarioError(f"negative time {t}")
        index = int(np.searchsorted(self._segment_ends, t, side="right"))
        if index >= len(self.segments):
            return self.segments[-1]
        return self.segments[index]

    def drift_times(self) -> tuple[float, ...]:
        """Times of segment boundaries where the domain actually changes."""
        ends = self._segment_ends
        return tuple(
            float(ends[index])
            for index in range(len(self.segments) - 1)
            if self.segments[index + 1].domain != self.segments[index].domain
        )

    def materialize(self, seed: int = 0) -> FrameWindow:
        """The stream's frames, shared through the artifact store.

        Identical in content to :meth:`generate` at the same seed, but the
        result is memoized in-process and memmap-backed on disk (see
        :mod:`repro.data.artifacts`), so repeated materializations -- within
        a grid run or across processes -- cost a cache lookup instead of
        regenerating every frame.
        """
        # Function-level: repro.data.artifacts imports this module.
        from repro.data.artifacts import materialize

        return materialize(self, seed)

    def generate(self, seed: int = 0) -> FrameWindow:
        """Draw every frame of the stream, chronologically (uncached).

        Per-segment substreams are seeded from ``(seed, segment index)``, so
        a segment's content does not depend on how earlier segments consumed
        randomness.  Frames are generated directly into preallocated arrays
        and timestamps are computed in one vectorized pass.
        """
        counts = self._frame_counts
        total = self.num_frames
        features = np.empty((total, self.model.feature_dim))
        labels = np.empty(total, dtype=np.int64)
        position = 0
        for index, segment in enumerate(self.segments):
            count = counts[index]
            rng = np.random.default_rng((seed, index))
            self.model.sample(
                segment.domain,
                count,
                rng,
                out_features=features[position:position + count],
                out_labels=labels[position:position + count],
            )
            position += count
        return FrameWindow(features, labels, self._frame_times())

    def _frame_times(self) -> np.ndarray:
        """All frame timestamps: per-segment ``start + arange(count)/fps``."""
        counts = np.asarray(self._frame_counts)
        ends = self._segment_ends
        starts = np.concatenate(([0.0], ends[:-1]))
        offsets = np.cumsum(counts) - counts
        local = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
        return local / self.fps + np.repeat(starts, counts)
