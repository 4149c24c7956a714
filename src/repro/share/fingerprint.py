"""Deterministic drift fingerprints for camera streams.

A fingerprint is the per-segment sequence of *domain tokens* a stream
visits -- the drift signature that decides whether two cameras see
correlated content.  Two sources:

- :func:`schedule_fingerprint` -- for streams with a known scenario, the
  domain schedule itself.  ``build_scenario`` seeds its flips from the
  scenario's *own* registry seed (``data/scenarios._SPECS``), never from
  the cell seed, so the fingerprint is a pure function of (scenario name,
  duration): identical across processes, jobs counts, and camera seeds.
  It is also cheap -- the schedule is built without materializing a
  single frame.
- :func:`feature_fingerprint` -- for streams without a known schedule, a
  per-segment feature-statistics signature: segment feature means are
  accumulated in float64 and quantized onto a coarse grid before hashing,
  so rounding-level differences in the features never change a token.

Distance between fingerprints is the fraction of aligned segments whose
tokens differ (length mismatches count as differing), in [0, 1].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.data.scenarios import SEGMENT_S, build_scenario

__all__ = [
    "StreamFingerprint",
    "cell_fingerprint",
    "feature_fingerprint",
    "fingerprint_distance",
    "schedule_fingerprint",
]

#: Quantization grid for feature-statistics tokens.  Coarse enough that
#: rounding noise in a segment mean can essentially never move a value
#: across a bin edge; fine enough to separate the synthetic domain
#: geometries (which shift class centers by O(1)).
_FEATURE_GRID = 0.25


@dataclass(frozen=True)
class StreamFingerprint:
    """A stream's drift signature: one domain token per segment.

    Attributes:
        source: ``"schedule"`` (domain schedule known) or ``"features"``
            (statistics fallback).  Fingerprints from different sources
            never match -- their tokens live in different alphabets.
        tokens: One token per segment, in stream order.
        segment_s: Segment granularity the tokens were taken at.
    """

    source: str
    tokens: tuple[str, ...]
    segment_s: float

    def digest(self) -> str:
        """A short stable hash of the fingerprint (for logs and tests)."""
        payload = "|".join((self.source, f"{self.segment_s:g}") + self.tokens)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def schedule_fingerprint(
    scenario: str, duration_s: float | None = None
) -> StreamFingerprint:
    """The domain-schedule fingerprint of a named scenario.

    Deterministic in (scenario, duration) only: the schedule RNG is seeded
    from the scenario registry, so every camera seed of the same scenario
    shares one fingerprint.
    """
    if duration_s is None:
        stream = build_scenario(scenario)
    else:
        stream = build_scenario(scenario, duration_s=duration_s)
    tokens = tuple(segment.domain.describe() for segment in stream.segments)
    return StreamFingerprint(
        source="schedule", tokens=tokens, segment_s=float(SEGMENT_S)
    )


def feature_fingerprint(
    features: np.ndarray,
    times: np.ndarray,
    *,
    segment_s: float = SEGMENT_S,
) -> StreamFingerprint:
    """A feature-statistics fingerprint for a stream with no known schedule.

    Per segment, the feature mean vector is accumulated in float64 and
    snapped to a coarse grid before hashing, so the token survives
    rounding-level differences; empty segments hash to a fixed sentinel.
    """
    features = np.asarray(features, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        return StreamFingerprint(
            source="features", tokens=(), segment_s=float(segment_s)
        )
    count = int(np.ceil((float(times.max()) + 1e-9) / segment_s))
    tokens = []
    for index in range(max(count, 1)):
        lo, hi = index * segment_s, (index + 1) * segment_s
        mask = (times >= lo) & (times < hi)
        if not mask.any():
            tokens.append("empty")
            continue
        mean = features[mask].mean(axis=0)
        grid = np.round(mean / _FEATURE_GRID).astype(np.int64)
        tokens.append(hashlib.sha256(grid.tobytes()).hexdigest()[:12])
    return StreamFingerprint(
        source="features", tokens=tuple(tokens), segment_s=float(segment_s)
    )


def cell_fingerprint(cell) -> StreamFingerprint:
    """The fingerprint of a grid cell's stream (schedule-derived)."""
    return schedule_fingerprint(cell.scenario, cell.duration_s)


def fingerprint_distance(a: StreamFingerprint, b: StreamFingerprint) -> float:
    """Fraction of mismatching segments between two fingerprints, in [0, 1].

    Fingerprints from different sources or segment granularities are
    maximally distant; a length mismatch counts every unpaired segment as
    differing.
    """
    if a.source != b.source or a.segment_s != b.segment_s:
        return 1.0
    length = max(len(a.tokens), len(b.tokens))
    if length == 0:
        return 0.0
    same = sum(
        1 for ta, tb in zip(a.tokens, b.tokens) if ta == tb
    )
    return 1.0 - same / length
