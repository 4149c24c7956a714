"""Tests for segments, frame windows, and scenario streams."""

import numpy as np
import pytest

from repro.data import (
    Domain,
    DomainModel,
    ScenarioStream,
    Segment,
    TimeOfDay,
    build_scenario,
)
from repro.errors import ScenarioError


def two_segment_stream() -> ScenarioStream:
    day = Segment(Domain(), duration_s=10.0)
    night = Segment(Domain().with_(time=TimeOfDay.NIGHT), duration_s=10.0)
    return ScenarioStream(name="test", segments=(day, night))


class TestSegment:
    def test_positive_duration_required(self):
        with pytest.raises(ScenarioError):
            Segment(Domain(), duration_s=0)


class TestScenarioStream:
    def test_duration_and_frames(self):
        stream = two_segment_stream()
        assert stream.duration_s == 20.0
        assert stream.num_frames == 600

    def test_segment_at(self):
        stream = two_segment_stream()
        assert stream.segment_at(5.0).domain.time is TimeOfDay.DAYTIME
        assert stream.segment_at(15.0).domain.time is TimeOfDay.NIGHT

    def test_segment_at_past_end_returns_last(self):
        stream = two_segment_stream()
        assert stream.segment_at(100.0).domain.time is TimeOfDay.NIGHT

    def test_segment_at_negative_rejected(self):
        with pytest.raises(ScenarioError):
            two_segment_stream().segment_at(-1.0)

    def test_drift_times(self):
        assert two_segment_stream().drift_times() == (10.0,)

    def test_no_drift_when_domains_equal(self):
        same = ScenarioStream(
            name="same",
            segments=(
                Segment(Domain(), 10.0),
                Segment(Domain(), 10.0),
            ),
        )
        assert same.drift_times() == ()

    def test_empty_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioStream(name="x", segments=())


class TestMaterialize:
    def test_frame_counts_and_monotone_times(self):
        frames = two_segment_stream().materialize(seed=0)
        assert len(frames) == 600
        assert np.all(np.diff(frames.times) >= 0)

    def test_deterministic_per_seed(self):
        stream = two_segment_stream()
        a = stream.materialize(seed=3)
        b = stream.materialize(seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_different_seeds_differ(self):
        stream = two_segment_stream()
        a = stream.materialize(seed=1)
        b = stream.materialize(seed=2)
        assert not np.allclose(a.features, b.features)

    def test_segment_content_independent_of_prefix(self):
        # Segment randomness is keyed by (seed, segment index); altering an
        # earlier segment's duration must not change a later segment's draw
        # count dependency -- check via identical second segments.
        night = Segment(Domain().with_(time=TimeOfDay.NIGHT), duration_s=5.0)
        s1 = ScenarioStream(name="a", segments=(Segment(Domain(), 5.0), night))
        s2 = ScenarioStream(name="b", segments=(Segment(Domain(), 5.0), night))
        np.testing.assert_array_equal(
            s1.materialize(0).window(5.0, 10.0).features,
            s2.materialize(0).window(5.0, 10.0).features,
        )


def per_segment_generate(stream: ScenarioStream, seed: int):
    """The generator ``ScenarioStream.generate`` vectorizes: float64
    draws per segment, collected in lists and concatenated once."""
    model = stream.model
    features, labels, times = [], [], []
    start = 0.0
    for index, segment in enumerate(stream.segments):
        count = int(round(segment.duration_s * stream.fps))
        rng = np.random.default_rng((seed, index))
        priors = model.class_priors(segment.domain)
        y = rng.choice(model.num_classes, size=count, p=priors)
        noise = rng.normal(
            scale=model.sigma(segment.domain),
            size=(count, model.feature_dim),
        )
        features.append(model.class_means(segment.domain)[y] + noise)
        labels.append(y)
        times.append(start + np.arange(count) / stream.fps)
        start += segment.duration_s
    return (
        np.concatenate(features),
        np.concatenate(labels),
        np.concatenate(times),
    )


class TestGenerateReference:
    def test_matches_the_per_segment_generator(self):
        stream = build_scenario("S4", duration_s=300.0)
        features, labels, times = per_segment_generate(stream, 0)
        exact = stream.generate(0)
        np.testing.assert_array_equal(exact.features, features)
        np.testing.assert_array_equal(exact.labels, labels)
        np.testing.assert_array_equal(exact.times, times)


class TestFrameWindow:
    def test_window_slicing(self):
        frames = two_segment_stream().materialize(seed=0)
        first_half = frames.window(0.0, 10.0)
        assert len(first_half) == 300
        assert first_half.times.max() < 10.0

    def test_window_empty(self):
        frames = two_segment_stream().materialize(seed=0)
        assert len(frames.window(50.0, 60.0)) == 0

    def test_window_invalid(self):
        frames = two_segment_stream().materialize(seed=0)
        with pytest.raises(ScenarioError):
            frames.window(10.0, 5.0)

    def test_subset(self):
        frames = two_segment_stream().materialize(seed=0)
        sub = frames.subset(np.array([0, 10, 20]))
        assert len(sub) == 3
        assert sub.times[0] == frames.times[0]

    def test_length_mismatch_rejected(self):
        from repro.data import FrameWindow

        with pytest.raises(ScenarioError):
            FrameWindow(np.zeros((3, 2)), np.zeros(2), np.zeros(3))

    def test_window_skips_revalidation(self, monkeypatch):
        from repro.data import FrameWindow

        frames = two_segment_stream().materialize(seed=0)
        calls = []
        original = FrameWindow.__post_init__
        monkeypatch.setattr(
            FrameWindow,
            "__post_init__",
            lambda self: (calls.append(1), original(self))[1],
        )
        window = frames.window(0.0, 10.0)
        sub = frames.subset(np.array([0, 1]))
        assert calls == []  # hot-path slicing bypasses __post_init__
        assert len(window) == 300 and len(sub) == 2
        # ... while the public constructor still validates
        FrameWindow(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
        assert calls == [1]


class TestCachedScheduleProperties:
    def test_duration_and_frames_computed_once(self):
        stream = two_segment_stream()
        assert "duration_s" not in stream.__dict__
        assert stream.duration_s == 20.0
        assert stream.num_frames == 600
        # functools.cached_property stores on the (frozen) instance
        assert stream.__dict__["duration_s"] == 20.0
        assert stream.__dict__["num_frames"] == 600
        assert stream.duration_s == 20.0

    def test_segment_at_boundary_belongs_to_next_segment(self):
        stream = two_segment_stream()
        assert stream.segment_at(0.0).domain.time is TimeOfDay.DAYTIME
        assert stream.segment_at(10.0).domain.time is TimeOfDay.NIGHT
        assert stream.segment_at(9.999).domain.time is TimeOfDay.DAYTIME
