"""Tests for the domain generative model."""

import numpy as np
import pytest

from repro.data import Domain, DomainModel, LabelDistribution, Location, TimeOfDay, Weather
from repro.errors import ScenarioError

MODEL = DomainModel()


class TestGeometry:
    def test_deterministic_geometry(self):
        a, b = DomainModel(), DomainModel()
        np.testing.assert_array_equal(
            a.class_means(Domain()), b.class_means(Domain())
        )

    def test_domain_shifts_move_means(self):
        day = MODEL.class_means(Domain())
        night = MODEL.class_means(Domain().with_(time=TimeOfDay.NIGHT))
        assert not np.allclose(day, night)

    def test_rotations_compose_multiplicatively(self):
        both = MODEL.class_means(
            Domain().with_(time=TimeOfDay.NIGHT, location=Location.HIGHWAY)
        )
        base = MODEL.class_means(Domain())
        r_night = MODEL.rotation(Domain().with_(time=TimeOfDay.NIGHT))
        r_highway = MODEL.rotation(Domain().with_(location=Location.HIGHWAY))
        # rotation() applies night first, then highway: R = R_hwy @ R_night.
        np.testing.assert_allclose(both, base @ r_night.T @ r_highway.T)

    def test_rotations_are_orthogonal(self):
        rot = MODEL.rotation(Domain().with_(time=TimeOfDay.NIGHT))
        np.testing.assert_allclose(
            rot @ rot.T, np.eye(MODEL.feature_dim), atol=1e-10
        )

    def test_rotations_preserve_pairwise_distances(self):
        # The core difficulty-preservation property of the drift design.
        base = MODEL.class_means(Domain())
        night = MODEL.class_means(Domain().with_(time=TimeOfDay.NIGHT))
        dist = lambda m: np.linalg.norm(m[:, None] - m[None, :], axis=-1)
        np.testing.assert_allclose(dist(base), dist(night), atol=1e-9)

    def test_classes_stay_separated_in_every_domain(self):
        # Minimum pairwise mean distance must exceed the noise scale, so
        # every domain remains learnable.
        domains = [
            Domain(),
            Domain().with_(time=TimeOfDay.NIGHT),
            Domain().with_(location=Location.HIGHWAY),
            Domain().with_(weather=Weather.SNOWY),
            Domain().with_(time=TimeOfDay.NIGHT, location=Location.HIGHWAY,
                           weather=Weather.RAINY),
        ]
        for domain in domains:
            means = MODEL.class_means(domain)
            dists = np.linalg.norm(
                means[:, None, :] - means[None, :, :], axis=-1
            )
            dists += np.eye(len(means)) * 1e9
            assert dists.min() > MODEL.sigma(domain)

    def test_hard_conditions_widen_noise(self):
        assert MODEL.sigma(Domain().with_(time=TimeOfDay.NIGHT)) > MODEL.sigma(
            Domain()
        )
        assert MODEL.sigma(
            Domain().with_(weather=Weather.RAINY)
        ) > MODEL.sigma(Domain())

    def test_invalid_feature_dim(self):
        with pytest.raises(ScenarioError):
            DomainModel(feature_dim=1)


class TestPriors:
    def test_priors_sum_to_one(self):
        for domain in (Domain(), Domain().with_(labels=LabelDistribution.ALL)):
            assert MODEL.class_priors(domain).sum() == pytest.approx(1.0)

    def test_traffic_only_excludes_nontraffic(self):
        priors = MODEL.class_priors(Domain())
        assert np.all(priors[5:] == 0.0)

    def test_all_distribution_includes_everything(self):
        priors = MODEL.class_priors(
            Domain().with_(labels=LabelDistribution.ALL)
        )
        assert np.all(priors > 0.0)

    def test_city_has_more_pedestrians_than_highway(self):
        city = MODEL.class_priors(
            Domain().with_(labels=LabelDistribution.ALL)
        )
        highway = MODEL.class_priors(
            Domain().with_(
                labels=LabelDistribution.ALL, location=Location.HIGHWAY
            )
        )
        pedestrian = 5  # index in ALL_CLASSES
        assert city[pedestrian] > highway[pedestrian]


class TestSampling:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        x, y = MODEL.sample(Domain(), 100, rng)
        assert x.shape == (100, MODEL.feature_dim)
        assert y.shape == (100,)

    def test_labels_respect_distribution(self):
        rng = np.random.default_rng(1)
        _, y = MODEL.sample(Domain(), 500, rng)
        assert y.max() < 5  # traffic-only

    def test_reproducible_given_rng_seed(self):
        x1, y1 = MODEL.sample(Domain(), 50, np.random.default_rng(7))
        x2, y2 = MODEL.sample(Domain(), 50, np.random.default_rng(7))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_zero_samples(self):
        x, y = MODEL.sample(Domain(), 0, np.random.default_rng(0))
        assert len(x) == len(y) == 0

    def test_negative_rejected(self):
        with pytest.raises(ScenarioError):
            MODEL.sample(Domain(), -1, np.random.default_rng(0))
