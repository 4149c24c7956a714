"""Class-conditional feature distributions per domain.

Each object crop is a feature vector drawn from a Gaussian around its
class's *domain-specific* mean:

``x ~ N(R_domain @ mu_class,  sigma(domain)^2 * I)``

where ``R_domain`` composes one orthogonal rotation per active attribute
(night, highway, and the non-clear weathers).  The rotations act *within the
span of the class means*, which has two properties that make the synthetic
drift behave like the real one:

- **Difficulty is preserved.**  Rotations keep all pairwise mean distances,
  so every domain has the same intrinsic (Bayes) accuracy -- drift does not
  secretly make the task easier or harder, it *relocates* the classes.
- **Old boundaries break.**  Rotating within the constellation's span moves
  each class mean toward regions other classes used to occupy, so a model
  specialized on the previous domain genuinely misclassifies until it is
  retrained (out-of-span rotations would be nearly invisible to it).

Hard conditions (night, snow, rain) additionally widen the observation
noise, lowering those domains' accuracy ceiling, as in the real dataset.

Class priors depend on the label distribution (Traffic-Only segments lack
the non-traffic classes) and on the location (pedestrians and riders
concentrate in the city; cars and trucks dominate the highway), which is
what the paper's Figure 8 label-distribution histograms show.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.arrays import decode_array
from repro.data.attributes import (
    ALL_CLASSES,
    Domain,
    LabelDistribution,
    Location,
    TimeOfDay,
    Weather,
)
from repro.errors import ConfigurationError, ScenarioError

__all__ = ["DomainModel"]

#: Feature dimensionality of an object crop embedding.
FEATURE_DIM = 24

#: Distance scale of class means from the origin (unit directions scaled).
CLASS_SEPARATION = 5.5

#: Rotation angle scale (radians of the largest principal angle) applied per
#: active domain attribute.
ROTATION_ANGLE = 1.8

#: Overcast is a milder appearance change than night/snow/rain.
OVERCAST_ANGLE = 0.7

#: Base within-class noise.
BASE_SIGMA = 1.0

#: Noise widening for hard conditions (night, snow, rain).
HARD_CONDITION_SIGMA_FACTOR = 1.25

#: Base class priors under the All distribution (cars dominate, as in
#: BDD100K): aligned with ALL_CLASSES order.
_BASE_PRIORS = np.array(
    [0.40, 0.10, 0.06, 0.12, 0.14, 0.08, 0.03, 0.03, 0.02, 0.02]
)

#: Multiplicative prior tilts by location, aligned with ALL_CLASSES order.
_CITY_TILT = np.array([0.8, 0.7, 1.2, 1.3, 1.2, 1.8, 1.6, 1.6, 1.3, 0.5])
_HIGHWAY_TILT = np.array([1.3, 1.6, 0.9, 0.5, 0.9, 0.2, 0.2, 0.2, 0.6, 0.3])

#: Seed namespace for the fixed geometry (means and rotations).
_GEOMETRY_SEED = 20240614


#: The rotated attributes and their angles, in the order the geometry's
#: generator draws them.
_ROTATED = (
    (TimeOfDay.NIGHT, ROTATION_ANGLE),
    (Location.HIGHWAY, ROTATION_ANGLE),
    (Weather.OVERCAST, OVERCAST_ANGLE),
    (Weather.SNOWY, ROTATION_ANGLE),
    (Weather.RAINY, ROTATION_ANGLE),
)


def _build_geometry(
    feature_dim: int, geometry_seed: int
) -> tuple[np.ndarray, dict]:
    """Build the (means, rotations) geometry for one seed with scipy.

    The class means are random unit directions scaled by
    :data:`CLASS_SEPARATION`.  Each attribute's rotation is
    ``expm(angle * Q A Q^T)``, with ``Q`` an orthonormal basis of the
    means' span and ``A`` a random antisymmetric matrix normalized to unit
    spectral norm, so ``angle`` is the largest principal rotation angle in
    radians.

    Raises:
        ConfigurationError: scipy is not installed.
    """
    try:
        # Deferred: only a geometry other than the frozen default needs
        # scipy, so no run-time import loads it.
        from scipy.linalg import expm, qr
    except ImportError:
        raise ConfigurationError(
            f"the geometry with feature_dim={feature_dim} and "
            f"geometry_seed={geometry_seed} is built with scipy, which is "
            f"not installed; only the default ({FEATURE_DIM}, "
            f"{_GEOMETRY_SEED}) ships as a frozen table"
        ) from None
    rng = np.random.default_rng(geometry_seed)
    n = len(ALL_CLASSES)
    directions = rng.normal(size=(n, feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = CLASS_SEPARATION * directions
    span, _ = qr(means.T, mode="economic")
    k = span.shape[1]
    rotations: dict[object, np.ndarray] = {}
    for attribute, angle in _ROTATED:
        g = rng.normal(size=(k, k))
        antisym = g - g.T
        antisym /= np.linalg.norm(antisym, 2)
        rotations[attribute] = expm(angle * (span @ antisym @ span.T))
    return means, rotations


@lru_cache(maxsize=None)
def _geometry(
    feature_dim: int, geometry_seed: int
) -> tuple[np.ndarray, dict]:
    """The (means, rotations) geometry for one seed, made on first use.

    The default geometry, the one every run uses, is read from the frozen
    table in :mod:`repro.data.default_geometry`: the exact bytes
    :func:`_build_geometry` computes, so a run needs no scipy.  Any other
    is built.  Every :class:`DomainModel` with the same (feature_dim,
    geometry_seed) shares these arrays, frozen read-only.
    """
    if (feature_dim, geometry_seed) == (FEATURE_DIM, _GEOMETRY_SEED):
        # Deferred: the table is read on first use, so importing the data
        # layer reads no file.
        from repro.data import default_geometry

        table = default_geometry.ROTATIONS
        means = decode_array(default_geometry.MEANS)
        rotations = {
            attribute: decode_array(table[attribute.name])
            for attribute, _ in _ROTATED
        }
    else:
        means, rotations = _build_geometry(feature_dim, geometry_seed)
    means.setflags(write=False)
    for rotation in rotations.values():
        rotation.setflags(write=False)
    return means, rotations


@dataclass(frozen=True)
class DomainModel:
    """Frozen generative geometry for every (class, domain) combination.

    The geometry (class means, attribute rotations) is derived from
    ``geometry_seed`` alone, so two DomainModels with the same seed generate
    identically distributed data; sampling randomness comes from the
    caller's generator.  The first model of a (feature_dim, geometry_seed)
    makes the geometry (:func:`_geometry`) and later ones share it.

    Attributes:
        feature_dim: Embedding dimensionality.
        geometry_seed: Seed fixing means and rotations.
    """

    feature_dim: int = FEATURE_DIM
    geometry_seed: int = _GEOMETRY_SEED

    def __post_init__(self) -> None:
        if self.feature_dim < len(ALL_CLASSES):
            raise ScenarioError(
                f"feature_dim must be >= {len(ALL_CLASSES)} so class means "
                "span a full rotation subspace"
            )
        means, rotations = _geometry(self.feature_dim, self.geometry_seed)
        object.__setattr__(self, "_means", means)
        object.__setattr__(self, "_rotations", rotations)
        object.__setattr__(self, "_means_cache", {})
        object.__setattr__(self, "_priors_cache", {})

    @property
    def num_classes(self) -> int:
        """Total classes under the All distribution."""
        return len(ALL_CLASSES)

    def rotation(self, domain: Domain) -> np.ndarray:
        """The composed orthogonal transform for a domain."""
        result = np.eye(self.feature_dim)
        if domain.time is TimeOfDay.NIGHT:
            result = self._rotations[TimeOfDay.NIGHT] @ result
        if domain.location is Location.HIGHWAY:
            result = self._rotations[Location.HIGHWAY] @ result
        if domain.weather in self._rotations:
            result = self._rotations[domain.weather] @ result
        return result

    def class_means(self, domain: Domain) -> np.ndarray:
        """Per-class means in a domain, shape ``(num_classes, feature_dim)``.

        Results are cached per (time, location, weather) since the label
        distribution does not affect the geometry.
        """
        key = (domain.time, domain.location, domain.weather)
        cache: dict = self._means_cache
        if key not in cache:
            cache[key] = self._means @ self.rotation(domain).T
        return cache[key]

    def sigma(self, domain: Domain) -> float:
        """Within-class noise scale in a domain."""
        hard = (
            domain.time is TimeOfDay.NIGHT
            or domain.weather in (Weather.SNOWY, Weather.RAINY)
        )
        return BASE_SIGMA * (HARD_CONDITION_SIGMA_FACTOR if hard else 1.0)

    def class_priors(self, domain: Domain) -> np.ndarray:
        """Class sampling probabilities in a domain (sums to 1).

        Classes outside the segment's label distribution get probability 0.
        Results are cached per (location, labels) -- the only attributes the
        priors depend on -- and returned read-only.
        """
        key = (domain.location, domain.labels)
        cached = self._priors_cache.get(key)
        if cached is not None:
            return cached
        priors = _BASE_PRIORS.copy()
        tilt = (
            _CITY_TILT if domain.location is Location.CITY else _HIGHWAY_TILT
        )
        priors = priors * tilt
        if domain.labels is LabelDistribution.TRAFFIC_ONLY:
            priors[len(domain.labels.classes):] = 0.0
        total = priors.sum()
        if total <= 0:
            raise ScenarioError(f"empty class priors for {domain.describe()}")
        priors = priors / total
        priors.setflags(write=False)
        self._priors_cache[key] = priors
        return priors

    def sample(
        self,
        domain: Domain,
        n: int,
        rng: np.random.Generator,
        out_features: np.ndarray | None = None,
        out_labels: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labeled frames from a domain.

        Args:
            out_features: Optional ``(n, feature_dim)`` float64 buffer the
                features are generated *into* (the batched stream
                generator passes preallocated slices to skip the
                concatenation copy).
            out_labels: Optional ``(n,)`` int64 buffer for the labels.

        The randomness consumed -- one ``choice`` draw for the labels, one
        standard-normal block for the noise -- is identical with or without
        the output buffers.

        Returns:
            ``(X, y)`` with ``X`` of shape ``(n, feature_dim)`` and integer
            labels ``y`` indexing :data:`ALL_CLASSES`.
        """
        if n < 0:
            raise ScenarioError("sample size must be non-negative")
        priors = self.class_priors(domain)
        labels = rng.choice(self.num_classes, size=n, p=priors)
        if out_labels is not None:
            out_labels[...] = labels
            labels = out_labels
        means = self.class_means(domain)
        sigma = self.sigma(domain)
        if out_features is None:
            out_features = np.empty((n, self.feature_dim))
        rng.standard_normal(out=out_features)
        if sigma != 1.0:
            out_features *= sigma
        out_features += means[labels]
        return out_features, labels
