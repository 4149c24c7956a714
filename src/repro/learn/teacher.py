"""Teacher models: large proxies pretrained across all domains.

The teacher labels sampled frames at runtime (paper Figure 1, kernel 3).
It is pretrained offline on a corpus drawn from *every* domain combination,
so it stays accurate through drifts -- but not perfect, so retraining labels
carry realistic noise.

Teachers are cached per (model name, seed): pretraining is deterministic
and shared across experiments in a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import zlib

import numpy as np

from repro import profiling
from repro.data.attributes import (
    Domain,
    LabelDistribution,
    Location,
    TimeOfDay,
    Weather,
)
from repro.data.distributions import DomainModel
from repro.learn.cache import (
    load_pretrained,
    pretrain_cache_key,
    store_pretrained,
)
from repro.learn.mlp import MLPClassifier
from repro.learn.train import TrainConfig, train_sgd
from repro.models.zoo import get_proxy_config
from repro.mx import MXFormat

__all__ = ["TeacherModel", "make_teacher", "pretraining_corpus"]

#: Pretraining corpus size and schedule: enough for teachers to exceed ~90%
#: in-domain accuracy while keeping construction fast.
_PRETRAIN_SAMPLES_PER_DOMAIN = 400
_PRETRAIN_EPOCHS = 50
_PRETRAIN_LR = 5e-2
_PRETRAIN_BATCH = 32


def _pretrain_cache_key(model_name: str) -> str:
    """Disk-cache key component for everything else the weights depend on."""
    return pretrain_cache_key(
        _PRETRAIN_SAMPLES_PER_DOMAIN,
        _PRETRAIN_EPOCHS,
        _PRETRAIN_LR,
        _PRETRAIN_BATCH,
        get_proxy_config(model_name).hidden_sizes,
    )


def _all_domains() -> list[Domain]:
    """Every attribute combination (the teacher's training coverage)."""
    domains = []
    for time in TimeOfDay:
        for location in Location:
            for weather in Weather:
                domains.append(
                    Domain(
                        labels=LabelDistribution.ALL,
                        time=time,
                        location=location,
                        weather=weather,
                    )
                )
    return domains


def pretraining_corpus(
    model: DomainModel,
    samples_per_domain: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """A balanced multi-domain corpus (the "general dataset" of step 1)."""
    xs, ys = [], []
    for domain in _all_domains():
        x, y = model.sample(domain, samples_per_domain, rng)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


@dataclass
class TeacherModel:
    """A pretrained labeling model.

    Attributes:
        name: The paper model this proxy stands in for.
        mlp: The trained classifier.
        fmt: MX precision the teacher executes at (None = FP32 on GPU).
        sensitivity: Precision-sensitivity multiplier from the zoo.
    """

    name: str
    mlp: MLPClassifier
    fmt: MXFormat | None = None
    sensitivity: float = 1.0

    def label(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels for sampled frames (the retraining labels)."""
        return self.mlp.predict(x, self.fmt, self.sensitivity)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Ground-truth accuracy (for analysis; the system never sees it)."""
        return self.mlp.accuracy(x, y, self.fmt, self.sensitivity)

    def with_precision(self, fmt: MXFormat | None) -> "TeacherModel":
        """The same weights executed at a different precision."""
        return TeacherModel(
            name=self.name,
            mlp=self.mlp,
            fmt=fmt,
            sensitivity=self.sensitivity,
        )


@lru_cache(maxsize=None)
def _pretrained_mlp(
    model_name: str, geometry_seed: int, seed: int
) -> MLPClassifier:
    """The shared pretrained teacher per (model, geometry, seed)."""
    with profiling.scope(profiling.PRETRAIN):
        cache_key = _pretrain_cache_key(model_name)
        cached = load_pretrained(
            "teacher", model_name, geometry_seed, seed, cache_key
        )
        if cached is not None:
            return cached
        domain_model = DomainModel(geometry_seed=geometry_seed)
        config = get_proxy_config(model_name)
        rng = np.random.default_rng(
            (seed, zlib.crc32(model_name.encode()) & 0xFFFF)
        )
        x, y = pretraining_corpus(
            domain_model, _PRETRAIN_SAMPLES_PER_DOMAIN, rng
        )
        mlp = MLPClassifier.create(
            domain_model.feature_dim,
            config.hidden_sizes,
            domain_model.num_classes,
            rng,
        )
        train_sgd(
            mlp, x, y,
            TrainConfig(
                learning_rate=_PRETRAIN_LR,
                batch_size=_PRETRAIN_BATCH,
                epochs=_PRETRAIN_EPOCHS,
            ),
            rng,
        )
        store_pretrained(
            "teacher", model_name, geometry_seed, seed, mlp, cache_key
        )
        return mlp


def make_teacher(
    model_name: str,
    domain_model: DomainModel | None = None,
    fmt: MXFormat | None = None,
    seed: int = 0,
) -> TeacherModel:
    """Pretrain (or fetch the cached) teacher proxy for a paper model.

    Args:
        model_name: Teacher name from the zoo (e.g. ``"wide_resnet50_2"``).
        domain_model: Data geometry (defaults to the shared geometry).
        fmt: Execution precision (MX6 on DaCapo, None/FP32 on GPUs).
        seed: Pretraining seed.
    """
    domain_model = domain_model or DomainModel()
    config = get_proxy_config(model_name)
    mlp = _pretrained_mlp(model_name, domain_model.geometry_seed, seed)
    return TeacherModel(
        name=model_name,
        mlp=mlp.clone(),
        fmt=fmt,
        sensitivity=config.precision_sensitivity,
    )
