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

import numpy as np

from repro.data.attributes import (
    Domain,
    LabelDistribution,
    Location,
    TimeOfDay,
    Weather,
)
from repro.data.distributions import DomainModel
from repro.learn.cache import PretrainRecipe, pretrained_mlp
from repro.learn.mlp import MLPClassifier
from repro.models.zoo import get_proxy_config
from repro.mx import MXFormat

__all__ = ["TeacherModel", "make_teacher", "pretraining_corpus"]

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


#: Pretraining corpus size (per domain) and schedule: enough for teachers
#: to exceed ~90% in-domain accuracy while keeping construction fast.
_PRETRAIN = PretrainRecipe(
    role="teacher",
    samples=400,
    epochs=50,
    lr=5e-2,
    batch_size=32,
    corpus=pretraining_corpus,
)


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
    mlp = pretrained_mlp(
        _PRETRAIN, model_name, domain_model.geometry_seed, seed
    )
    return TeacherModel(
        name=model_name,
        mlp=mlp.clone(),
        fmt=fmt,
        sensitivity=config.precision_sensitivity,
    )
