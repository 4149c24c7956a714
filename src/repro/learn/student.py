"""Student models: small trainable proxies specialized at runtime.

The student runs inference on every frame (paper Figure 1, kernel 1) and is
continuously retrained on teacher-labeled samples (kernel 2).  It starts
from generic pretrained weights (workflow step 1) and adapts to whatever
domain the stream currently shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.attributes import Domain, LabelDistribution
from repro.data.distributions import DomainModel
from repro.learn.cache import PretrainRecipe, pretrained_mlp
from repro.learn.mlp import MLPClassifier
from repro.learn.train import TrainConfig, train_sgd
from repro.models.zoo import get_proxy_config
from repro.mx import MXFormat
from repro.share.runtime import active_cluster_runtime

__all__ = ["StudentModel", "make_student"]


def _base_domain_corpus(model: DomainModel, samples: int, rng):
    return model.sample(Domain(labels=LabelDistribution.ALL), samples, rng)


#: Generic pretraining: the student is pretrained "over the general dataset
#: without having any specific context that the system is actually used
#: for" (workflow step 1) -- here, the base (day/city/clear) domain with all
#: ten classes.  Deployment domains are rotated away from it, so the
#: student *needs* continuous learning to perform, exactly as in the paper.
_PRETRAIN = PretrainRecipe(
    role="student",
    samples=800,
    epochs=8,
    lr=5e-2,
    batch_size=32,
    corpus=_base_domain_corpus,
    rng_key=(1,),
)


@dataclass
class StudentModel:
    """The continuously retrained inference model.

    Attributes:
        name: The paper model this proxy stands in for.
        mlp: The live classifier (mutated by retraining).
        inference_fmt: Precision of inference execution.
        training_fmt: Precision of retraining compute.
        sensitivity: Precision-sensitivity multiplier from the zoo.
    """

    name: str
    mlp: MLPClassifier
    inference_fmt: MXFormat | None = None
    training_fmt: MXFormat | None = None
    sensitivity: float = 1.0

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference at the deployment precision."""
        return self.mlp.predict(x, self.inference_fmt, self.sensitivity)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy at the deployment precision (0 on empty input)."""
        return self.mlp.accuracy(x, y, self.inference_fmt, self.sensitivity)

    def retrain(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
        learning_rate: float = 1e-3,
        batch_size: int = 16,
    ) -> list[float]:
        """Retraining at the training precision; returns per-epoch losses."""
        config = TrainConfig(
            learning_rate=learning_rate,
            batch_size=batch_size,
            epochs=epochs,
            fmt=self.training_fmt,
            sensitivity=self.sensitivity,
        )
        return train_sgd(self.mlp, x, y, config, rng)

    def snapshot(self):
        """Capture current weights (for candidate-model evaluation)."""
        return self.mlp.snapshot()

    def restore(self, state) -> None:
        """Roll back to a snapshot."""
        self.mlp.restore(state)

    def clone(self) -> "StudentModel":
        """Independent copy (baselines fork the same initial student)."""
        return StudentModel(
            name=self.name,
            mlp=self.mlp.clone(),
            inference_fmt=self.inference_fmt,
            training_fmt=self.training_fmt,
            sensitivity=self.sensitivity,
        )


def make_student(
    model_name: str,
    domain_model: DomainModel | None = None,
    inference_fmt: MXFormat | None = None,
    training_fmt: MXFormat | None = None,
    seed: int = 0,
) -> StudentModel:
    """Build a freshly pretrained student proxy for a paper model.

    Each call returns an independent copy of the cached pretrained weights,
    so concurrent systems can retrain their own students.
    """
    domain_model = domain_model or DomainModel()
    config = get_proxy_config(model_name)
    mlp = pretrained_mlp(
        _PRETRAIN, model_name, domain_model.geometry_seed, seed
    )
    cloned = mlp.clone()
    # Cross-camera sharing (opt-in): within a cluster, the first member's
    # pretrain becomes the cluster base and later members warm-start from
    # the cluster's freshest weights.  No active runtime -> untouched.
    runtime = active_cluster_runtime()
    if runtime is not None:
        runtime.adopt_student(model_name, cloned)
    return StudentModel(
        name=model_name,
        mlp=cloned,
        inference_fmt=inference_fmt,
        training_fmt=training_fmt,
        sensitivity=config.precision_sensitivity,
    )
