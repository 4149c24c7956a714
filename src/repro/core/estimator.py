"""Performance estimator (paper workflow step 2).

Before deployment, DaCapo estimates the sustained rate of each kernel on
the target platform, for every candidate MX precision.  Those rates feed
the spatial allocator (step 3) and the temporal allocator's phase-duration
arithmetic (step 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.models.graph import ModelGraph
from repro.models.zoo import ModelPair
from repro.platform.base import Platform

__all__ = ["KernelRates", "PerformanceEstimator"]


@dataclass(frozen=True)
class KernelRates:
    """Sustained samples/second for the three kernels.

    Attributes:
        inference_fps: Student forwards per second (streaming).
        labeling_sps: Teacher forwards per second (batched).
        training_sps: Student training samples per second (one epoch-pass).
        validation_sps: Student forwards per second on the training side.
    """

    inference_fps: float
    labeling_sps: float
    training_sps: float
    validation_sps: float

    def __post_init__(self) -> None:
        for name, value in (
            ("inference_fps", self.inference_fps),
            ("labeling_sps", self.labeling_sps),
            ("training_sps", self.training_sps),
            ("validation_sps", self.validation_sps),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PerformanceEstimator:
    """Rate queries for a (platform, model pair) combination.

    Attributes:
        platform: The execution platform.
        pair: The (student, teacher) model pair.
    """

    platform: Platform
    pair: ModelPair
    #: Per-share memo of :meth:`rates`; rates are pure in (platform, pair,
    #: share), so entries never go stale.
    _rates_cache: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def rates(self, share: float = 1.0) -> KernelRates:
        """Kernel rates given the share granted to training-side kernels.

        Inference always reports its dedicated-resource rate (B-SA on
        DaCapo, the priority share on GPUs is applied by the caller).
        Results are cached per share, so repeated queries (the temporal
        allocator probes many shares) walk each model graph once.
        """
        cached = self._rates_cache.get(share)
        if cached is None:
            student: ModelGraph = self.pair.student_graph()
            teacher: ModelGraph = self.pair.teacher_graph()
            cached = KernelRates(
                inference_fps=self.platform.inference_rate(student),
                labeling_sps=self.platform.labeling_rate(teacher, share),
                training_sps=self.platform.training_rate(student, share),
                validation_sps=self.platform.labeling_rate(student, share),
            )
            self._rates_cache[share] = cached
        return cached
