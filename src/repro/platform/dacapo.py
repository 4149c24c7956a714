"""The DaCapo accelerator as an execution platform.

Wraps the accelerator simulator with the paper's operating point:

- a committed T-SA/B-SA row partition (workflow step 3);
- MX6 for inference and labeling, MX9 for retraining (workflow step 2);
- inference at batch 1 (latency-bound streaming), labeling and retraining
  batched (section VII-A: retraining batch 16).

Inference ignores the ``share`` argument -- B-SA is dedicated to it.  For
labeling and retraining the share expresses T-SA time-sharing: granting the
kernel a fraction of T-SA's time scales its sustained rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator import (
    AcceleratorSimulator,
    Partition,
    PowerModel,
    SystolicArray,
)
from repro.errors import ConfigurationError
from repro.models.graph import ModelGraph
from repro.mx import MX6, MX9, MXFormat

__all__ = ["DaCapoPlatform", "build_dacapo_platform"]

#: Paper section VII-A batch sizes.
INFERENCE_BATCH = 1
LABELING_BATCH = 8
TRAINING_BATCH = 16


@dataclass(frozen=True)
class DaCapoPlatform:
    """DaCapo chip with a committed spatial partition.

    Attributes:
        partition: The T-SA/B-SA row split.
        simulator: Timing model.
        power: Chip power model (Table IV).
        inference_fmt / labeling_fmt / training_fmt: MX precision per kernel.
    """

    partition: Partition
    simulator: AcceleratorSimulator = AcceleratorSimulator()
    power: PowerModel = PowerModel()
    inference_fmt: MXFormat = MX6
    labeling_fmt: MXFormat = MX6
    training_fmt: MXFormat = MX9
    name: str = "DaCapo"

    #: B-SA is dedicated to inference: training-side kernels never share
    #: resources with it (the spatial-partitioning contribution).
    dedicated_inference: bool = True

    def _check_share(self, share: float) -> None:
        if not 0 <= share <= 1:
            raise ConfigurationError(
                f"{self.name}: share must be in [0, 1], got {share}"
            )

    def inference_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Streaming inference on the dedicated B-SA (share ignored)."""
        self._check_share(share)
        return self.simulator.inference_throughput(
            model, self.inference_fmt, self.partition.bsa, INFERENCE_BATCH
        )

    def labeling_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Teacher labeling on T-SA, scaled by its time share."""
        self._check_share(share)
        return share * self.simulator.inference_throughput(
            model, self.labeling_fmt, self.partition.tsa, LABELING_BATCH
        )

    def training_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Student retraining on T-SA, scaled by its time share."""
        self._check_share(share)
        return share * self.simulator.training_throughput(
            model, self.training_fmt, self.partition.tsa, TRAINING_BATCH
        )

    def average_power_w(self, utilization: float = 1.0) -> float:
        """Chip power at an array utilization in ``[0, 1]``."""
        return self.power.average_power_w(utilization)


def build_dacapo_platform(
    rows_tsa: int,
    array: SystolicArray | None = None,
    simulator: AcceleratorSimulator | None = None,
) -> DaCapoPlatform:
    """Convenience constructor from a T-SA row count."""
    array = array or SystolicArray()
    return DaCapoPlatform(
        partition=Partition(array, rows_tsa),
        simulator=simulator or AcceleratorSimulator(),
    )


@dataclass(frozen=True)
class DaCapoTimeShared:
    """DaCapo hardware driven like a GPU: one time-multiplexed device.

    This is the platform under the paper's *DaCapo-Ekya* baseline: Ekya's
    resource allocator treats the accelerator as a single shared device, so
    inference competes with retraining and labeling for the full array
    instead of owning a dedicated partition.  Comparing it against the
    partitioned :class:`DaCapoPlatform` isolates the benefit of spatial
    partitioning (section III-B's time-sharing critique).

    Attributes:
        array: The full systolic array.
        simulator: Timing model.
        power: Chip power model.
    """

    array: SystolicArray = SystolicArray()
    simulator: AcceleratorSimulator = AcceleratorSimulator()
    power: PowerModel = PowerModel()
    inference_fmt: MXFormat = MX6
    labeling_fmt: MXFormat = MX6
    training_fmt: MXFormat = MX9
    name: str = "DaCapo-TimeShared"
    dedicated_inference: bool = False

    #: Fine-grained time-multiplexing cost: the 30 Hz inference stream
    #: preempts the training-side kernel every frame, forcing pipeline
    #: drain, weight/operand re-stream, and precision-mode switches
    #: (section III-B's critique of time-sharing).  Applied to every rate.
    multiplexing_efficiency: float = 0.7

    def _check_share(self, share: float) -> None:
        if not 0 <= share <= 1:
            raise ConfigurationError(
                f"{self.name}: share must be in [0, 1], got {share}"
            )

    def inference_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Streaming inference on the full array, scaled by its time share."""
        self._check_share(share)
        return (
            share
            * self.multiplexing_efficiency
            * self.simulator.inference_throughput(
                model, self.inference_fmt, self.array.full(), INFERENCE_BATCH
            )
        )

    def labeling_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Teacher labeling on the full array, scaled by its time share."""
        self._check_share(share)
        return (
            share
            * self.multiplexing_efficiency
            * self.simulator.inference_throughput(
                model, self.labeling_fmt, self.array.full(), LABELING_BATCH
            )
        )

    def training_rate(self, model: ModelGraph, share: float = 1.0) -> float:
        """Student retraining on the full array, scaled by its time share."""
        self._check_share(share)
        return (
            share
            * self.multiplexing_efficiency
            * self.simulator.training_throughput(
                model, self.training_fmt, self.array.full(), TRAINING_BATCH
            )
        )

    def average_power_w(self, utilization: float = 1.0) -> float:
        """Chip power at an array utilization in ``[0, 1]``."""
        return self.power.average_power_w(utilization)
