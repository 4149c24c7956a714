"""Run results: per-frame correctness, phase traces, and energy.

The paper's accuracy metric averages accuracy over time slices of the
baseline window period (section VII-A); :meth:`RunResult.average_accuracy`
implements that, and :meth:`RunResult.accuracy_series` produces the
15-second series of Figures 10 and 12.

:func:`run_digest` is a run's identity: two runs share a digest iff they
are bit-identical (the frozen digests of :mod:`repro.reference` and the
service's journaled windows).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.phases import PhaseKind, PhaseRecord, phase_time_breakdown
from repro.errors import ScheduleError
from repro.learn.metrics import windowed_accuracy

__all__ = ["RunResult", "run_digest", "stream_digest"]


@dataclass(frozen=True)
class RunResult:
    """Everything one system run produces.

    Attributes:
        system: System name (e.g. ``"DaCapo-Spatiotemporal"``).
        scenario: Scenario name (e.g. ``"S1"``).
        pair: Model pair name (e.g. ``"resnet18_wrn50"``).
        times: Frame timestamps (every stream frame, dropped or not).
        correct: Per-frame correctness; dropped frames are False.
        dropped: Per-frame drop flags.
        phases: The training-side phase trace.
        duration_s: Total simulated time.
        energy_j: Integrated platform energy.
        average_power_w: Run-average electrical power.
    """

    system: str
    scenario: str
    pair: str
    times: np.ndarray
    correct: np.ndarray
    dropped: np.ndarray
    phases: tuple[PhaseRecord, ...]
    duration_s: float
    energy_j: float
    average_power_w: float

    def __post_init__(self) -> None:
        if not (
            len(self.times) == len(self.correct) == len(self.dropped)
        ):
            raise ScheduleError("frame trace arrays must align")
        if self.duration_s <= 0:
            raise ScheduleError("duration must be positive")

    @property
    def frame_drop_rate(self) -> float:
        """Fraction of stream frames the system failed to process."""
        if len(self.dropped) == 0:
            return 0.0
        return float(np.mean(self.dropped))

    def average_accuracy(self, window_s: float = 15.0) -> float:
        """Mean of per-window accuracies (the paper's end-to-end metric)."""
        _, series = self.accuracy_series(window_s)
        if len(series) == 0:
            return 0.0
        return float(np.mean(series))

    def accuracy_series(
        self, window_s: float = 15.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-window accuracy over time (Figures 10 and 12)."""
        return windowed_accuracy(
            self.times, self.correct, window_s, duration_s=self.duration_s
        )

    def phase_breakdown(self) -> dict[PhaseKind, float]:
        """Seconds spent per phase kind (Figure 11)."""
        return phase_time_breakdown(list(self.phases))

    def retrain_label_ratio(self) -> tuple[float, float]:
        """(retrain, label) shares of busy training-side time (Figure 11)."""
        breakdown = self.phase_breakdown()
        busy = breakdown[PhaseKind.RETRAIN] + breakdown[PhaseKind.LABEL]
        if busy == 0:
            return 0.0, 0.0
        return (
            breakdown[PhaseKind.RETRAIN] / busy,
            breakdown[PhaseKind.LABEL] / busy,
        )

    def drift_detections(self) -> tuple[float, ...]:
        """Times at which labeling phases flagged drift."""
        return tuple(
            p.end_s for p in self.phases if p.drift_detected
        )

    def retraining_completions(self) -> tuple[float, ...]:
        """Times at which retraining phases finished (Figure 10 markers)."""
        return tuple(
            p.end_s for p in self.phases if p.kind is PhaseKind.RETRAIN
        )

    def summary(self) -> dict:
        """Compact dict for reports and serialization."""
        retrain, label = self.retrain_label_ratio()
        return {
            "system": self.system,
            "scenario": self.scenario,
            "pair": self.pair,
            "average_accuracy": self.average_accuracy(),
            "frame_drop_rate": self.frame_drop_rate,
            "retrain_share": retrain,
            "label_share": label,
            "num_retrainings": len(self.retraining_completions()),
            "num_drifts_detected": len(self.drift_detections()),
            "energy_j": self.energy_j,
            "average_power_w": self.average_power_w,
        }

    def to_json(self, window_s: float = 15.0) -> str:
        """Serialize the run (summary + series + phase trace) to JSON."""
        import json

        starts, series = self.accuracy_series(window_s)
        payload = {
            "summary": self.summary(),
            "duration_s": self.duration_s,
            "window_s": window_s,
            "accuracy_series": {
                "window_starts": starts.tolist(),
                "accuracy": series.tolist(),
            },
            "phases": [
                {
                    "kind": p.kind.value,
                    "start_s": p.start_s,
                    "end_s": p.end_s,
                    "samples": p.samples,
                    "drift_detected": p.drift_detected,
                }
                for p in self.phases
            ],
        }
        return json.dumps(payload, indent=2)


def _array_bytes(array: np.ndarray) -> bytes:
    """Dtype-tagged contiguous bytes (the dtype is part of the identity)."""
    array = np.ascontiguousarray(array)
    return str(array.dtype).encode() + b"|" + array.tobytes()


def run_digest(result: RunResult) -> str:
    """Hex sha256 over every observable field of one run."""
    hasher = hashlib.sha256()
    hasher.update(
        f"{result.system}|{result.scenario}|{result.pair}|"
        f"{result.duration_s.hex()}".encode()
    )
    hasher.update(_array_bytes(result.times))
    hasher.update(_array_bytes(np.asarray(result.correct)))
    hasher.update(_array_bytes(np.asarray(result.dropped)))
    for phase in result.phases:
        hasher.update(
            f"{phase.kind.name}|{phase.start_s.hex()}|{phase.end_s.hex()}|"
            f"{phase.samples}|{int(phase.drift_detected)}".encode()
        )
    return hasher.hexdigest()


def stream_digest(window) -> str:
    """Hex sha256 over a materialized stream's raw arrays.

    ``window`` is a :class:`~repro.data.stream.FrameWindow`.
    """
    hasher = hashlib.sha256()
    for array in (window.features, window.labels, window.times):
        hasher.update(_array_bytes(np.asarray(array)))
    return hasher.hexdigest()
