"""Phase records: the schedule trace every system run produces.

A phase is a half-open time interval during which the training-side
resources (T-SA or the GPU's leftover share) run one kernel.  The trace
backs the paper's Figure 11 (retrain:label time breakdown) and the
retraining-completion markers of Figure 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ScheduleError

__all__ = [
    "PhaseKind",
    "PhaseRecord",
    "decode_phase",
    "encode_phase",
    "phase_time_breakdown",
]


class PhaseKind(enum.Enum):
    """What the training-side resources are doing."""

    RETRAIN = "retrain"
    LABEL = "label"
    IDLE = "idle"


@dataclass(frozen=True)
class PhaseRecord:
    """One scheduled phase.

    Attributes:
        kind: Kernel the phase ran.
        start_s / end_s: Interval bounds (half-open).
        samples: Samples processed (epoch-passes count once per epoch).
        drift_detected: True on labeling phases that flagged data drift.
    """

    kind: PhaseKind
    start_s: float
    end_s: float
    samples: int = 0
    drift_detected: bool = False

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ScheduleError(
                f"phase ends before it starts: [{self.start_s}, {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        """Phase length in seconds."""
        return self.end_s - self.start_s


def encode_phase(phase: PhaseRecord) -> dict:
    """One phase record as a JSON-safe dict (exact round trip)."""
    return {
        "kind": phase.kind.value,
        "start_s": float(phase.start_s),
        "end_s": float(phase.end_s),
        "samples": int(phase.samples),
        "drift_detected": bool(phase.drift_detected),
    }


def decode_phase(payload: dict) -> PhaseRecord:
    """The inverse of :func:`encode_phase`.

    Raises ``KeyError``/``TypeError``/``ValueError`` for a malformed
    payload and :class:`ScheduleError` for a phase ending before it
    starts; each codec maps them to its own typed error.
    """
    return PhaseRecord(
        kind=PhaseKind(payload["kind"]),
        start_s=payload["start_s"],
        end_s=payload["end_s"],
        samples=payload["samples"],
        drift_detected=payload["drift_detected"],
    )


def phase_time_breakdown(
    phases: list[PhaseRecord],
) -> dict[PhaseKind, float]:
    """Total seconds per phase kind (Figure 11's stacked bars)."""
    totals = {kind: 0.0 for kind in PhaseKind}
    for phase in phases:
        totals[phase.kind] += phase.duration_s
    return totals
