"""Resumable run-state snapshots: the incremental-window substrate.

A :class:`RunCheckpoint` freezes everything a
:class:`~repro.core.system.RunExecution` needs to continue a run past a
*safe point*: student/teacher weights, the sample buffer, the RNG
bit-generator state, the clock, the per-frame correct/dropped prefixes,
the committed phase records, and the scheduler's cursor.  Encoded with
:func:`encode_run_snapshot` it becomes a JSON-safe payload (arrays ride
the :mod:`repro.arrays` codec the shard protocol uses) that the fleet
service journals per stream, so window ``i+1`` replays only its own
``window_s`` stream-seconds instead of the whole prefix.

The contract is bit-identity, enforced two ways:

- **Safe points are segment-aligned prefixes.**  Stream materialization
  seeds each :data:`~repro.data.scenarios.SEGMENT_S`-second segment
  independently, so a truncated stream is a bit-exact prefix of a longer
  one only when the truncation lands on a segment boundary.
  :func:`decode_run_snapshot` refuses snapshots whose *origin* duration is
  unaligned -- resuming one would silently diverge from the prefix run.
- **Mismatch means recompute, never reuse.**  A snapshot names its
  version, numeric policy, system, scenario, and seed; any mismatch (or a
  future :data:`SNAPSHOT_VERSION` bump) raises :class:`SnapshotError`,
  which every caller treats as "fall back to a full prefix run".  The
  fallback is slower, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import decode_array, decode_state, encode_array, encode_state
from repro.core.phases import PhaseRecord, decode_phase, encode_phase
from repro.data.scenarios import SEGMENT_S
from repro.errors import ScheduleError, SnapshotError

__all__ = [
    "SNAPSHOT_VERSION",
    "RunCheckpoint",
    "decode_run_snapshot",
    "encode_run_snapshot",
    "stream_prefix_aligned",
]

#: Bump on any incompatible snapshot-shape or replay-semantics change;
#: decoding an older snapshot then fails loudly and the caller recomputes
#: the window as a prefix run instead of resuming mismatched state.
SNAPSHOT_VERSION = 1


def stream_prefix_aligned(
    duration_s: float, segment_s: float = SEGMENT_S
) -> bool:
    """Whether a stream truncated at ``duration_s`` is a bit-exact prefix.

    Scenario materialization seeds each ``segment_s``-second segment
    independently, and within a segment label draws interleave with
    feature draws -- so two streams of different durations agree on their
    overlap only when the shorter one ends exactly on a segment boundary.
    """
    if duration_s <= 0:
        return False
    ratio = duration_s / segment_s
    return abs(ratio - round(ratio)) < 1e-9


@dataclass
class RunCheckpoint:
    """Everything needed to continue a run from a committed safe point.

    ``correct``/``dropped`` cover exactly the frames with ``t < clock``;
    ``records`` are the phases committed so far.  ``idle_from`` is set
    when the scheduler exhausted at that clock -- resuming then extends
    the trailing idle record instead of asking the scheduler again.
    """

    clock: float
    idle_from: float | None
    rng_state: dict
    student: tuple[list[np.ndarray], list[np.ndarray]]
    teacher: tuple[list[np.ndarray], list[np.ndarray]] | None
    buffer_features: np.ndarray
    buffer_labels: np.ndarray
    scheduler: dict
    correct: np.ndarray
    dropped: np.ndarray
    records: tuple[PhaseRecord, ...]


def encode_run_snapshot(
    checkpoint: RunCheckpoint,
    *,
    policy: str,
    system: str,
    scenario: str,
    seed: int,
    origin_duration_s: float,
) -> dict:
    """A :class:`RunCheckpoint` as a JSON-safe, self-identifying payload.

    ``origin_duration_s`` is the duration of the run that captured the
    checkpoint -- decode refuses to resume from an unaligned origin (the
    stream prefix would not be reproducible, see
    :func:`stream_prefix_aligned`).
    """
    return {
        "v": SNAPSHOT_VERSION,
        "policy": policy,
        "system": system,
        "scenario": scenario,
        "seed": int(seed),
        "origin_duration_s": float(origin_duration_s),
        "clock": float(checkpoint.clock),
        "idle_from": (
            None
            if checkpoint.idle_from is None
            else float(checkpoint.idle_from)
        ),
        "rng": checkpoint.rng_state,
        "student": encode_state(checkpoint.student),
        "teacher": (
            None
            if checkpoint.teacher is None
            else encode_state(checkpoint.teacher)
        ),
        "buffer": {
            "features": encode_array(checkpoint.buffer_features),
            "labels": encode_array(checkpoint.buffer_labels),
        },
        "scheduler": dict(checkpoint.scheduler),
        "correct": encode_array(checkpoint.correct),
        "dropped": encode_array(checkpoint.dropped),
        "phases": [encode_phase(record) for record in checkpoint.records],
    }


def decode_run_snapshot(
    payload: dict,
    *,
    policy: str,
    system: str,
    scenario: str,
    seed: int,
    duration_s: float,
) -> RunCheckpoint:
    """Validate and decode a snapshot for resuming a specific run.

    Raises :class:`SnapshotError` on any incompatibility -- wrong
    version, policy, cell identity, an unaligned origin, a clock past
    the target duration, or an RNG state a PCG64 generator refuses.
    Callers fall back to a prefix run.
    """
    if not isinstance(payload, dict):
        raise SnapshotError(
            f"malformed run snapshot: {type(payload).__name__}, not an object"
        )
    try:
        version = payload.get("v")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} incompatible with "
                f"{SNAPSHOT_VERSION}; recompute from scratch"
            )
        for name, expected in (
            ("policy", policy),
            ("system", system),
            ("scenario", scenario),
        ):
            got = payload.get(name)
            if got != expected:
                raise SnapshotError(
                    f"snapshot {name} {got!r} does not match run "
                    f"{expected!r}"
                )
        if int(payload["seed"]) != int(seed):
            raise SnapshotError(
                f"snapshot seed {payload['seed']!r} does not match run "
                f"seed {seed!r}"
            )
        origin = float(payload["origin_duration_s"])
        if not stream_prefix_aligned(origin):
            raise SnapshotError(
                f"snapshot origin duration {origin:g}s is not "
                f"segment-aligned; the stream prefix is not reproducible"
            )
        clock = float(payload["clock"])
        if clock > float(duration_s) + 1e-9:
            raise SnapshotError(
                f"snapshot clock {clock:g}s is past the target duration "
                f"{duration_s:g}s"
            )
        # Load the RNG state into a throwaway generator, so a damaged state
        # is refused here rather than when the run resumes.
        np.random.PCG64(0).state = payload["rng"]
        idle_from = payload.get("idle_from")
        teacher = payload.get("teacher")
        buffer = payload["buffer"]
        return RunCheckpoint(
            clock=clock,
            idle_from=None if idle_from is None else float(idle_from),
            rng_state=payload["rng"],
            student=decode_state(payload["student"]),
            teacher=None if teacher is None else decode_state(teacher),
            buffer_features=decode_array(buffer["features"]),
            buffer_labels=decode_array(buffer["labels"]),
            scheduler=dict(payload.get("scheduler", {})),
            correct=decode_array(payload["correct"]),
            dropped=decode_array(payload["dropped"]),
            records=tuple(
                decode_phase(record) for record in payload["phases"]
            ),
        )
    except SnapshotError:
        raise
    except (
        KeyError, TypeError, ValueError, OverflowError, ScheduleError
    ) as exc:
        raise SnapshotError(f"malformed run snapshot: {exc}")
