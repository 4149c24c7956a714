"""The end-to-end system simulator and DaCapo's spatiotemporal scheduler.

:class:`CLSystemBase` owns the mechanics every continuous-learning system
shares -- advancing the clock through phases, evaluating the student on the
frames of each phase interval under the weights active at that moment,
modeling frame drops, and accounting energy.  Subclasses contribute only a
scheduler: :meth:`~CLSystemBase.next_phase` returns one planned
:class:`PhaseStep` at a time (None when exhausted), and the phase's commit
callback mutates the student/buffer when the phase completes.

The run loop itself lives in :class:`RunExecution`, a checkpointable state
machine: after every phase that commits *untruncated*, the execution can
capture a :class:`~repro.core.snapshot.RunCheckpoint` (weights, buffer,
RNG state, clock, per-frame prefixes, scheduler cursor) from which a later
execution resumes bit-identically.  That is what lets the fleet service
compute window ``i+1`` from window ``i``'s snapshot instead of replaying
the whole stream prefix.

:class:`DaCapoSystem` implements the paper's Algorithm 1 on top of this:
retrain -> validate -> label -> drift check, with the labeling escalation
(``Nl`` -> ``Nldd``) and buffer reset on drift.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import profiling
from repro.core.buffer import SampleBuffer
from repro.core.config import DaCapoConfig
from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.core.snapshot import RunCheckpoint
from repro.data.stream import FrameWindow, ScenarioStream
from repro.errors import ScheduleError, SnapshotError
from repro.learn.student import StudentModel
from repro.learn.teacher import TeacherModel
from repro.models.zoo import ModelPair
from repro.platform.base import Platform
from repro.share.runtime import active_cluster_runtime

__all__ = ["PhaseStep", "CLSystemBase", "DaCapoSystem", "RunExecution"]

#: Below this many buffered samples, retraining is skipped (one batch).
MIN_RETRAIN_SAMPLES = 16


@dataclass
class PhaseStep:
    """One planned phase from a scheduler generator.

    Attributes:
        kind: Kernel the phase runs.
        duration_s: Planned duration (the run loop may truncate the final
            phase at the stream end).
        samples: Samples the phase processes (for the trace).
        commit: Callback ``(t0, t1) -> drift_detected`` executed when the
            phase completes; mutates student/buffer state.
    """

    kind: PhaseKind
    duration_s: float
    samples: int = 0
    commit: Callable[[float, float], bool] | None = None


class CLSystemBase:
    """Shared mechanics of every continuous-learning system.

    Args:
        name: Report name (e.g. ``"OrinHigh-Ekya"``).
        platform: Execution platform.
        pair: The (student, teacher) model pair.
        student: The live student proxy.
        teacher: The teacher proxy (None for systems that never label).
        config: Scheduling hyperparameters.
    """

    def __init__(
        self,
        name: str,
        platform: Platform,
        pair: ModelPair,
        student: StudentModel,
        teacher: TeacherModel | None,
        config: DaCapoConfig,
    ) -> None:
        self.name = name
        self.platform = platform
        self.pair = pair
        self.student = student
        self.teacher = teacher
        self.config = config
        self.buffer = SampleBuffer(
            config.buffer_capacity, feature_dim=self._feature_dim()
        )

        student_graph = pair.student_graph()
        self.inference_fps = platform.inference_rate(student_graph)
        self.drop_rate = max(
            0.0, 1.0 - self.inference_fps / config.frame_rate
        )
        if getattr(platform, "dedicated_inference", False):
            self.training_share = 1.0
        else:
            inference_share = min(
                1.0, config.frame_rate / self.inference_fps
            )
            self.training_share = max(0.0, 1.0 - inference_share)
        # Kernel-rate memos: platform, pair, and training share are fixed
        # after construction, so each rate is computed once on first use
        # instead of re-walking the model graph every phase.
        self._labeling_sps: float | None = None
        self._training_sps: float | None = None
        self._validation_sps: float | None = None

    def _feature_dim(self) -> int:
        return self.student.mlp.weights[0].shape[0]

    # -- rates ------------------------------------------------------------

    def labeling_sps(self) -> float:
        """Teacher labeling throughput under the training-side share."""
        if self._labeling_sps is None:
            rate = self.platform.labeling_rate(
                self.pair.teacher_graph(), self.training_share
            )
            # Labeling consumes live frames; it cannot outpace their arrival.
            self._labeling_sps = (
                min(rate, self.config.frame_rate) if rate > 0 else 0.0
            )
        return self._labeling_sps

    def training_sps(self) -> float:
        """Retraining throughput under the training-side share."""
        if self._training_sps is None:
            self._training_sps = self.platform.training_rate(
                self.pair.student_graph(), self.training_share
            )
        return self._training_sps

    def validation_sps(self) -> float:
        """Validation (student forward) throughput on the training side."""
        if self._validation_sps is None:
            self._validation_sps = self.platform.labeling_rate(
                self.pair.student_graph(), self.training_share
            )
        return self._validation_sps

    # -- scheduling hook ---------------------------------------------------

    def next_phase(
        self, frames: FrameWindow, rng: np.random.Generator
    ) -> PhaseStep | None:
        """The scheduler's next planned phase, or None when exhausted.

        The resumable scheduling hook: systems implement this (plus
        :meth:`scheduler_state` / :meth:`restore_scheduler_state` when they
        carry cursor state across phases) so a :class:`RunExecution` can
        checkpoint between phases.  State that a phase *decides* must be
        updated in its commit callback, not at generation time -- a
        generated step may be discarded when the stream truncates it.
        """
        raise NotImplementedError

    def scheduler_state(self) -> dict:
        """The scheduler's cursor state, as a JSON-safe dict."""
        return {}

    def restore_scheduler_state(self, state: dict) -> None:
        """Restore a cursor captured by :meth:`scheduler_state`."""

    # -- helpers shared by schedulers ---------------------------------------

    def retrain_duration_s(self, num_train: int, num_validation: int) -> float:
        """Wall time of a retraining phase (epochs + validation forward)."""
        train_sps = self.training_sps()
        val_sps = self.validation_sps()
        if train_sps <= 0 or val_sps <= 0:
            return float("inf")
        train_time = self.config.epochs * num_train / train_sps
        return train_time + num_validation / val_sps

    def label_duration_s(self, num_label: int) -> float:
        """Wall time of a labeling phase."""
        sps = self.labeling_sps()
        if sps <= 0:
            return float("inf")
        return num_label / sps

    def do_retrain(
        self,
        rng: np.random.Generator,
        max_duration_s: float | None = None,
    ) -> tuple[PhaseStep | None, dict]:
        """A retraining PhaseStep over the current buffer, or None.

        When ``max_duration_s`` is given (window-based schedulers), a
        retraining that would not fit trains only the sample prefix that
        does -- the "incomplete models" the paper attributes to retraining
        with insufficient resources.  The returned dict gains an ``"accv"``
        entry when the commit runs.
        """
        outcome: dict = {}
        if len(self.buffer) < MIN_RETRAIN_SAMPLES:
            return None, outcome
        (x_train, y_train), (x_val, y_val) = self.buffer.draw(
            self.config.num_train, self.config.num_validation, rng
        )
        duration = self.retrain_duration_s(len(x_train), len(x_val))
        if max_duration_s is not None and duration > max_duration_s:
            fraction = max_duration_s / duration
            keep = int(len(x_train) * fraction)
            if keep < MIN_RETRAIN_SAMPLES:
                return None, outcome  # the window is too short to retrain
            x_train, y_train = x_train[:keep], y_train[:keep]
            duration = self.retrain_duration_s(len(x_train), len(x_val))

        def commit(t0: float, t1: float) -> bool:
            with profiling.scope(profiling.RETRAIN):
                # Cross-camera sharing (opt-in): substitute a cluster
                # neighbor's per-domain weights for this retrain when one
                # is published; otherwise retrain and publish our own.
                # Off-path (no active runtime) this is a no-op branch.
                runtime = active_cluster_runtime()
                samples = self.config.epochs * len(x_train)
                reused = (
                    runtime.reusable_retrain(t0, samples)
                    if runtime is not None
                    else None
                )
                if reused is not None:
                    self.student.restore(reused)
                else:
                    self.student.retrain(
                        x_train,
                        y_train,
                        epochs=self.config.epochs,
                        rng=rng,
                        learning_rate=self.config.learning_rate,
                        batch_size=self.config.batch_size,
                    )
                    if runtime is not None:
                        runtime.publish_retrain(
                            t0, self.student.snapshot(), samples
                        )
                outcome["accv"] = self.student.accuracy(x_val, y_val)
            return False

        step = PhaseStep(
            PhaseKind.RETRAIN,
            duration,
            samples=self.config.epochs * len(x_train),
            commit=commit,
        )
        return step, outcome

    def do_label(
        self,
        frames: FrameWindow,
        num_label: int,
        rng: np.random.Generator,
        check_drift_against: Callable[[], float | None] | None = None,
    ) -> tuple[PhaseStep, dict]:
        """A labeling PhaseStep sampling from its own time window.

        Args:
            frames: The full materialized stream.
            num_label: Target labels (capped by frames in the window).
            rng: Randomness source.
            check_drift_against: When given, a callable returning the
                current validation accuracy; the commit compares the
                student's agreement on fresh labels against it (Algorithm 1
                line 11) and reports drift.

        The returned dict gains ``"accl"`` and ``"labeled"`` when committed.
        """
        outcome: dict = {}
        duration = self.label_duration_s(num_label)

        def commit(t0: float, t1: float) -> bool:
            with profiling.scope(profiling.LABEL):
                window = frames.window(t0, t1)
                if len(window) == 0:
                    outcome["labeled"] = 0
                    return False
                # Cross-camera sharing (opt-in): adopt a cluster neighbor's
                # teacher labels for this (domain, slot) instead of running
                # the teacher; otherwise label and publish for neighbors.
                runtime = active_cluster_runtime()
                shared = (
                    runtime.shared_labels(t0) if runtime is not None else None
                )
                if shared is not None:
                    x, teacher_labels = shared
                    count = len(x)
                else:
                    count = min(num_label, len(window))
                    picked = rng.choice(
                        len(window), size=count, replace=False
                    )
                    picked.sort()
                    x = window.features[picked]
                    assert self.teacher is not None
                    teacher_labels = self.teacher.label(x)
                    if runtime is not None:
                        runtime.publish_labels(t0, x, teacher_labels)
                predictions = self.student.predict(x)
                accl = float(np.mean(predictions == teacher_labels))
                outcome["accl"] = accl
                outcome["labeled"] = count

                drift = False
                if check_drift_against is not None:
                    accv = check_drift_against()
                    if accv is not None:
                        drift = (accl - accv) < self.config.drift_threshold
                if drift:
                    self.buffer.reset()  # Algorithm 1 line 12
                self.buffer.add(x, teacher_labels)
                outcome["drift"] = drift
            return drift

        step = PhaseStep(
            PhaseKind.LABEL, duration, samples=num_label, commit=commit
        )
        return step, outcome

    # -- the run loop -------------------------------------------------------

    def run(self, stream: ScenarioStream, seed: int = 0) -> RunResult:
        """Simulate the system over a scenario stream."""
        execution = RunExecution(self, stream, seed)
        execution.run_to_end()
        return execution.result()

    def _evaluate_interval(
        self,
        frames: FrameWindow,
        t0: float,
        t1: float,
        correct: np.ndarray,
        dropped: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Score frames in ``[t0, t1)`` with the current student weights."""
        if t1 <= t0:
            return
        with profiling.scope(profiling.INFERENCE):
            lo = int(np.searchsorted(frames.times, t0, side="left"))
            hi = int(np.searchsorted(frames.times, t1, side="left"))
            if hi <= lo:
                return
            window_features = frames.features[lo:hi]
            window_labels = frames.labels[lo:hi]
            predictions = self.student.predict(window_features)
            ok = predictions == window_labels
            if self.drop_rate > 0:
                drops = rng.random(hi - lo) < self.drop_rate
                ok = ok & ~drops
                dropped[lo:hi] = drops
            correct[lo:hi] = ok


def _check_weights(owner: str, mlp, state) -> None:
    """Refuse a snapshot weight state whose layers do not fit ``mlp``'s.

    Every weight and bias must have the model's shape and dtype, so a
    damaged state never reaches the model.
    """
    weights, biases = state
    fits = len(weights) == len(biases) == mlp.num_layers and all(
        got.shape == want.shape and got.dtype == want.dtype
        for got, want in zip((*weights, *biases), (*mlp.weights, *mlp.biases))
    )
    if not fits:
        raise SnapshotError(
            f"{owner}: snapshot weights do not fit the model's layers"
        )


class RunExecution:
    """The run loop as a checkpointable state machine.

    Drives a system's scheduler phase by phase, exactly as the historical
    ``CLSystemBase.run`` generator loop did -- same clock advancement, same
    truncation at stream end, same RNG consumption order -- but the state
    between phases is explicit, so it can be captured into a
    :class:`~repro.core.snapshot.RunCheckpoint` and restored later.

    Safe points: a checkpoint is captured (when ``capture`` is on) after
    every phase whose planned duration fit the remaining stream.  The final
    *truncated* phase's commit mutates state that the full-length run would
    have reached differently, so it is deliberately not captured -- a
    resumed execution restores the last safe point and regenerates that
    phase against the longer stream.  When the scheduler exhausts, the
    trailing idle is captured with ``idle_from`` set; resuming then
    *extends* the idle record rather than re-asking the exhausted
    scheduler.

    Args:
        system: The system to run; its student/buffer are mutated.
        stream: The scenario stream.
        seed: Stream + RNG seed (as in :meth:`CLSystemBase.run`).
        checkpoint: Resume from this safe point instead of t=0.  The
            checkpoint's frame prefix must match the stream, else
            :class:`SnapshotError`.
        capture: Keep a checkpoint of the latest safe point (costs array
            copies per phase; the monolithic ``run()`` leaves it off).
    """

    def __init__(
        self,
        system: CLSystemBase,
        stream: ScenarioStream,
        seed: int = 0,
        *,
        checkpoint: RunCheckpoint | None = None,
        capture: bool = False,
    ) -> None:
        self.system = system
        self.stream = stream
        self.seed = seed
        with profiling.scope(profiling.MATERIALIZE):
            self.frames = stream.materialize(seed)
        self.duration = stream.duration_s
        self.capture_enabled = bool(capture)
        self._checkpoint: RunCheckpoint | None = None

        if checkpoint is not None:
            self._restore(checkpoint)
        else:
            self.rng = np.random.default_rng(
                (seed, zlib.crc32(system.name.encode()) & 0xFFFF)
            )
            self.correct = np.zeros(len(self.frames), dtype=bool)
            self.dropped = np.zeros(len(self.frames), dtype=bool)
            self.records: list[PhaseRecord] = []
            self.clock = 0.0
            self.idle_from: float | None = None
        if self.capture_enabled:
            self._capture()

    def _restore(self, chk: RunCheckpoint) -> None:
        system = self.system
        prefix = int(
            np.searchsorted(self.frames.times, chk.clock, side="left")
        )
        if prefix != len(chk.correct) or prefix != len(chk.dropped):
            raise SnapshotError(
                f"{system.name}: snapshot prefix covers {len(chk.correct)} "
                f"frames but the stream has {prefix} before t={chk.clock:g}"
            )
        if chk.correct.dtype != bool or chk.dropped.dtype != bool:
            raise SnapshotError(
                f"{system.name}: snapshot frame flags are not bool"
            )
        if chk.clock > self.duration + 1e-9:
            raise SnapshotError(
                f"{system.name}: snapshot clock {chk.clock:g}s is past the "
                f"stream end {self.duration:g}s"
            )
        if chk.teacher is not None and system.teacher is None:
            raise SnapshotError(
                f"{system.name}: snapshot carries teacher weights but "
                f"the system has no teacher"
            )
        _check_weights(
            f"{system.name} student", system.student.mlp, chk.student
        )
        if chk.teacher is not None:
            _check_weights(
                f"{system.name} teacher", system.teacher.mlp, chk.teacher
            )
        system.student.restore(chk.student)
        if chk.teacher is not None:
            system.teacher.mlp.restore(chk.teacher)
        try:
            system.buffer.restore(chk.buffer_features, chk.buffer_labels)
            system.restore_scheduler_state(chk.scheduler)
        except (ScheduleError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{system.name}: malformed snapshot state: {exc}"
            ) from exc
        self.rng = np.random.default_rng(
            (self.seed, zlib.crc32(system.name.encode()) & 0xFFFF)
        )
        self.rng.bit_generator.state = chk.rng_state
        self.correct = np.zeros(len(self.frames), dtype=bool)
        self.dropped = np.zeros(len(self.frames), dtype=bool)
        self.correct[:prefix] = chk.correct
        self.dropped[:prefix] = chk.dropped
        self.records = list(chk.records)
        self.clock = float(chk.clock)
        self.idle_from = chk.idle_from

    def _capture(self) -> None:
        system = self.system
        prefix = int(
            np.searchsorted(self.frames.times, self.clock, side="left")
        )
        features, labels = system.buffer.snapshot()
        self._checkpoint = RunCheckpoint(
            clock=self.clock,
            idle_from=self.idle_from,
            rng_state=self.rng.bit_generator.state,
            student=system.student.snapshot(),
            teacher=(
                None
                if system.teacher is None
                else system.teacher.mlp.snapshot()
            ),
            buffer_features=features,
            buffer_labels=labels,
            scheduler=system.scheduler_state(),
            correct=self.correct[:prefix].copy(),
            dropped=self.dropped[:prefix].copy(),
            records=tuple(self.records),
        )

    def checkpoint(self) -> RunCheckpoint | None:
        """The latest safe point (None unless ``capture`` was on)."""
        return self._checkpoint

    def run_to_end(self) -> None:
        """Advance from the current state to the end of the stream."""
        system = self.system
        frames = self.frames
        duration = self.duration

        if self.idle_from is not None and self.clock < duration:
            # Resumed past scheduler exhaustion: the origin run already
            # appended the trailing idle record; extend it to the new end
            # so the trace matches a monolithic run's single idle phase.
            system._evaluate_interval(
                frames, self.clock, duration, self.correct, self.dropped,
                self.rng,
            )
            last = self.records[-1] if self.records else None
            if last is not None and last.kind is PhaseKind.IDLE:
                self.records[-1] = PhaseRecord(
                    PhaseKind.IDLE, last.start_s, duration
                )
            else:
                self.records.append(
                    PhaseRecord(PhaseKind.IDLE, self.clock, duration)
                )
            self.clock = duration
            if self.capture_enabled:
                self._capture()
            return

        while self.clock < duration:
            step = system.next_phase(frames, self.rng)
            if step is None:
                # Scheduler exhausted early (e.g. no-retrain systems):
                # evaluate the remainder under the final weights.
                self.idle_from = self.clock
                system._evaluate_interval(
                    frames, self.clock, duration, self.correct,
                    self.dropped, self.rng,
                )
                self.records.append(
                    PhaseRecord(PhaseKind.IDLE, self.clock, duration)
                )
                self.clock = duration
                if self.capture_enabled:
                    self._capture()
                return
            if step.duration_s <= 0:
                raise ScheduleError(
                    f"{system.name}: non-positive phase duration"
                )
            truncated = self.clock + step.duration_s > duration
            end = min(self.clock + step.duration_s, duration)
            system._evaluate_interval(
                frames, self.clock, end, self.correct, self.dropped,
                self.rng,
            )
            drift = False
            if step.commit is not None:
                drift = step.commit(self.clock, end)
            self.records.append(
                PhaseRecord(step.kind, self.clock, end, step.samples, drift)
            )
            self.clock = end
            if self.capture_enabled and not truncated:
                self._capture()

    def result(self) -> RunResult:
        """The run's :class:`RunResult` (call after :meth:`run_to_end`)."""
        system = self.system
        power = system.platform.average_power_w(1.0)
        return RunResult(
            system=system.name,
            scenario=self.stream.name,
            pair=system.pair.name,
            times=self.frames.times,
            correct=self.correct,
            dropped=self.dropped,
            phases=tuple(self.records),
            duration_s=self.duration,
            energy_j=power * self.duration,
            average_power_w=power,
        )


class DaCapoSystem(CLSystemBase):
    """DaCapo-Spatiotemporal: Algorithm 1 on the partitioned accelerator.

    The loop alternates retraining and labeling phases on T-SA.  After each
    retraining, the updated student is validated on buffered data
    (``accv``); after each labeling, the student's agreement with fresh
    teacher labels (``accl``) is compared against ``accv`` -- a gap below
    ``Vthr`` signals drift, clearing the buffer and extending labeling from
    ``Nl`` to ``Nldd`` samples.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._accv: float | None = None
        self._cursor = "retrain"

    def next_phase(
        self, frames: FrameWindow, rng: np.random.Generator
    ) -> PhaseStep | None:
        config = self.config
        while True:
            if self._cursor == "retrain":
                # Retraining (Algorithm 1 lines 4-7); skipped while the
                # buffer is still bootstrapping.
                self._cursor = "label"
                step, outcome = self.do_retrain(rng)
                if step is None:
                    continue
                base_commit = step.commit

                def commit(
                    t0: float,
                    t1: float,
                    _commit=base_commit,
                    _outcome=outcome,
                ) -> bool:
                    drift = _commit(t0, t1)
                    if "accv" in _outcome:
                        self._accv = _outcome["accv"]
                    return drift

                step.commit = commit
                return step

            if self._cursor == "label":
                # Labeling + drift check (lines 8-13).
                step, outcome = self.do_label(
                    frames,
                    config.num_label,
                    rng,
                    check_drift_against=lambda: self._accv,
                )
                base_commit = step.commit

                def commit(
                    t0: float,
                    t1: float,
                    _commit=base_commit,
                    _outcome=outcome,
                ) -> bool:
                    drift = _commit(t0, t1)
                    if _outcome.get("drift", False):
                        extra = config.num_label_drift - config.num_label
                        self._cursor = (
                            "extension" if extra > 0 else "retrain"
                        )
                        # The freshly reset buffer invalidates the old
                        # validation accuracy; wait for the next
                        # retraining to re-establish it.
                        self._accv = None
                    else:
                        self._cursor = "retrain"
                    return drift

                step.commit = commit
                return step

            # Drift escalation: extend labeling from Nl to Nldd.
            extra = config.num_label_drift - config.num_label
            self._cursor = "retrain"
            step, _ = self.do_label(frames, extra, rng)
            return step

    def scheduler_state(self) -> dict:
        return {
            "kind": "dacapo",
            "cursor": self._cursor,
            "accv": self._accv,
        }

    def restore_scheduler_state(self, state: dict) -> None:
        if state.get("kind") != "dacapo":
            raise SnapshotError(
                f"{self.name}: scheduler state kind "
                f"{state.get('kind')!r} is not 'dacapo'"
            )
        cursor = state.get("cursor")
        if cursor not in ("retrain", "label", "extension"):
            raise SnapshotError(
                f"{self.name}: unknown scheduler cursor {cursor!r}"
            )
        self._cursor = cursor
        accv = state.get("accv")
        self._accv = None if accv is None else float(accv)
