"""The supervisor: a resident daemon owning a pool of camera streams.

:class:`FleetService` is the long-running process the batch layers never
had.  It owns admitted streams, paces their windows against the
:class:`~repro.service.pacing.FrameClock`, dispatches window compute
through the existing :class:`~repro.exec.scheduler.Scheduler` (over any
execution backend, ``queue:N`` included), journals every lifecycle event
in the :class:`~repro.service.session.SessionJournal`, and serves the
:class:`~repro.service.control.ControlServer` -- while absorbing worker
deaths, dispatch failures, deadline misses, SIGTERM, and SIGKILL without
crashing or stalling.

**The window unit.**  A stream of ``duration_s`` splits into windows of
``window_s`` stream-seconds.  Window ``i``'s *result* is that of a
*prefix run*: the stream's cell truncated to the window's end
(``duration_s = end_i``).  A prefix run is a pure deterministic function
of the cell -- any worker can compute any window, a retried window is
bit-identical, and the final window's result *is* the batch sweep's
full-cell result -- which buys the property everything else here stands
on: SIGKILL the daemon anywhere and every completed window's journaled
record is byte-identical to an uninterrupted run's.

**Incremental windows.**  Windows keep the prefix run's results without
its O(W^2) recompute: window ``i``'s job carries the run-state snapshot
emitted by window ``i-1`` (:mod:`repro.core.snapshot` -- weights,
buffer, RNG, clock, committed records) and resumes from it, executing
only its own ``window_s`` of stream -- O(W) total.  Snapshots are
journaled *before* their window record, so a crash anywhere restarts
from the last journaled snapshot and recomputes at most one window.  The
contract is bit-identity, never best-effort: the first window, a window
ending off the stream's segment grid, and a snapshot that fails
validation (version bump, policy or seed mismatch, unaligned stream
prefix) all run the full prefix -- identical output, just slower.

**Threads.**  The supervisor loop owns all state and runs in the calling
thread.  A dispatcher thread feeds batches of window shards through the
scheduler (so a slow backend never blocks pacing) and posts outcomes
back.  The control server's HTTP threads touch the service only through
the thread-safe command queue and the snapshot lock.

**Per-stream state machine.**  At most one window of a stream is in
flight (window ``i+1``'s prefix contains ``i``; running both at once
buys nothing).  In *paced* mode a window arriving while its predecessor
is unfinished is a deadline miss: the stream's
:class:`~repro.service.degrade.DegradationLadder` escalates and the
arriving window is deferred (computed fresh, late), served stale, or
shed, per its level.  In *eager* mode (``speedup=0``) windows are
released by completion -- no deadlines, no misses, fully deterministic
sessions (what the crash-recovery digest harness runs).  A window whose
dispatch fails terminally (retries exhausted, fleet dead) is journaled
as shed with its frames counted dropped and the ladder escalated --
an infrastructure failure degrades output, never liveness.

**Cross-camera sharing.**  Under an enabled
:class:`~repro.share.policy.SharingPolicy` (``repro serve --sharing
cluster``), streams are clustered by drift fingerprint as they are
admitted (:class:`~repro.share.cluster.ClusterTracker`) and a cluster's
windows route through a shared weight state: each window job carries the
tracker's cluster id and the cluster's newest encoded state, runs under
a :class:`~repro.share.runtime.ClusterRuntime`, and returns the updated
state, which is journaled as a ``cluster`` record so a resumed session
keeps its accumulated reuse.  Because that state is read-modify-write,
at most one window per *cluster* (not just per stream) is in flight at a
time -- so a coalesced batched shard never holds two jobs of one
cluster, and shared windows batch like any others.  With sharing off --
the default -- none of this machinery runs and the journal is
byte-identical to the historical format.

**Admission control.**  Admitting a new stream while any live stream is
shedding windows would only deepen the overload, so ``POST /admit``
for an unknown stream is refused with a typed
:class:`~repro.errors.AdmissionRefused` (HTTP 503) while any
non-retired stream sits at SHED; re-admits of known streams (idempotent
no-ops or journal re-attaches) always succeed.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.cache import CACHE_ENV
from repro.core.results import run_digest
from repro.core.runner import SYSTEM_BUILDERS
from repro.core.snapshot import stream_prefix_aligned
from repro.data.scenarios import SCENARIO_NAMES, build_scenario
from repro.errors import AdmissionRefused, ConfigurationError, ProtocolError
from repro.exec import protocol
from repro.exec.run import resolve_backend
from repro.exec.scheduler import Scheduler
from repro.exec.shard import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardSpec,
    batch_signature,
    cell_key,
    cell_label,
    shard_key,
)
from repro.journal import write_durable
from repro.models.zoo import MODEL_PAIRS
from repro.service.control import ControlServer
from repro.service.degrade import DegradationLadder, DegradeLevel
from repro.service.pacing import FrameClock, StreamPacer
from repro.service.session import (
    SessionJournal,
    StreamLog,
    session_fingerprint,
    session_path,
)
from repro.share.cluster import ClusterTracker

__all__ = ["FleetService", "ServiceConfig", "StreamState"]

#: Supervisor loop sleep between ticks.
TICK_S = 0.005

#: Retry backoff base for window shards: a window has a deadline, so it
#: retries sooner than a sweep shard does.
BACKOFF_BASE_S = 0.05


@dataclass
class ServiceConfig:
    """Everything a :class:`FleetService` needs besides its streams.

    Attributes:
        out_dir: Output directory -- session journal, final ``state.json``
            snapshot, and (for the queue backend) the queue directory all
            live under it.  Restarting on the same directory resumes.
        window_s: Window length in stream seconds.
        speedup: Stream seconds per wall second (``0`` = eager mode; see
            :class:`~repro.service.pacing.FrameClock`).
        backend: Execution backend spec (``serial`` / ``process[:N]`` /
            ``subprocess[:N]`` / ``queue[:N]``) or instance; None uses
            the ambient selection.
        jobs: Worker count when the backend spec carries no ``:N``.
        control_port: Control-plane TCP port (``0`` = ephemeral; None
            disables the control plane).
        degrade: ``False`` pins every ladder at NORMAL (misses become
            plain lateness).
        stay: Keep running after every stream retires (a true resident
            daemon, waiting for admits); default exits when idle.
    """

    out_dir: str | Path
    window_s: float = 60.0
    speedup: float = 0.0
    backend: object | None = None
    jobs: int = 1
    control_port: int | None = None
    degrade: bool = True
    stay: bool = False

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError(
                f"window_s must be positive, got {self.window_s!r}"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class StreamState:
    """One admitted stream's live (non-journaled) supervisor state.

    Attributes:
        log: The stream's journal state (durable twin of this object).
        pacer: Its arrival schedule and deadline slack.
        ladder: Its degradation state machine.
        fps: Stream frame rate (drop accounting for shed windows).
        inflight: Window index currently dispatched, or None.
        arrivals_seen: Highest window index whose arrival has been
            processed (paced mode's miss-detection cursor).
        last_fresh_accuracy: Accuracy of the newest fresh window (what a
            stale-served window reports).
        snapshot: Newest run-state snapshot for the stream (from the
            last fresh window, or replayed from the journal on resume);
            None until one exists.
    """

    log: StreamLog
    pacer: StreamPacer
    ladder: DegradationLadder
    fps: float
    inflight: int | None = None
    arrivals_seen: int = -1
    last_fresh_accuracy: float | None = None
    snapshot: dict | None = None


class FleetService:
    """The resident daemon (see the module docstring for the design).

    Args:
        config: Service configuration.
        cells: Initial streams (grid cells) to admit at startup; cells
            already present in a resumed session journal are not
            re-admitted.
        clock: Injectable monotonic time source for the frame clock
            (tests drive pacing deterministically with a manual clock).
    """

    def __init__(
        self,
        config: ServiceConfig,
        cells: Sequence = (),
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config
        self.policies = PolicySet.active()
        self._clusters = (
            ClusterTracker() if self.policies.sharing.enabled else None
        )
        self._stream_cluster: dict[str, str] = {}
        self._cluster_states: dict[str, dict] = {}
        self._cluster_inflight: set[str] = set()
        self.clock = FrameClock(
            config.speedup, clock if clock is not None else time.monotonic
        )
        self.initial_cells = list(cells)
        self.streams: dict[str, StreamState] = {}
        self.journal: SessionJournal | None = None
        self.control: ControlServer | None = None
        self.draining = False
        self._drain_requested: str | None = None
        self._jobs: queue_module.Queue = queue_module.Queue()
        self._results: queue_module.Queue = queue_module.Queue()
        self._commands: queue_module.Queue = queue_module.Queue()
        self._inflight = 0
        self._max_inflight = 1
        self._snapshot: dict = {"streams": {}}
        self._snapshot_lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._backend = None
        self._backend_owned = False
        self._workers = 1

    # -- control-plane surface (called from HTTP threads) --------------

    def _command(self, action: str, payload: dict) -> dict:
        reply: queue_module.Queue = queue_module.Queue(maxsize=1)
        self._commands.put((action, payload, reply))
        try:
            response = reply.get(timeout=30.0)
        except queue_module.Empty:
            return {"ok": False, "error": "service did not respond"}
        if "config_error" in response:
            raise ConfigurationError(response["config_error"])
        if "refused" in response:
            raise AdmissionRefused(response["refused"])
        return response

    def command_admit(self, payload: dict) -> dict:
        """Admit one stream (control-plane POST /admit)."""
        return self._command("admit", payload)

    def command_retire(self, key: str) -> dict:
        """Retire one stream (control-plane POST /retire)."""
        return self._command("retire", {"stream": key})

    def command_drain(self) -> dict:
        """Finish in-flight windows, then exit (POST /drain)."""
        return self._command("drain", {})

    def state_snapshot(self) -> dict:
        """The latest supervisor-published state (JSON-safe copy)."""
        with self._snapshot_lock:
            snapshot = self._snapshot
        return json.loads(json.dumps(snapshot))

    # -- the supervisor loop -------------------------------------------

    def run(self) -> int:
        """Serve until drained (or idle, unless ``stay``); returns 0.

        Creating the service on an ``out_dir`` holding a session journal
        *resumes* it: every admitted stream picks up at its next
        unfinished window, completed windows untouched.
        """
        config = self.config
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self._install_signals()
        path = session_path(out)
        self.journal = SessionJournal(
            path,
            session_fingerprint(self.policies, config.window_s),
            resume=path.exists(),
        )
        if self.policies.sharing.enabled:
            # Resumed sessions pick their accumulated cluster state
            # back up; fresh ones start empty.
            self._cluster_states = dict(self.journal.clusters)
        self._backend, self._workers, self._backend_owned = resolve_backend(
            config.backend, config.jobs, 2, queue_dir=str(out / "queue")
        )
        # Backpressure: admitting a thousand streams must queue windows,
        # not swamp the dispatch layer.
        self._max_inflight = max(2, 2 * self._workers)
        start_detail = {
            "resumed": self.journal.resumed,
            "backend": self._backend.name,
            "workers": self._workers,
            "policy": self.policies.numeric.name,
            "speedup": config.speedup,
            "window_s": config.window_s,
        }
        if self.policies.sharing.enabled:
            start_detail["sharing"] = self.policies.sharing.name
        if self.policies.batch.enabled:
            start_detail["batching"] = self.policies.batch.name
        self.journal.record_event("start", start_detail)
        for log in self.journal.active_streams():
            self._attach(log)
        for cell in self.initial_cells:
            self._admit_cell(cell)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        if config.control_port is not None:
            self.control = ControlServer(self, port=config.control_port)
            self.control.start()
            # Publish the bound port (ephemeral-port runs especially):
            # scripts and tests read it instead of parsing stdout.
            port = f"{self.control.port}\n".encode()
            write_durable(out / "control.port", lambda h: h.write(port))
            self.journal.record_event(
                "control", {"port": self.control.port}
            )
        try:
            while True:
                self._tick()
                if self._should_exit():
                    break
                time.sleep(TICK_S)
        finally:
            self._shutdown(out)
        return 0

    def _install_signals(self) -> None:
        def handler(signum, frame) -> None:
            # Only a flag: journal appends from a signal frame could
            # interleave with an append the handler interrupted.
            self._drain_requested = signal.Signals(signum).name

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, handler)
            except ValueError:
                # Not the main thread (embedded/test use); the control
                # plane's /drain covers graceful shutdown there.
                return

    def _should_exit(self) -> bool:
        if self.draining:
            return self._inflight == 0
        if self.config.stay:
            return False
        active = any(
            not state.log.retired for state in self.streams.values()
        )
        return not active and self._inflight == 0

    def _tick(self) -> None:
        now = self.clock.now()
        if self._drain_requested is not None and not self.draining:
            self._begin_drain(f"signal:{self._drain_requested}")
        self._process_commands()
        self._drain_results(now)
        for state in list(self.streams.values()):
            if state.log.retired:
                continue
            if not self.draining:
                self._process_arrivals(state, now)
                self._pump(state, now)
            self._maybe_retire(state)
        self._publish_snapshot()

    # -- commands ------------------------------------------------------

    def _process_commands(self) -> None:
        while True:
            try:
                action, payload, reply = self._commands.get_nowait()
            except queue_module.Empty:
                return
            try:
                if action == "admit":
                    response = self._admit_payload(payload)
                elif action == "retire":
                    response = self._retire_command(payload)
                elif action == "drain":
                    self._begin_drain("command")
                    response = {"ok": True, "draining": True}
                else:
                    response = {
                        "ok": False,
                        "error": f"unknown command {action!r}",
                    }
            except AdmissionRefused as exc:
                response = {"ok": False, "refused": str(exc)}
            except ConfigurationError as exc:
                response = {"ok": False, "config_error": str(exc)}
            except Exception as exc:
                # The contract: a control command can never take the
                # supervisor down.
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            reply.put(response)

    def _admit_payload(self, payload: dict) -> dict:
        cell_data = dict(payload)
        cell_data.setdefault("type", "system")
        cell_data.setdefault("seed", 0)
        cell_data.setdefault("duration_s", None)
        try:
            cell = protocol.decode_cell(cell_data)
        except ProtocolError as exc:
            raise ConfigurationError(f"bad admit payload: {exc}")
        self._validate_cell(cell)
        self._check_admission(cell)
        state = self._admit_cell(cell)
        return {
            "ok": True,
            "stream": state.log.key,
            "windows": state.log.total_windows,
        }

    def _check_admission(self, cell) -> None:
        """Refuse *new* streams while any live stream is shedding.

        A stream at SHED means the fleet cannot keep up with the load it
        already has; admitting more would convert one overloaded stream
        into many.  Known keys (idempotent re-admits and journal
        re-attaches) pass -- they add no new load.
        """
        key = cell_key(self.policies.numeric.name, self._resolve_cell(cell))
        if key in self.streams or key in self.journal.streams:
            return
        shedding = [
            state.log.key
            for state in self.streams.values()
            if not state.log.retired
            and state.ladder.level == DegradeLevel.SHED
        ]
        if shedding:
            raise AdmissionRefused(
                "fleet is overloaded: "
                f"{len(shedding)} stream(s) at SHED "
                f"(first: {shedding[0]}); retry after recovery"
            )

    def _validate_cell(self, cell) -> None:
        checks = [("scenario", cell.scenario, tuple(SCENARIO_NAMES)),
                  ("pair", cell.pair, tuple(MODEL_PAIRS)),
                  ("system", cell.system, tuple(SYSTEM_BUILDERS))]
        for field_name, value, known in checks:
            if value not in known:
                raise ConfigurationError(
                    f"unknown {field_name} {value!r}; known: "
                    f"{', '.join(known)}"
                )
        if not isinstance(cell.seed, int) or cell.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {cell.seed!r}"
            )
        if cell.duration_s is not None and cell.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {cell.duration_s!r}"
            )

    def _retire_command(self, payload: dict) -> dict:
        key = str(payload.get("stream", ""))
        state = self.streams.get(key)
        if state is None:
            raise ConfigurationError(f"unknown stream {key!r}")
        if state.log.retired:
            return {"ok": True, "stream": key, "already_retired": True}
        self.journal.record_retire(key, "command")
        return {"ok": True, "stream": key}

    def _begin_drain(self, reason: str) -> None:
        if self.draining:
            return
        self.draining = True
        self.journal.record_event("drain", {"reason": reason})

    # -- stream admission / resume -------------------------------------

    def _admit_cell(self, cell) -> StreamState:
        cell = self._resolve_cell(cell)
        key = cell_key(self.policies.numeric.name, cell)
        existing = self.streams.get(key)
        if existing is not None:
            return existing  # idempotent: admitting twice is a no-op
        replayed = self.journal.streams.get(key)
        if replayed is not None:
            # Known from a previous session (commonly: rerunning the
            # same spec over a finished --out).  Re-attach the journal's
            # log -- retired streams stay retired, completed windows are
            # never recomputed.
            return self._attach(replayed)
        if self.draining:
            raise ConfigurationError(
                "service is draining and not admitting new streams"
            )
        log = self.journal.record_admit(
            key,
            cell,
            self.policies.numeric.name,
            cell.duration_s,
            self.config.window_s,
        )
        return self._attach(log)

    def _resolve_cell(self, cell):
        """Pin the scenario-default duration so window math is explicit."""
        if cell.duration_s is None:
            cell = replace(
                cell,
                duration_s=float(build_scenario(cell.scenario).duration_s),
            )
        return cell

    def _attach(self, log: StreamLog) -> StreamState:
        if self._clusters is not None:
            # Incremental greedy assignment in admission order; a resumed
            # session replays admits in journal order, so ids reproduce.
            self._stream_cluster[log.key] = self._clusters.assign(log.cell)
        # Resume re-paces from the next window's boundary: its arrival is
        # one full window of wall time out, exactly as at first admit.
        next_start = min(log.next_window * log.window_s, log.duration_s)
        epoch = self.clock.now() - self.clock.wall_per_stream_s(next_start)
        state = StreamState(
            log=log,
            pacer=self.clock.pacer(log.duration_s, log.window_s, epoch=epoch),
            ladder=DegradationLadder(log.key, enabled=self.config.degrade),
            fps=float(build_scenario(log.cell.scenario).fps),
            arrivals_seen=max(log.windows, default=-1),
            snapshot=log.snapshot,
        )
        for index in sorted(log.windows):
            record = log.windows[index]
            if record.get("mode") == "fresh" and "accuracy" in record:
                state.last_fresh_accuracy = float(record["accuracy"])
        self.streams[log.key] = state
        return state

    # -- pacing, misses, dispatch --------------------------------------

    def _process_arrivals(self, state: StreamState, now: float) -> None:
        if self.clock.eager:
            return
        total = state.log.total_windows
        w = state.arrivals_seen + 1
        while w < total and state.pacer.due(w, now):
            self._on_arrival(state, w)
            state.arrivals_seen = w
            w += 1

    def _on_arrival(self, state: StreamState, w: int) -> None:
        log = state.log
        behind = state.inflight is not None or log.next_window < w
        if not behind:
            return  # caught up: _pump dispatches it this same tick
        transition = state.ladder.on_miss(w)
        if transition is not None:
            self.journal.record_degrade(transition)
        action = state.ladder.action()
        if action in ("dispatch", "defer") or w in log.windows:
            # Deferred: the window stays queued for fresh (late) compute
            # once the stream catches up; only timeliness is lost.
            return
        frames = self._window_frames(state, w)
        if action == "stale":
            self.journal.record_window(
                log.key,
                w,
                "stale",
                accuracy=state.last_fresh_accuracy or 0.0,
                frames=frames,
                dropped=0,
            )
        else:  # shed
            self.journal.record_window(
                log.key, w, "shed", frames=frames, dropped=frames
            )

    def _pump(self, state: StreamState, now: float) -> None:
        if state.inflight is not None:
            return
        w = state.log.next_window
        if w >= state.log.total_windows:
            return
        if not self.clock.eager and not state.pacer.due(w, now):
            return
        if self._inflight >= self._max_inflight:
            return  # backpressure: windows queue, dispatch never swamps
        cid = self._stream_cluster.get(state.log.key)
        if cid is not None and cid in self._cluster_inflight:
            # Cluster state is read-modify-write: a second concurrent
            # window of the same cluster would race on it.  The window
            # waits; in paced mode the ladder charges any lateness.
            return
        spec = self._window_spec(state, w)
        state.inflight = w
        self._inflight += 1
        if cid is not None:
            self._cluster_inflight.add(cid)
        self._jobs.put((state.log.key, w, spec))

    def _window_spec(self, state: StreamState, index: int) -> ShardSpec:
        _, end = state.pacer.span(index)
        end = float(end)
        snapshot = state.snapshot
        # Only resume a snapshot whose origin lies inside this window's
        # prefix; anything newer (or malformed -- the worker
        # re-validates) means a plain prefix run.
        if (
            snapshot is not None
            and float(snapshot.get("origin_duration_s", 0.0)) > end
        ):
            snapshot = None
        job = CellJob(
            replace(state.log.cell, duration_s=end),
            snapshot=snapshot,
            # The last window's snapshot would never be consumed, and an
            # unaligned boundary cannot be resumed bit-exactly (stream
            # segments re-seed every SEGMENT_S); skip the emit cost.
            emit_snapshot=(
                index + 1 < state.log.total_windows
                and stream_prefix_aligned(end)
            ),
        )
        if self.policies.sharing.enabled:
            cid = self._stream_cluster[state.log.key]
            job = replace(
                job,
                cluster=cid,
                cluster_state=self._cluster_states.get(cid),
                emit_cluster_state=True,
            )
        return self._spec([job])

    def _spec(self, jobs: list[CellJob]) -> ShardSpec:
        return ShardSpec(
            key=shard_key(
                self.policies.numeric.name, [job.cell for job in jobs]
            ),
            jobs=tuple(jobs),
            indices=tuple(range(len(jobs))),
            policies=self.policies,
            cache_root=os.environ.get(CACHE_ENV),
        )

    def _window_frames(self, state: StreamState, index: int) -> int:
        start, end = state.pacer.span(index)
        return int(round((end - start) * state.fps))

    # -- completions ---------------------------------------------------

    def _drain_results(self, now: float) -> None:
        while True:
            try:
                key, w, outcome = self._results.get_nowait()
            except queue_module.Empty:
                return
            self._inflight -= 1
            cid = self._stream_cluster.get(key)
            if cid is not None:
                self._cluster_inflight.discard(cid)
            state = self.streams.get(key)
            if state is None or state.log.retired:
                continue  # retired mid-flight: the result is discarded
            state.inflight = None
            if isinstance(outcome, CellOutcome):
                self._on_fresh(state, w, outcome, now)
            else:
                self._on_window_failure(state, w, outcome)

    def _on_fresh(
        self, state: StreamState, w: int, outcome: CellOutcome, now: float
    ) -> None:
        log = state.log
        result = outcome.result
        start, end = state.pacer.span(w)
        times = np.asarray(result.times)
        frames = int(np.count_nonzero((times >= start) & (times < end)))
        accuracy = float(result.average_accuracy())
        if outcome.snapshot is not None:
            # Journal the snapshot *before* the window record: a crash
            # between the two restarts from this snapshot and recomputes
            # the window; the reverse order could journal a window whose
            # successor has no snapshot to resume from.
            state.snapshot = outcome.snapshot
            self.journal.record_snapshot(log.key, w, outcome.snapshot)
        self.journal.record_window(
            log.key,
            w,
            "fresh",
            digest=run_digest(result),
            accuracy=accuracy,
            frames=frames,
            dropped=0,
            result=protocol.encode_result(result),
        )
        if outcome.cluster_state is not None:
            # After the window record: losing this to a kill costs the
            # next window some reuse, never a window's provenance.
            cid = self._stream_cluster[log.key]
            self._cluster_states[cid] = outcome.cluster_state
            self.journal.record_cluster(cid, outcome.cluster_state)
        state.last_fresh_accuracy = accuracy
        state.pacer.record_completion(w, now)
        if state.ladder.level == DegradeLevel.NORMAL:
            return
        nxt = log.next_window
        caught_up = (
            nxt >= log.total_windows
            or self.clock.eager
            or not state.pacer.due(nxt, now)
        )
        if caught_up:
            transition = state.ladder.on_recover(w)
            if transition is not None:
                self.journal.record_degrade(transition)

    def _on_window_failure(
        self, state: StreamState, w: int, outcome
    ) -> None:
        """Terminal dispatch failure: degrade and keep moving.

        The scheduler already spent its retry/backoff budget; what is
        left is an infrastructure failure the service must absorb.  The
        window is journaled as shed (frames counted dropped), the ladder
        escalates, and the stream continues at the next window -- the
        daemon never crashes or stalls on a dead fleet.
        """
        log = state.log
        transition = state.ladder.on_miss(w, reason="dispatch-failed")
        if transition is not None:
            self.journal.record_degrade(transition)
        self.journal.record_event(
            "window-failed",
            {"stream": log.key, "window": w, "error": str(outcome)[:300]},
        )
        frames = self._window_frames(state, w)
        self.journal.record_window(
            log.key, w, "shed", frames=frames, dropped=frames
        )

    def _maybe_retire(self, state: StreamState) -> None:
        if (
            not state.log.retired
            and state.log.complete
            and state.inflight is None
        ):
            self.journal.record_retire(state.log.key, "complete")

    # -- the dispatcher thread -----------------------------------------

    def _dispatch_loop(self) -> None:
        scheduler = Scheduler(self._backend, backoff_base_s=BACKOFF_BASE_S)
        while True:
            item = self._jobs.get()
            if item is None:
                return
            batch = [item]
            # With batching on, co-due windows merge into one shard, so
            # the pull cap widens from one-per-worker to everything the
            # supervisor has released (bounded by max_inflight anyway) --
            # a serial backend then serves K streams per dispatch.
            limit = self._workers
            if self.policies.batch.enabled:
                limit = max(limit, self._max_inflight)
            while len(batch) < limit:
                try:
                    extra = self._jobs.get_nowait()
                except queue_module.Empty:
                    break
                if extra is None:
                    self._jobs.put(None)  # re-arm the stop sentinel
                    break
                batch.append(extra)
            specs, members = self._coalesce(batch)
            posted: set[tuple] = set()

            def on_complete(spec, result):
                # A coalesced shard fans back out: each member window
                # gets its own job's outcome (bit-identical to a
                # singleton dispatch), so _on_fresh and the journal never
                # see batching.
                for window, outcome in zip(members[spec.key], result.outcomes):
                    posted.add(window)
                    self._results.put((*window, outcome))

            scheduler.on_complete = on_complete
            try:
                scheduler.run(specs)
            except Exception as exc:
                # Fatal shard failure (retries exhausted / quarantined /
                # deterministic cell error): successes in the batch were
                # already posted via on_complete; the rest surface as
                # per-window failures, never as a dead dispatcher.
                for spec in specs:
                    for key, w in members[spec.key]:
                        if (key, w) not in posted:
                            self._results.put((key, w, exc))

    def _coalesce(self, batch: list) -> tuple[list, dict]:
        """Merge batch-compatible window specs into batched shards.

        The service-side leg of co-windowed batching: with batching on,
        K same-geometry single-job window specs pulled in one dispatch
        round become one K-job spec -- advanced in lockstep by
        :func:`~repro.exec.shard.execute_shard` -- instead of K singleton
        dispatches.  Each job keeps its own snapshot, cluster id and
        cluster state, so shared windows coalesce too: the
        ``_cluster_inflight`` rule keeps two windows of one cluster out
        of any round, so every job is its own lane.  Grouping is a
        performance decision only (the conductor stacks exactly the
        shape-matching calls and runs the rest serially), so every
        member's outcome stays bit-identical to a singleton dispatch; a
        lone window dispatches its own spec unchanged.  Returns
        ``(specs, members)`` where ``members`` maps each dispatched spec
        key to its ``(stream key, window)`` entries in job order.
        """
        groups: dict[object, list] = {}
        for position, (key, w, spec) in enumerate(batch):
            signature = (
                batch_signature(spec.cells[0])
                if self.policies.batch.enabled
                else position
            )
            groups.setdefault(signature, []).append((key, w, spec))
        specs: list[ShardSpec] = []
        members: dict[str, list] = {}
        for group in groups.values():
            spec = group[0][2]
            if len(group) > 1:
                spec = self._spec([member.jobs[0] for _, _, member in group])
            members[spec.key] = [(key, w) for key, w, _ in group]
            specs.append(spec)
        return specs, members

    # -- snapshot / shutdown -------------------------------------------

    def _publish_snapshot(self) -> None:
        streams = {}
        for key, state in self.streams.items():
            log = state.log
            frames_total = sum(
                int(record.get("frames", 0))
                for record in log.windows.values()
            )
            streams[key] = {
                "label": cell_label(log.cell),
                "windows_total": log.total_windows,
                "windows_done": len(log.windows),
                "next_window": log.next_window,
                "inflight": state.inflight,
                "level": state.ladder.level.name,
                "action": state.ladder.action(),
                "misses": state.ladder.misses,
                "recoveries": state.ladder.recoveries,
                "transitions": len(log.transitions),
                "accuracy": state.last_fresh_accuracy,
                "dropped_frames": log.dropped_frames,
                "drop_rate": (
                    log.dropped_frames / frames_total if frames_total else 0.0
                ),
                "slack_s": state.pacer.last_slack_s,
                "retired": log.retired,
                "retire_reason": log.retire_reason,
            }
            if self.policies.sharing.enabled:
                streams[key]["cluster"] = self._stream_cluster.get(key)
        backend_info = {"name": self._backend.name, "workers": self._workers}
        procs = getattr(self._backend, "_procs", None)
        if procs is not None:
            backend_info["live_workers"] = sum(
                1 for proc in procs if proc.poll() is None
            )
        snapshot = {
            "policy": self.policies.numeric.name,
            "window_s": self.config.window_s,
            "speedup": self.config.speedup,
            "eager": self.clock.eager,
            "backend": backend_info,
            "draining": self.draining,
            "resumed": self.journal.resumed,
            "queue_depth": self._jobs.qsize(),
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "events": len(self.journal.events),
            "streams": streams,
        }
        if self.policies.sharing.enabled:
            snapshot["sharing"] = {
                "policy": self.policies.sharing.name,
                "clusters": sorted(set(self._stream_cluster.values())),
                "inflight_clusters": sorted(self._cluster_inflight),
            }
        with self._snapshot_lock:
            self._snapshot = snapshot

    def _shutdown(self, out: Path) -> None:
        self._jobs.put(None)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=30.0)
        # Windows that completed while we were deciding to exit are done
        # work; journal them rather than recomputing after a restart.
        self._drain_results(self.clock.now())
        for state in self.streams.values():
            if not state.log.retired:
                self._maybe_retire(state)
        if self.control is not None:
            self.control.stop()
        self.journal.record_event("shutdown", {"inflight": self._inflight})
        self._publish_snapshot()
        state = json.dumps(self.state_snapshot(), indent=1, sort_keys=True)
        write_durable(
            out / "state.json", lambda h: h.write((state + "\n").encode())
        )
        if self._backend_owned and self._backend is not None:
            self._backend.close()
