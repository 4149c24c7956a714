"""Pull-model dispatch: a file-system job queue with leases and heartbeats.

The push-model transports (:mod:`repro.exec.backends`) *hand* shards to
workers they own, and learn of death by pipe-EOF.  That shape cannot
outlive the parent's process tree: a worker the parent did not spawn
cannot be handed anything, and a worker SIGKILLed along with its pipe can
take the whole dispatch down with it.  This module inverts control --
shards become claimable *messages*, and workers come to the queue:

- **Enqueue.**  :class:`QueueBackend` posts each
  :class:`~repro.exec.shard.ShardSpec` as a store-and-forward message
  file (the bit-exact JSON-lines encoding of :mod:`repro.exec.protocol`)
  under ``<queue>/pending/``.
- **Claim.**  A worker (``python -m repro worker --queue DIR``, the loop
  in :func:`repro.exec.worker.queue_worker_main`) claims a message by
  atomically renaming it into its per-worker lease directory
  ``<queue>/leases/<worker>/`` -- the filesystem guarantees exactly one
  winner, with no coordinator in the loop.
- **Heartbeat.**  While executing, the worker touches the lease file's
  mtime every quarter-TTL, taking the TTL and its poll interval from the
  queue's ``config.json`` -- the backend's own values -- never from its
  environment.  *Liveness is the lease*, not a pipe: a SIGKILLed, OOMed,
  or wedged worker simply stops beating.
- **Reclaim.**  The backend watches lease mtimes; one older than the TTL
  (``$REPRO_LEASE_TTL``, default :data:`DEFAULT_LEASE_TTL_S`) is
  reclaimed -- the lease is revoked and the shard reported as a typed,
  retriable failure, which the scheduler re-enqueues on its backoff
  schedule and the dead worker's id joins the excluded set (banned via a
  marker file that live workers check before every claim).  A lease held
  by a worker this backend *spawned* reclaims as soon as that process
  exits -- the TTL only gates workers whose liveness the parent cannot
  observe directly.
- **Post.**  A finished worker writes ``result``/``error`` back as a
  message file under ``<queue>/results/`` (atomic rename again), checks
  its lease still exists -- a reclaimed shard belongs to someone else --
  and removes the lease.

Workers are fungible and *attachable*: the backend spawns local ones by
default, but any process that can reach the queue directory (shared FS,
``ssh``-mounted, a k8s indexed Job with one ``--queue`` pod per index)
can pull work -- start extras mid-sweep and they simply begin claiming.
``--drain`` exits when the queue is empty, the natural shape for batch
pods.  Results are bit-identical to every other backend: the queue moves
the same encoded messages the stdio protocol does, and cells seed their
own RNGs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.exec import protocol
from repro.exec.backends import (
    SHARD_TIMEOUT_ENV,
    _failure,
    _worker_env,
    default_worker_command,
    reply_outcome,
)
from repro.exec.shard import ShardSpec
from repro.knobs import positive_float_env

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_POLL_S",
    "LEASE_TTL_ENV",
    "POLL_ENV",
    "QueueBackend",
    "QueueLayout",
]

#: Environment variable setting the lease TTL in seconds: how long a
#: claimed shard's heartbeat may go stale before the lease is reclaimed
#: and the shard re-enqueued.  The knob trades detection latency against
#: tolerance for stop-the-world pauses on worker hosts.
LEASE_TTL_ENV = "REPRO_LEASE_TTL"

#: Environment variable setting the queue poll interval in seconds
#: (workers polling for messages, the backend polling for results).
POLL_ENV = "REPRO_QUEUE_POLL"

DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_POLL_S = 0.05

#: Environment variable naming the pid a spawned worker must not
#: outlive.  The backend sets it on local spawns; when that process is
#: gone the worker exits at its next claim instead of polling a dead
#: parent's queue forever (the orphan would also hold any inherited
#: pipes open, wedging whatever supervises the parent).  Externally
#: attached workers never see the variable and keep their independent
#: lifetime.
PARENT_PID_ENV = "REPRO_QUEUE_PARENT"

#: Version stamp inside ``config.json`` (the queue's on-disk contract).
QUEUE_LAYOUT_VERSION = 1

#: Worker ids embed the worker's pid (``q<pid>-<nonce>``) so a backend
#: that *spawned* the lease holder can notice its exit immediately
#: instead of waiting out the heartbeat TTL.
_WORKER_PID_RE = re.compile(r"^q(\d+)-")


class QueueLayout:
    """The on-disk shape of one queue directory.

    ``pending/`` holds claimable shard messages, ``leases/<worker>/``
    holds each worker's claims (mtime = last heartbeat), ``results/``
    holds posted replies, ``banned/`` holds retirement markers for
    excluded workers, and ``stop`` tells idle workers to exit.
    ``config.json`` records the timing contract so externally-attached
    workers agree with the backend without sharing an environment.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.pending = self.root / "pending"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.banned = self.root / "banned"
        self.stop_marker = self.root / "stop"
        self.config_path = self.root / "config.json"

    def create(
        self, lease_ttl_s: float, poll_s: float
    ) -> "QueueLayout":
        for directory in (
            self.pending, self.leases, self.results, self.banned
        ):
            directory.mkdir(parents=True, exist_ok=True)
        # A stop marker left by a previous backend on the same directory
        # (a resumed service session reuses its queue dir) must not
        # retire this backend's freshly spawned workers on arrival.
        self.stop_marker.unlink(missing_ok=True)
        protocol.write_message_file(
            self.config_path,
            {
                "v": protocol.PROTOCOL_VERSION,
                "kind": "config",
                "layout": QUEUE_LAYOUT_VERSION,
                "lease_ttl_s": lease_ttl_s,
                "poll_s": poll_s,
            },
        )
        return self

    def read_config(self) -> dict:
        try:
            message = protocol.read_message_file(self.config_path)
        except ProtocolError:
            message = None
        return message or {}

    def message_name(self, key: str) -> str:
        return f"{key}.json"

    def lease_of(self, key: str) -> tuple[Path, str] | None:
        """The live lease file for ``key`` and its worker id, if claimed."""
        name = self.message_name(key)
        try:
            workers = list(self.leases.iterdir())
        except FileNotFoundError:
            return None
        for worker_dir in workers:
            candidate = worker_dir / name
            if candidate.exists():
                return candidate, worker_dir.name
        return None


class QueueBackend:
    """Dispatch shards through a file-system queue of claimable messages.

    Args:
        workers: Local worker processes to keep alive (the *floor*;
            externally-attached workers add to it).
        directory: Queue directory.  None creates a private temp queue
            removed on :meth:`close`; point it somewhere shared (and
            durable) to attach external workers or inspect the queue.
        command: Worker launch command override (defaults to
            ``python -m repro.exec.worker``; ``$REPRO_WORKER_CMD`` also
            applies, so ``ssh host python -m repro worker`` works when
            the queue directory is a shared filesystem).
        lease_ttl_s: Heartbeat staleness bound before a lease is
            reclaimed (``$REPRO_LEASE_TTL``, else
            :data:`DEFAULT_LEASE_TTL_S`).
        poll_s: Result/lease polling interval.
        shard_timeout_s: Optional bound on one shard's *total* claim
            time, heartbeats or not (``$REPRO_SHARD_TIMEOUT``) -- catches
            the pathological worker that beats forever without finishing.
        max_respawns: Replacement-worker budget beyond the initial
            ``workers`` spawns (None = ``workers + 4``).
        spawn: False attaches to an existing fleet without spawning any
            local workers (the backend then only enqueues and collects).
    """

    name = "queue"

    def __init__(
        self,
        workers: int,
        directory: str | Path | None = None,
        command: list[str] | None = None,
        lease_ttl_s: float | None = None,
        poll_s: float | None = None,
        shard_timeout_s: float | None = None,
        max_respawns: int | None = None,
        spawn: bool = True,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"queue backend needs >= 1 worker, got {workers}"
            )
        self.workers = workers
        self.command = list(command) if command else None
        self.lease_ttl_s = (
            lease_ttl_s
            if lease_ttl_s is not None
            else positive_float_env(LEASE_TTL_ENV) or DEFAULT_LEASE_TTL_S
        )
        self.poll_s = (
            poll_s if poll_s is not None
            else positive_float_env(POLL_ENV) or DEFAULT_POLL_S
        )
        self.shard_timeout_s = (
            shard_timeout_s
            if shard_timeout_s is not None
            else positive_float_env(SHARD_TIMEOUT_ENV)
        )
        self.max_respawns = (
            max_respawns if max_respawns is not None else workers + 4
        )
        self.spawn = spawn
        self._owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-queue-")
        self.layout = QueueLayout(directory).create(
            self.lease_ttl_s, self.poll_s
        )
        self._procs: list[subprocess.Popen] = []
        #: Every process this backend ever spawned, by pid -- consulted
        #: (not pruned) so a dead holder's lease reclaims immediately.
        self._pids: dict[int, subprocess.Popen] = {}
        self._spawned = 0
        self._closed = False

    # -- local worker management ------------------------------------

    def _worker_command(self) -> list[str]:
        base = self.command or default_worker_command()
        return base + ["--queue", str(self.layout.root)]

    def _maintain_workers(self) -> None:
        """Keep the local fleet at strength, within the respawn budget."""
        if not self.spawn:
            return
        self._procs = [p for p in self._procs if p.poll() is None]
        while (
            len(self._procs) < self.workers
            and self._spawned < self.workers + self.max_respawns
        ):
            self._spawned += 1
            env = _worker_env(self.workers)
            env[PARENT_PID_ENV] = str(os.getpid())
            try:
                proc = subprocess.Popen(self._worker_command(), env=env)
            except OSError:
                break
            self._procs.append(proc)
            self._pids[proc.pid] = proc

    def _holder_is_dead(self, lease_worker: str) -> bool:
        """True when the lease holder is a *local spawn* that has exited.

        Worker ids embed the worker's pid; when it names a process this
        backend spawned and that process has exited, the lease can never
        beat again -- reclaim it now rather than waiting out the TTL.
        Unknown pids (externally attached workers, remote-launch
        wrappers) always return False and age out via the TTL instead.
        """
        match = _WORKER_PID_RE.match(lease_worker)
        if match is None:
            return False
        proc = self._pids.get(int(match.group(1)))
        return proc is not None and proc.poll() is not None

    def _fleet_exhausted(self) -> bool:
        """No live local workers and no budget to spawn replacements."""
        if not self.spawn:
            return False
        self._procs = [p for p in self._procs if p.poll() is None]
        return (
            not self._procs
            and self._spawned >= self.workers + self.max_respawns
        )

    # -- the dispatch loop -------------------------------------------

    def run(
        self,
        specs: Sequence[ShardSpec],
        excluded: frozenset[str] = frozenset(),
    ) -> list:
        if not specs:
            return []
        # Excluded workers are banned: the marker file retires them
        # before their next claim, wherever they are running.
        for worker in excluded:
            (self.layout.banned / worker).touch()
        # Equal keys name equal cells: each key is posted once, and its
        # outcome goes to every position that holds it.
        positions: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            positions.setdefault(spec.key, []).append(index)
        unique = {spec.key: spec for spec in specs}
        for spec in unique.values():
            name = self.layout.message_name(spec.key)
            # Clear any stale artifacts of a previous attempt: a late
            # result posted by a presumed-dead worker, or the revoked
            # lease itself, must not be mistaken for this attempt's.
            stale_result = self.layout.results / name
            if stale_result.exists():
                stale_result.unlink()
            stale = self.layout.lease_of(spec.key)
            if stale is not None:
                try:
                    stale[0].unlink()
                except OSError:
                    pass
            protocol.write_message_file(
                self.layout.pending / name,
                protocol.encode_shard_request(spec),
            )
        outcomes: list = [None] * len(specs)
        first_leased: dict[str, tuple[str, float]] = {}

        def settle(key: str, outcome) -> None:
            for index in positions.pop(key):
                outcomes[index] = outcome

        while positions:
            self._maintain_workers()
            progress = False
            for key in list(positions):
                outcome = self._collect(unique[key], first_leased)
                if outcome is not None:
                    settle(key, outcome)
                    progress = True
            if progress:
                continue
            if self._fleet_exhausted():
                for key in list(positions):
                    settle(key, _failure(
                        unique[key],
                        "no live workers remaining (respawn budget "
                        f"{self.max_respawns} exhausted)",
                    ))
                    self._remove_message(key)
                break
            time.sleep(self.poll_s)
        return outcomes

    def _remove_message(self, key: str) -> None:
        """Withdraw a shard's message wherever it currently sits."""
        name = self.layout.message_name(key)
        for candidate in (self.layout.pending / name,):
            try:
                candidate.unlink()
            except OSError:
                pass
        lease = self.layout.lease_of(key)
        if lease is not None:
            try:
                lease[0].unlink()
            except OSError:
                pass

    def _collect(
        self,
        spec: ShardSpec,
        first_leased: dict[str, tuple[str, float]],
    ):
        """One shard's outcome, if its result arrived or its lease died."""
        result_path = self.layout.results / self.layout.message_name(
            spec.key
        )
        leased = first_leased.get(spec.key)
        worker = leased[0] if leased else None
        try:
            message = protocol.read_message_file(result_path)
        except ProtocolError as exc:
            # The reply is on disk but does not even parse: a torn or
            # garbled post.  Retriable -- another worker recomputes.
            result_path.unlink(missing_ok=True)
            self._remove_message(spec.key)
            return _failure(
                spec, "worker posted an undecodable result message", worker,
                exc,
            )
        if message is not None:
            result_path.unlink(missing_ok=True)
            self._remove_message(spec.key)
            return reply_outcome(spec, message, worker)
        lease = self.layout.lease_of(spec.key)
        if lease is None:
            return None  # pending, or mid-rename; keep polling
        lease_path, lease_worker = lease
        now = time.time()
        if spec.key not in first_leased:
            first_leased[spec.key] = (lease_worker, now)
        try:
            beat_age = now - lease_path.stat().st_mtime
        except OSError:
            return None  # released between listing and stat
        claim_age = now - first_leased[spec.key][1]
        dead = self._holder_is_dead(lease_worker)
        expired = beat_age > self.lease_ttl_s
        overdue = (
            self.shard_timeout_s is not None
            and claim_age > self.shard_timeout_s
        )
        if not dead and not expired and not overdue:
            return None
        # Reclaim: revoke the lease so the (presumed dead) holder cannot
        # post late, and report the typed failure the scheduler knows how
        # to back off, retry, and -- for repeat offenders -- quarantine.
        try:
            lease_path.unlink()
        except OSError:
            pass
        if dead:
            reason = "worker process exited while holding the lease"
        elif expired:
            reason = (
                f"worker lease expired (last heartbeat {beat_age:.1f}s "
                f"ago, TTL {self.lease_ttl_s:g}s)"
            )
        else:
            reason = (
                f"shard exceeded {self.shard_timeout_s:g}s deadline "
                "despite heartbeats"
            )
        return _failure(spec, reason, lease_worker)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.layout.stop_marker.touch()
        except OSError:
            pass
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []
        if self._owns_directory:
            shutil.rmtree(self.layout.root, ignore_errors=True)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
