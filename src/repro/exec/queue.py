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
- **Claim.**  A worker (``python -m repro worker --queue DIR``) claims a
  message by atomically renaming it into its per-worker lease directory
  ``<queue>/leases/<worker>/`` -- the filesystem guarantees exactly one
  winner, with no coordinator in the loop.
- **Heartbeat.**  While executing, the worker touches the lease file's
  mtime every quarter-TTL.  *Liveness is the lease*, not a pipe: a
  SIGKILLed, OOMed, or wedged worker simply stops beating.
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
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.cache import CACHE_ENV
from repro.errors import ConfigurationError, ProtocolError
from repro.exec import faults, protocol
from repro.exec.backends import (
    SHARD_TIMEOUT_ENV,
    _worker_env,
    default_worker_command,
)
from repro.exec.shard import (
    ShardFailure,
    ShardSpec,
    cell_label,
    checked_reply,
)
from repro.knobs import positive_float_env

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_POLL_S",
    "LEASE_TTL_ENV",
    "POLL_ENV",
    "QueueBackend",
    "QueueLayout",
    "queue_worker_main",
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


class _Heartbeat:
    """Touches a lease file's mtime on an interval until stopped.

    A heartbeat thread that dies while its worker keeps computing is the
    *phantom hang*: the lease goes stale, the backend reclaims and
    retries the shard, and the worker's (eventually posted) result races
    the retry's -- all because a bookkeeping thread failed silently.  Any
    unexpected exception in the beat loop therefore sets :attr:`failed`,
    which the worker checks after the shard and converts into an
    explicit *retriable* error reply instead of posting a result whose
    lease it could not keep alive.  A vanished lease file is the one
    expected exit: the claim was reclaimed from under us, and the
    post-time ``lease.exists()`` check already handles that race.
    """

    def __init__(self, lease: Path, interval_s: float) -> None:
        self.lease = lease
        self.interval_s = interval_s
        self.failed = False
        self.error: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                os.utime(self.lease)
            except FileNotFoundError:
                # Lease reclaimed from under us: nothing left to renew.
                return
            except Exception as exc:
                self.failed = True
                self.error = f"{type(exc).__name__}: {exc}"
                return

    def stop(self) -> None:
        self._stop.set()


def queue_worker_main(
    queue_dir: str | Path, *, drain: bool = False
) -> int:
    """The pull-model worker loop: claim, heartbeat, execute, post.

    Runs until the queue's ``stop`` marker appears (and the queue is
    empty), this worker is banned, the spawning backend's process
    (``$REPRO_QUEUE_PARENT``, set on local spawns only) is gone, or --
    with ``drain`` -- the queue has no pending work.  Any process that can reach the directory may run
    this; the backend's own local workers and an operator's
    ``python -m repro worker --queue DIR`` on another host are identical.

    SIGTERM/SIGINT shut down gracefully: a lease currently held is
    *released* -- renamed back into ``pending/`` so the next worker
    claims it immediately instead of waiting out the heartbeat TTL --
    and the worker exits 0.
    """
    from repro.exec.worker import (
        GracefulShutdown,
        error_message,
        install_graceful_shutdown,
        run_shard_message,
    )

    install_graceful_shutdown()
    layout = QueueLayout(queue_dir)
    if not layout.pending.is_dir():
        raise ConfigurationError(
            f"{queue_dir} is not a queue directory (no pending/); "
            "the sweep's backend creates it, or create one by running "
            "the sweep with --backend queue"
        )
    config = layout.read_config()
    lease_ttl_s = (
        positive_float_env(LEASE_TTL_ENV)
        or config.get("lease_ttl_s")
        or DEFAULT_LEASE_TTL_S
    )
    poll_s = (
        positive_float_env(POLL_ENV) or config.get("poll_s") or DEFAULT_POLL_S
    )
    parent_pid: int | None = None
    raw_parent = os.environ.get(PARENT_PID_ENV, "").strip()
    if raw_parent:
        try:
            parent_pid = int(raw_parent)
        except ValueError:
            parent_pid = None

    def orphaned() -> bool:
        if parent_pid is None:
            return False
        if os.getppid() == parent_pid:
            return False
        try:
            os.kill(parent_pid, 0)
        except OSError:
            return True
        return False

    worker_id = f"q{os.getpid()}-{os.urandom(2).hex()}"
    lease_dir = layout.leases / worker_id
    lease_dir.mkdir(parents=True, exist_ok=True)
    ban_marker = layout.banned / worker_id
    heartbeat_s = max(lease_ttl_s / 4.0, 0.02)
    baseline_cache_root = os.environ.get(CACHE_ENV)

    def claim() -> Path | None:
        try:
            names = sorted(os.listdir(layout.pending))
        except FileNotFoundError:
            return None
        for name in names:
            if not name.endswith(".json"):
                continue
            target = lease_dir / name
            try:
                os.rename(layout.pending / name, target)
            except OSError:
                continue  # another worker won the rename
            # rename preserves the pending file's mtime; the lease clock
            # starts *now*, not at enqueue time.
            os.utime(target)
            return target
        return None

    lease: Path | None = None
    heartbeat: _Heartbeat | None = None
    try:
        while True:
            if ban_marker.exists():
                return 0  # retired by the scheduler's exclusion
            if orphaned():
                return 0  # spawner died; do not outlive its tree
            lease = claim()
            if lease is None:
                if layout.stop_marker.exists() or drain:
                    return 0
                time.sleep(poll_s)
                continue
            key = lease.name[: -len(".json")]
            try:
                message = protocol.read_message_file(lease)
            except ProtocolError as exc:
                message = None
                reply = error_message(
                    key, f"undecodable queue message: {exc}"
                )
            if message is not None:
                # Fault-injection sits exactly where real failures
                # strike: after the claim, before the first heartbeat.
                # A die-once exits here; a hang sleeps here with no
                # heartbeat ever sent -- both leave a lease whose mtime
                # is the claim instant, which is what the TTL reclaim
                # must absorb.
                faults.on_claim(key)
                heartbeat = _Heartbeat(lease, heartbeat_s)
                heartbeat.start()
                try:
                    reply = run_shard_message(message, baseline_cache_root)
                finally:
                    heartbeat.stop()
                if heartbeat.failed:
                    # The beat loop died while we computed: the lease may
                    # have gone stale and been reclaimed at any point, so
                    # the result cannot be trusted as exclusively ours.
                    # Report a *retriable* failure instead of a result --
                    # the explicit version of what would otherwise be a
                    # phantom hang.
                    reply = error_message(
                        key,
                        "lease heartbeat thread failed mid-shard: "
                        f"{heartbeat.error}",
                    )
                    reply["retriable"] = True
                heartbeat = None
            reply["worker"] = worker_id
            if lease.exists():
                # Still ours: post the reply, then release the claim.  If
                # the lease was reclaimed while we ran (we were presumed
                # dead), the shard belongs to another worker now --
                # posting a late result would race the rightful owner's,
                # so discard ours.
                protocol.write_message_file(
                    layout.results / layout.message_name(key), reply
                )
                try:
                    lease.unlink()
                except OSError:
                    pass
            lease = None
    except GracefulShutdown:
        if heartbeat is not None:
            heartbeat.stop()
        if lease is not None and lease.exists():
            # Release, don't abandon: back into pending/ so the next
            # worker claims it now instead of after a TTL expiry.
            try:
                os.rename(lease, layout.pending / lease.name)
            except OSError:
                pass
        return 0


class QueueBackend:
    """Dispatch shards through a file-system queue of claimable messages.

    Args:
        workers: Local worker processes to keep alive (the *floor*;
            externally-attached workers add to it).
        directory: Queue directory.  None creates a private temp queue
            removed on :meth:`close`; point it somewhere shared (and
            durable) to attach external workers or inspect the queue.
        command: Worker launch command override (defaults to
            ``python -m repro worker``; ``$REPRO_WORKER_CMD`` also
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
            env = _worker_env()
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
        keys = {}
        for index, spec in enumerate(specs):
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
            keys[spec.key] = index
        outcomes: list = [None] * len(specs)
        first_leased: dict[str, tuple[str, float]] = {}
        while any(outcome is None for outcome in outcomes):
            self._maintain_workers()
            progress = False
            for spec in specs:
                index = keys[spec.key]
                if outcomes[index] is not None:
                    continue
                outcome = self._collect(spec, first_leased)
                if outcome is not None:
                    outcomes[index] = outcome
                    progress = True
            if progress:
                continue
            if self._fleet_exhausted():
                for spec in specs:
                    index = keys[spec.key]
                    if outcomes[index] is None:
                        outcomes[index] = ShardFailure(
                            "no live workers remaining (respawn budget "
                            f"{self.max_respawns} exhausted)",
                            shard_key=spec.key,
                            cells=tuple(
                                cell_label(c) for c in spec.cells
                            ),
                        )
                        self._remove_message(spec.key)
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
        cells = tuple(cell_label(c) for c in spec.cells)
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
            return ShardFailure(
                "worker posted an undecodable result message",
                shard_key=spec.key,
                cells=cells,
                worker=worker,
                cause=str(exc),
            )
        if message is not None:
            result_path.unlink(missing_ok=True)
            self._remove_message(spec.key)
            worker = message.get("worker") or worker
            if message.get("kind") == "error":
                # In protocol, deterministic: not a transport fault --
                # unless the worker flagged it retriable (a heartbeat
                # failure mid-shard, not a cell bug).
                retriable = bool(message.get("retriable", False))
                return ShardFailure(
                    "worker reported a retriable fault"
                    if retriable
                    else "shard raised inside the worker",
                    shard_key=spec.key,
                    cells=cells,
                    worker=worker,
                    cause=str(message.get("error")),
                    retriable=retriable,
                )
            if (
                message.get("kind") != "result"
                or message.get("id") != spec.key
            ):
                return ShardFailure(
                    "worker posted an out-of-protocol reply "
                    f"(kind={message.get('kind')!r})",
                    shard_key=spec.key,
                    cells=cells,
                    worker=worker,
                )
            try:
                decoded = protocol.decode_shard_result(message)
            except ProtocolError as exc:
                return ShardFailure(
                    "worker result payload undecodable",
                    shard_key=spec.key,
                    cells=cells,
                    worker=worker,
                    cause=str(exc),
                )
            return checked_reply(spec, decoded, worker)
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
        return ShardFailure(
            reason,
            shard_key=spec.key,
            cells=cells,
            worker=lease_worker,
        )

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
