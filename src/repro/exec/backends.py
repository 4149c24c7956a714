"""Execution backends: where a planned shard actually runs.

An :class:`ExecutionBackend` takes a batch of
:class:`~repro.exec.shard.ShardSpec`\\ s and returns one outcome per spec
-- a :class:`~repro.exec.shard.ShardResult` or a
:class:`~repro.exec.shard.ShardFailure` *value* (never an opaque transport
exception), aligned with the input.  Returning failures as values is what
lets the :class:`~repro.exec.scheduler.Scheduler` retry individual shards
without tearing down the batch.

Four transports:

- :class:`SerialBackend` -- in-process, the exact code path the serial
  experiments have always used.
- :class:`ProcessPoolBackend` -- the historical ``--jobs N`` process pool;
  ``BrokenProcessPool`` is mapped to per-shard failures and the pool is
  rebuilt for the next round.
- :class:`SubprocessWorkerBackend` -- long-lived ``python -m repro worker``
  children speaking the JSON-lines shard protocol over stdio.  Dead
  workers are retired and replaced (bounded respawn budget); the launch
  command is overridable (``$REPRO_WORKER_CMD``), which is all an
  ``ssh host python -m repro worker`` deployment needs.
- :class:`~repro.exec.queue.QueueBackend` -- the pull model: shards become
  claimable message files in a queue directory, workers claim them by
  atomic rename and heartbeat their leases, and an expired lease (not a
  pipe) is the death signal.  The only transport that survives SIGKILLed
  workers it did not spawn, and the one external workers can attach to
  mid-sweep.

The two transports that hear from another process turn each reply into
an outcome through one check, :func:`reply_outcome`.  Backend selection
is ambient -- the :data:`BACKEND` knob, a :func:`use_backend` override,
then ``$REPRO_BACKEND``; README "Policies" -- and :mod:`repro.exec.run`
applies it.  Every backend produces bit-identical results at any worker
count -- cells seed their own RNGs, so *where* a shard runs can never
change *what* it computes.
"""

from __future__ import annotations

import os
import queue
import shlex
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError, ProtocolError
from repro.exec import faults, protocol
from repro.exec.shard import (
    ShardFailure,
    ShardResult,
    ShardSpec,
    cell_label,
    execute_shard,
)
from repro.knobs import Knob, positive_float_env

__all__ = [
    "BACKEND",
    "BACKEND_ENV",
    "BACKEND_KINDS",
    "WORKER_CMD_ENV",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "SubprocessWorkerBackend",
    "active_backend_spec",
    "parse_backend",
    "reply_outcome",
    "use_backend",
]

#: Environment variable selecting the ambient backend spec
#: (``serial`` | ``process[:N]`` | ``subprocess[:N]`` | ``queue[:N]``).
BACKEND_ENV = "REPRO_BACKEND"

#: Environment variable replacing the worker launch command (shlex-split);
#: e.g. ``REPRO_WORKER_CMD="ssh edge-host python -m repro worker"``.
WORKER_CMD_ENV = "REPRO_WORKER_CMD"

#: Environment variable bounding how long one worker may sit silent on a
#: single shard (seconds; unset = no watchdog).  A worker past the
#: deadline is killed, which converts a *hang* -- a wedged ssh channel, a
#: stalled remote host -- into the worker-death failure the scheduler
#: already knows how to retry.
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"

#: The recognized backend kinds, in documentation order.
BACKEND_KINDS = ("serial", "process", "subprocess", "queue")


@runtime_checkable
class ExecutionBackend(Protocol):
    """The contract every transport implements.

    ``run`` executes a batch of shards and returns outcomes aligned with
    the input -- a :class:`ShardResult` per success, a :class:`ShardFailure`
    *value* per failure.  ``excluded`` names workers the scheduler has
    seen fail; transports with identifiable workers must not hand them
    further shards.  ``close`` releases pools/children and must be
    idempotent.
    """

    name: str

    def run(
        self,
        specs: Sequence[ShardSpec],
        excluded: frozenset[str] = frozenset(),
    ) -> list:
        ...

    def close(self) -> None:
        ...


class SerialBackend:
    """Run shards in this process -- the historical serial code path.

    Serial specs are planned without ``profile`` (the ambient profiler,
    if any, records phases directly), and exceptions propagate exactly
    as the serial experiments have always surfaced them.
    """

    name = "serial"

    def run(
        self,
        specs: Sequence[ShardSpec],
        excluded: frozenset[str] = frozenset(),
    ) -> list:
        return [execute_shard(spec) for spec in specs]

    def close(self) -> None:
        pass


def _failure(
    spec: ShardSpec,
    message: str,
    worker: str | None = None,
    cause: object = None,
    retriable: bool = True,
) -> ShardFailure:
    """A failure of ``spec``, naming its cells."""
    return ShardFailure(
        message,
        shard_key=spec.key,
        cells=tuple(cell_label(cell) for cell in spec.cells),
        worker=worker,
        cause=None if cause is None else str(cause),
        retriable=retriable,
    )


def checked_reply(
    spec: ShardSpec, result: ShardResult, worker: str | None = None
) -> ShardResult | ShardFailure:
    """``result``, or a retriable failure if it does not answer every job.

    A truncated reply must never be journaled as a completed shard, so it
    becomes a failure the retry path recomputes whole.
    """
    if len(result.outcomes) == len(spec.jobs):
        return result
    return _failure(
        spec,
        f"worker returned {len(result.outcomes)} results for a "
        f"{len(spec.jobs)}-cell shard",
        worker,
    )


def _pool_run_shard(spec: ShardSpec) -> ShardResult:
    """Pool-worker entry point (module-level so it pickles)."""
    faults.on_claim(spec.key)
    result = execute_shard(spec)
    # Pool replies are in-process Python objects, not encoded bytes, so
    # there are no bytes to garble: a ``corrupt-result`` firing drops the
    # last per-cell outcome instead, which the parent's length-vs-spec
    # check must reject before anything reaches a journal.
    if faults.reply_fault(spec.key) is not None:
        result = replace(result, outcomes=result.outcomes[:-1])
    return result


class ProcessPoolBackend:
    """The historical ``--jobs N`` pool, with typed per-shard failure.

    A dying worker breaks a ``ProcessPoolExecutor`` wholesale: every
    pending future raises ``BrokenProcessPool``.  Those shards come back
    as :class:`ShardFailure` values (naming their cells) and the broken
    pool is discarded, so the scheduler's next attempt runs on a fresh
    one.  Pool workers are anonymous, so ``excluded`` has nothing to pin.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"process backend needs >= 1 worker, got {workers}"
            )
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def run(
        self,
        specs: Sequence[ShardSpec],
        excluded: frozenset[str] = frozenset(),
    ) -> list:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        futures = [
            self._pool.submit(_pool_run_shard, spec) for spec in specs
        ]
        outcomes = []
        broken = False
        for spec, future in zip(specs, futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                broken = True
                outcomes.append(
                    _failure(
                        spec,
                        "a pool worker process died executing the shard",
                        cause=type(exc).__name__,
                    )
                )
            except Exception as exc:
                # A *cell* raised inside a healthy worker: deterministic,
                # so recomputing it would reproduce the same exception.
                # The (unpickled) original rides along so the scheduler
                # can re-raise it -- callers see the same exception type
                # the serial path has always produced.
                outcomes.append(
                    ShardFailure(
                        "shard raised inside a pool worker",
                        shard_key=spec.key,
                        cells=tuple(cell_label(c) for c in spec.cells),
                        cause=f"{type(exc).__name__}: {exc}",
                        retriable=False,
                        cause_exception=exc,
                    )
                )
            else:
                outcomes.append(checked_reply(spec, result))
        if broken:
            self.close()
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


def reply_outcome(
    spec: ShardSpec, message: dict, worker: str | None = None
) -> ShardResult | ShardFailure:
    """One reply message from another process as the shard's outcome.

    Both the stdio worker's pipe and the queue's result files come through
    here, and any attached worker can write a result file, so nothing in
    the reply is coerced.  An ``error`` reply is a deterministic cell
    error unless its ``retriable`` is JSON ``true``.  A reply whose
    ``retriable`` is not a bool, whose ``worker`` is not one path
    component, whose kind or id is wrong, whose payload does not decode,
    or that answers too few jobs is out of protocol: a retriable failure,
    so another worker recomputes the shard.  ``worker`` is who the caller
    saw serve the shard; a well-formed reply's own ``worker`` replaces it.
    """
    retriable = message.get("retriable", False)
    if not isinstance(retriable, bool):
        return _failure(
            spec, "worker replied out of protocol", worker,
            f"retriable must be true or false, got {retriable!r}",
        )
    named = message.get("worker", worker)
    if named is not None and not (
        isinstance(named, str)
        and named not in ("", ".", "..")
        and "/" not in named
        and "\0" not in named
    ):
        return _failure(
            spec, "worker replied out of protocol", worker,
            f"worker must name one path component, got {named!r}",
        )
    kind = message.get("kind")
    if kind == "error":
        return _failure(
            spec,
            "worker reported a retriable fault"
            if retriable
            else "shard raised inside the worker",
            named,
            message.get("error"),
            retriable=retriable,
        )
    if kind != "result" or message.get("id") != spec.key:
        return _failure(
            spec,
            "worker replied out of protocol "
            f"(kind={kind!r}, id={message.get('id')!r})",
            named,
        )
    try:
        decoded = protocol.decode_shard_result(message)
    except ProtocolError as exc:
        return _failure(spec, "worker result payload undecodable", named, exc)
    return checked_reply(spec, decoded, named)


def default_worker_command() -> list[str]:
    """The shard-worker launch command (``$REPRO_WORKER_CMD`` overrides).

    The override is how the same backend dispatches over a remote
    transport: ``REPRO_WORKER_CMD="ssh host python -m repro worker"``
    gives every worker slot a remote child speaking the identical
    protocol over the ssh-forwarded stdio.
    """
    override = os.environ.get(WORKER_CMD_ENV, "").strip()
    if override:
        return shlex.split(override)
    return [sys.executable, "-m", "repro", "worker"]


def _worker_env() -> dict[str, str]:
    """Child environment: inherit, plus make ``repro`` importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    current = env.get("PYTHONPATH", "")
    if src not in current.split(os.pathsep):
        env["PYTHONPATH"] = (
            src + os.pathsep + current if current else src
        )
    return env


class _WorkerHandle:
    """One live worker child plus its protocol channel."""

    def __init__(
        self,
        slot: int,
        command: list[str],
        timeout_s: float | None = None,
    ) -> None:
        self.slot = slot
        self.timeout_s = timeout_s
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=_worker_env(),
            )
        except OSError as exc:
            raise ShardFailure(
                f"could not launch worker command {command!r}",
                cause=str(exc),
            )
        self.id = f"w{slot}:pid{self.proc.pid}"
        try:
            hello = self._read_reply()
        except (ProtocolError, OSError) as exc:
            # An ssh banner/MOTD or a version-skewed peer on the line:
            # as much a failed handshake as silence, and it must surface
            # as the typed failure serve() knows how to absorb.
            self.kill()
            raise ShardFailure(
                "worker did not complete the protocol handshake",
                worker=self.id,
                cause=str(exc),
            )
        if hello is None or hello.get("kind") != "hello":
            self.kill()
            raise ShardFailure(
                "worker did not complete the protocol handshake",
                worker=self.id,
            )

    def _read_reply(self) -> dict | None:
        """A blocking protocol read, bounded by the shard watchdog.

        With a timeout armed, a worker that goes *silent* (wedged ssh
        channel, stalled host) is killed at the deadline; the reader then
        unblocks with EOF and the normal worker-death handling -- typed
        failure, retirement, retry elsewhere -- takes over.
        """
        if self.timeout_s is None:
            return protocol.read_message(self.proc.stdout)
        watchdog = threading.Timer(self.timeout_s, self.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            return protocol.read_message(self.proc.stdout)
        finally:
            watchdog.cancel()

    def run_shard(self, spec: ShardSpec) -> ShardResult:
        try:
            protocol.write_message(
                self.proc.stdin, protocol.encode_shard_request(spec)
            )
            message = self._read_reply()
        except (BrokenPipeError, OSError) as exc:
            raise _failure(spec, "worker pipe broke mid-shard", self.id, exc)
        except ProtocolError as exc:
            raise _failure(
                spec, "worker spoke an invalid protocol message", self.id, exc
            )
        if message is None:
            raise _failure(
                spec,
                f"worker exited mid-shard (exit code {self.proc.poll()})",
                self.id,
            )
        outcome = reply_outcome(spec, message, self.id)
        if isinstance(outcome, ShardFailure):
            # A deterministic cell error keeps the worker serving; any
            # other failure is retriable and retires it.
            raise outcome
        return outcome

    def shutdown(self) -> None:
        """Ask the worker to drain and exit; kill it if it lingers."""
        try:
            protocol.write_message(
                self.proc.stdin,
                {"v": protocol.PROTOCOL_VERSION, "kind": "shutdown"},
            )
        except (BrokenPipeError, OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class SubprocessWorkerBackend:
    """Dispatch shards to ``python -m repro worker`` children over stdio.

    Workers are spawned lazily (one per slot, up to ``workers``) and kept
    alive across batches; each serves one shard at a time over the
    JSON-lines protocol.  A worker that dies or mis-speaks is retired and
    its slot respawned on next use, up to a bounded respawn budget --
    after that the slot reports failures instead of spinning up children
    forever.  Shard payloads carry policy and cache root explicitly, so a
    worker needs no ambient state beyond an importable ``repro``; point
    ``command`` (or ``$REPRO_WORKER_CMD``) at ``ssh host python -m repro
    worker`` and the same backend runs multi-node.
    """

    name = "subprocess"

    def __init__(
        self,
        workers: int,
        command: list[str] | None = None,
        max_respawns: int | None = None,
        shard_timeout_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"subprocess backend needs >= 1 worker, got {workers}"
            )
        self.workers = workers
        self.command = list(command) if command else None
        self.max_respawns = (
            max_respawns if max_respawns is not None else workers + 4
        )
        self.shard_timeout_s = (
            shard_timeout_s
            if shard_timeout_s is not None
            else positive_float_env(SHARD_TIMEOUT_ENV)
        )
        self._handles: dict[int, _WorkerHandle] = {}
        self._spawned = 0
        self._lock = threading.Lock()

    def _spawn(self, slot: int) -> _WorkerHandle | None:
        """A live handle for ``slot``, or None once the budget is spent."""
        with self._lock:
            handle = self._handles.get(slot)
            if handle is not None and handle.proc.poll() is None:
                return handle
            if self._spawned >= self.workers + self.max_respawns:
                return None
            self._spawned += 1
        command = self.command or default_worker_command()
        handle = _WorkerHandle(slot, command, self.shard_timeout_s)
        with self._lock:
            self._handles[slot] = handle
        return handle

    def _retire(self, slot: int) -> None:
        with self._lock:
            handle = self._handles.pop(slot, None)
        if handle is not None:
            handle.kill()

    def run(
        self,
        specs: Sequence[ShardSpec],
        excluded: frozenset[str] = frozenset(),
    ) -> list:
        if not specs:
            return []
        # Workers the scheduler has seen fail never get another shard.
        for slot, handle in list(self._handles.items()):
            if handle.id in excluded:
                self._retire(slot)
        outcomes: list = [None] * len(specs)
        work: queue.SimpleQueue = queue.SimpleQueue()
        for item in enumerate(specs):
            work.put(item)
        slots = min(self.workers, len(specs))
        for _ in range(slots):
            work.put(None)

        def serve(slot: int) -> None:
            while True:
                item = work.get()
                if item is None:
                    return
                index, spec = item
                try:
                    handle = self._spawn(slot)
                except ShardFailure as failure:
                    # Spawn/handshake failures happen before the shard is
                    # dispatched; still name the cells left unserved.
                    outcomes[index] = _failure(
                        spec, failure.message, failure.worker, failure.cause
                    )
                    continue
                if handle is None:
                    outcomes[index] = _failure(
                        spec,
                        "no live workers remaining "
                        f"(respawn budget {self.max_respawns} exhausted)",
                    )
                    continue
                try:
                    outcomes[index] = handle.run_shard(spec)
                except ShardFailure as failure:
                    outcomes[index] = failure
                    if failure.retriable:
                        # Transport fault: the worker is dead or talking
                        # garbage.  A non-retriable failure came from a
                        # healthy worker that keeps serving.
                        self._retire(slot)

        threads = [
            threading.Thread(target=serve, args=(slot,), daemon=True)
            for slot in range(slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def close(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.shutdown()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def parse_backend(spec: str) -> tuple[str, int | None]:
    """``"kind[:N]"`` -> ``(kind, workers-or-None)``; validated.

    ``serial`` takes no worker count; ``process``/``subprocess`` accept an
    optional positive ``:N`` (otherwise the caller's ``jobs`` decides).
    """
    if not isinstance(spec, str):
        raise ConfigurationError(f"backend spec must be a string, got {spec!r}")
    kind, sep, count = spec.strip().lower().partition(":")
    if kind not in BACKEND_KINDS:
        raise ConfigurationError(
            f"unknown backend {kind!r}; known: {', '.join(BACKEND_KINDS)}"
        )
    if not sep:
        return kind, None
    if kind == "serial":
        raise ConfigurationError(
            "the serial backend takes no worker count"
        )
    try:
        workers = int(count)
    except ValueError:
        raise ConfigurationError(
            f"backend worker count must be an integer, got {count!r}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"backend worker count must be >= 1, got {workers}"
        )
    return kind, workers


#: The backend knob: a ``kind[:N]`` spec string, or None for the
#: historical default.  The CLI's ``--backend`` flag installs a
#: :func:`use_backend` override around the whole command, so experiment
#: runners that simply call ``run_cells(cells, jobs=...)`` pick the
#: transport up ambiently -- no per-runner plumbing.
BACKEND = Knob(BACKEND_ENV, None, parse=parse_backend)

active_backend_spec = BACKEND.active
use_backend = BACKEND.use
