"""The shard worker: ``python -m repro.exec.worker``, or ``repro worker``.

A long-lived child serving the JSON-lines shard protocol over stdio: read
a ``shard`` message, run it through :func:`run_shard_message` -- the one
worker-side step, shared with the queue worker -- and reply with a
bit-exact ``result`` message, or an ``error`` message if the shard
raised, after which the worker keeps serving (a deterministic cell bug
must not look like a dead worker).  The local backends start it as
``python -m repro.exec.worker``, which imports only what a worker runs.

The *real* stdout belongs to the protocol: its fd is duplicated at
startup and ``sys.stdout`` is repointed at stderr, so a stray ``print``
anywhere in the simulation degrades to log noise instead of corrupting
the message stream.  That discipline is what lets the identical worker
run behind ``ssh host python -m repro worker``.

With ``--queue DIR`` the same entry point serves the *pull* model
instead (:func:`queue_worker_main`): no stdio protocol, no parent pipe --
the worker claims shard message files from a queue directory, heartbeats
its leases, and posts results back (see :mod:`repro.exec.queue`).  Any
process that can reach the directory may attach this way, mid-sweep
included.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

from repro.cache import CACHE_ENV
from repro.errors import ConfigurationError, ProtocolError
from repro.exec import faults, protocol
from repro.exec.queue import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_POLL_S,
    PARENT_PID_ENV,
    QueueLayout,
)
from repro.exec.shard import execute_shard
from repro.knobs import positive_seconds

__all__ = [
    "GracefulShutdown",
    "error_message",
    "install_graceful_shutdown",
    "queue_worker_main",
    "run_shard_message",
    "worker_main",
]


class GracefulShutdown(BaseException):
    """Raised by the SIGTERM/SIGINT handler to unwind the worker loop.

    A ``BaseException`` so that shard code catching broad ``Exception``
    (legitimately -- a cell bug must not kill the worker) cannot swallow
    a shutdown request.
    """


def install_graceful_shutdown() -> None:
    """Make SIGTERM/SIGINT raise :class:`GracefulShutdown` (main thread).

    A no-op when called off the main thread (``signal.signal`` raises
    ``ValueError`` there) -- embedded/test uses of the worker loops then
    keep the host's handlers.
    """

    def handler(signum, frame) -> None:
        raise GracefulShutdown(signal.Signals(signum).name)

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, handler)
        except ValueError:
            return


def error_message(message_id, error: str, trace: str | None = None) -> dict:
    """The ``error`` reply for a shard that raised or could not be read."""
    return {
        "v": protocol.PROTOCOL_VERSION,
        "kind": "error",
        "id": message_id,
        "error": error,
        "traceback": trace,
    }


def run_shard_message(message: dict, baseline_cache_root: str | None) -> dict:
    """Execute one ``shard`` message; returns the reply message.

    The worker-side step both worker loops share: decode the spec, pin the
    artifact-cache root it carries, run :func:`execute_shard`, and encode
    the ``result`` (corrupted if a ``corrupt-result`` fault fires).  A
    shard that raises yields an ``error`` reply instead.
    """
    try:
        spec = protocol.decode_shard_spec(message)
        # The payload pins the parent's artifact-cache root so a shared-FS
        # fleet reads one content-addressed store; a cache_root-less shard
        # falls back to the worker's own baseline rather than inheriting
        # whatever the previous shard pinned.
        if spec.cache_root is not None:
            os.environ[CACHE_ENV] = spec.cache_root
        elif baseline_cache_root is not None:
            os.environ[CACHE_ENV] = baseline_cache_root
        else:
            os.environ.pop(CACHE_ENV, None)
        result = execute_shard(spec)
    except Exception as exc:
        return error_message(
            message.get("id"),
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )
    reply = protocol.encode_shard_result(result)
    mode = faults.reply_fault(spec.key)
    if mode is not None:
        reply = faults.corrupt_reply(reply, mode)
    return reply


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
    with ``drain`` -- the queue has no pending work.  Any process that can
    reach the directory may run this; the backend's own local workers and
    an operator's ``python -m repro worker --queue DIR`` on another host
    are identical.

    SIGTERM/SIGINT shut down gracefully: a lease currently held is
    *released* -- renamed back into ``pending/`` so the next worker
    claims it immediately instead of waiting out the heartbeat TTL --
    and the worker exits 0.
    """
    install_graceful_shutdown()
    layout = QueueLayout(queue_dir)
    if not layout.pending.is_dir():
        raise ConfigurationError(
            f"{queue_dir} is not a queue directory (no pending/); "
            "the sweep's backend creates it, or create one by running "
            "the sweep with --backend queue"
        )
    config = layout.read_config()

    def seconds(key: str, default: float) -> float:
        # The timing contract is the one the backend wrote: the queue's
        # config.json, else the default -- never this process's own
        # environment, or a worker could beat slower than its backend
        # reclaims.
        if key not in config:
            return default
        return positive_seconds(config[key], f"{layout.config_path} {key}")

    lease_ttl_s = seconds("lease_ttl_s", DEFAULT_LEASE_TTL_S)
    poll_s = seconds("poll_s", DEFAULT_POLL_S)
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


def worker_main(argv: list[str] | None = None) -> int:
    """Serve shards over stdio until ``shutdown`` or EOF."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="shard worker speaking the JSON-lines protocol "
        "on stdio (launched by the subprocess backend, locally or "
        "over ssh), or pulling from a queue directory with --queue",
    )
    parser.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help="pull shards from this queue directory instead of stdio "
        "(claim by atomic rename, heartbeat the lease, post results "
        "back); attachable to a running sweep from any host sharing "
        "the filesystem",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="with --queue: exit once the queue has no pending work "
        "(the natural shape for batch/k8s-style worker pods)",
    )
    # None means "use sys.argv" (direct ``python -m repro.exec.worker``
    # entry); the CLI wrapper always passes an explicit (possibly empty)
    # list.  ``argv or []`` would silently drop direct-entry arguments.
    args = parser.parse_args(argv)
    if args.drain and args.queue is None:
        parser.error("--drain requires --queue")
    if args.queue is not None:
        return queue_worker_main(args.queue, drain=args.drain)
    install_graceful_shutdown()
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    # Nothing but the protocol may reach the parent's pipe: repoint the
    # Python-level stdout *and* file descriptor 1 at stderr, so fd-level
    # writers (C extensions, os.write, child processes of cell code)
    # degrade to log noise instead of corrupting the message stream.
    sys.stdout = sys.stderr
    os.dup2(sys.stderr.fileno(), 1)
    baseline_cache_root = os.environ.get(CACHE_ENV)
    protocol.write_message(
        channel,
        {
            "v": protocol.PROTOCOL_VERSION,
            "kind": "hello",
            "pid": os.getpid(),
        },
    )
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                message = protocol.decode_message(line)
            except ProtocolError as exc:
                protocol.write_message(channel, error_message(None, str(exc)))
                continue
            kind = message.get("kind")
            if kind == "shutdown":
                break
            if kind != "shard":
                protocol.write_message(
                    channel,
                    error_message(
                        message.get("id"),
                        f"unexpected message kind {kind!r}",
                    ),
                )
                continue
            faults.on_claim(str(message.get("id") or ""))
            protocol.write_message(
                channel, run_shard_message(message, baseline_cache_root)
            )
    except GracefulShutdown:
        # SIGTERM/SIGINT: release the current shard (no reply -- the
        # parent's pipe-EOF handling re-dispatches it as a retriable
        # failure) and exit cleanly instead of dying mid-write.
        return 0
    return 0


if __name__ == "__main__":
    try:
        sys.exit(worker_main())
    except ConfigurationError as exc:
        # Mirror the CLI's typed-error contract for direct entry
        # (``python -m repro.exec.worker``): one line, exit 2, no
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
