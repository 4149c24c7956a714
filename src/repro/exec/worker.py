"""The shard worker: ``python -m repro worker``.

A long-lived child serving the JSON-lines shard protocol over stdio: read
a ``shard`` message, run it through :func:`run_shard_message` -- the one
worker-side step, shared with the queue worker -- and reply with a
bit-exact ``result`` message, or an ``error`` message if the shard
raised, after which the worker keeps serving (a deterministic cell bug
must not look like a dead worker).

The *real* stdout belongs to the protocol: its fd is duplicated at
startup and ``sys.stdout`` is repointed at stderr, so a stray ``print``
anywhere in the simulation degrades to log noise instead of corrupting
the message stream.  That discipline is what lets the identical worker
run behind ``ssh host python -m repro worker``.

With ``--queue DIR`` the same entry point serves the *pull* model
instead: no stdio protocol, no parent pipe -- the worker claims shard
message files from a queue directory, heartbeats its leases, and posts
results back (see :mod:`repro.exec.queue`).  Any process that can reach
the directory may attach this way, mid-sweep included.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback

from repro.cache import CACHE_ENV
from repro.errors import ConfigurationError, ProtocolError
from repro.exec import faults, protocol
from repro.exec.shard import execute_shard

__all__ = [
    "GracefulShutdown",
    "error_message",
    "install_graceful_shutdown",
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
        from repro.exec.queue import queue_worker_main

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
