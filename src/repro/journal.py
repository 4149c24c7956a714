"""The append-only journal file and the one durable write.

Both journals keep their records in one file shape: a header line pinning
a schema version and a content fingerprint, then one compact JSON record
per line.  The sweep's completion journal
(:class:`~repro.exec.scheduler.SweepJournal`) and the fleet service's
session journal (:class:`~repro.service.session.SessionJournal`) decide
what their records mean; :class:`Journal` is the file half they share:

- **Creation and rewrite** go through :func:`write_durable`: temp file,
  fsync, atomic rename, directory fsync.  A kill leaves the old file or
  the new one, never a torn header or a half-compacted journal.
- **Append** writes one line and fsyncs the file, then its directory,
  before returning.
- **Resume** enforces the one rule for what a kill may leave.  A kill
  mid-append leaves at most one unterminated final line; resume cuts the
  file back to its last newline, so whatever that line described did not
  happen.  Every other line must decode: one that does not parse, is not
  an object, has the wrong shape for its kind, or names a kind or stream
  its journal never wrote cannot come from a kill, so loading raises
  :class:`~repro.errors.ConfigurationError` naming the journal, the line
  and the record kind, with the journal's remedy.

:func:`write_durable` is also how the queue's message files and the
daemon's ``control.port`` and ``state.json`` land: a reader sees the
previous file or the complete new one, never an empty or partial one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

from repro.cache import write_atomic
from repro.errors import ConfigurationError, ProtocolError

__all__ = ["Journal", "write_durable"]


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry to disk (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_durable(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Atomically replace ``path`` with what ``write`` writes, durably.

    :func:`~repro.cache.write_atomic`'s temp file and rename, plus an
    fsync of the file before the rename and of its directory after, so
    the replacement survives a power cut as well as a kill.
    """
    path = Path(path)

    def flushed(handle: BinaryIO) -> None:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())

    write_atomic(path, flushed)
    _fsync_dir(path.parent)


def _line(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


class Journal:
    """One append-only journal file (see the module docstring).

    Args:
        path: The journal file.
        what: Which journal, for messages (``"sweep"``, ``"session"``).
        version: Schema version the header pins.
        fingerprint: Content fingerprint the header pins.
        mismatch: Why a journal with another fingerprint is refused.
        remedy: What to do about a refused journal.
    """

    def __init__(
        self,
        path: str | Path,
        what: str,
        version: int,
        fingerprint: str,
        *,
        mismatch: str,
        remedy: str,
    ) -> None:
        self.path = Path(path)
        self.what = what
        self.version = version
        self.fingerprint = fingerprint
        self.mismatch = mismatch
        self.remedy = remedy

    def _refuse(self, reason: str) -> ConfigurationError:
        return ConfigurationError(
            f"{self.what} journal {self.path} {reason}; {self.remedy}"
        )

    def open(self, apply: Callable[[dict], None], *, resume: bool) -> bool:
        """Resume an existing journal into ``apply``, or start a fresh one.

        With ``resume`` and a file at :attr:`path`, checks the header,
        feeds every record to ``apply`` in order, then cuts a torn final
        line; returns True.  Otherwise writes a journal holding only the
        header (replacing any old one) and returns False.
        """
        if not (resume and self.path.exists()):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.rewrite(())
            return False
        data = self.path.read_bytes()
        if not data:
            raise self._refuse("is empty")
        head, newline, body = data.partition(b"\n")
        try:
            header = json.loads(head)
        except ValueError:
            header = None
        if (
            not newline
            or not isinstance(header, dict)
            or header.get("kind") != "header"
            or header.get("version") != self.version
        ):
            raise self._refuse(f"is not a version-{self.version} journal")
        if header.get("fingerprint") != self.fingerprint:
            raise self._refuse(self.mismatch)
        *lines, torn = body.split(b"\n")
        for number, line in enumerate(lines, 2):
            record = None
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"{record!r} is not a JSON object")
                apply(record)
            except (KeyError, TypeError, ValueError, ProtocolError) as exc:
                kind = record.get("kind") if isinstance(record, dict) else None
                raise self._refuse(
                    f"line {number}: malformed {kind or 'untyped'} record "
                    f"({type(exc).__name__}: {exc})"
                ) from None
        if torn:
            os.truncate(self.path, len(data) - len(torn))
        return True

    def append(self, record: dict, *, torn: float | None = None) -> None:
        """Append one record, fsynced (file, then directory) on return.

        ``torn`` is the fault-injection share of the line to write in its
        place: that prefix with no newline, which is what a kill
        mid-append leaves.
        """
        line = _line(record)
        if torn is not None:
            body = line[:-1]
            line = body[: max(1, int(len(body) * torn))]
        with self.path.open("ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(self.path.parent)

    def rewrite(self, records: Iterable[dict]) -> None:
        """Atomically replace the journal with the header and ``records``.

        Records stream into the temp file one line at a time, so a large
        journal is never held in memory as one string.
        """
        header = {
            "kind": "header",
            "version": self.version,
            "fingerprint": self.fingerprint,
        }

        def write(handle: BinaryIO) -> None:
            handle.write((json.dumps(header) + "\n").encode())
            for record in records:
                handle.write(_line(record))

        write_durable(self.path, write)
