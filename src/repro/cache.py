"""Shared on-disk cache root for every persisted artifact tier.

Two artifact families live under one directory so a single environment
variable governs them both:

- pretrained proxy MLPs (:mod:`repro.learn.cache`), stored as ``.npz``
  archives in the root itself;
- materialized scenario streams (:mod:`repro.data.artifacts`), stored as
  memmap-openable ``.npy`` files under ``streams/``.

The location is ``$REPRO_CACHE_DIR`` when set (an *empty* value disables
every disk tier), else ``~/.cache/repro-dacapo``.  The variable is re-read
on every access so tests can repoint the cache per-case with a plain
``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

__all__ = ["CACHE_ENV", "cache_dir", "write_atomic"]

#: Environment variable overriding the cache directory ("" disables).
CACHE_ENV = "REPRO_CACHE_DIR"


def cache_dir() -> Path | None:
    """The active cache directory, or None when disk caching is disabled."""
    root = os.environ.get(CACHE_ENV)
    if root is not None:
        return Path(root) if root else None
    return Path.home() / ".cache" / "repro-dacapo"


def write_atomic(path: Path, write: Callable) -> None:
    """Write a file via temp-file + rename.

    ``write`` receives a binary file handle.  Readers only ever see
    complete files, and -- since every cache entry in this project is
    content-deterministic -- concurrent writers race benignly.  ``OSError``
    propagates; cache tiers treat it as a soft failure.  The project's one
    temp-and-rename: :func:`repro.journal.write_durable` adds the fsyncs
    journals and queue messages need.
    """
    # A unique name made by hand, not by mkstemp: mkstemp creates mode
    # 0600, which would hide journals and queue messages from a reader
    # under another uid; 0o666 gets the umask's mode, as open() does.
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
