"""Shared stream artifacts: memoized, zero-copy scenario materialization.

Materializing a 20-minute 30-FPS stream draws 36,000 frames -- and the
experiment grids run up to six systems against the *same* (scenario, seed)
stream, historically regenerating it once per cell.  This module computes
each stream once per key and shares it everywhere:

- **In-process LRU** -- repeated materializations inside one process (a
  serial sweep, or a grid worker running every system of its shard) return
  the same :class:`~repro.data.stream.FrameWindow` object.
- **On-disk memmap tier** -- frames are persisted as plain ``.npy`` files
  under ``<cache root>/streams/<key>/`` and reopened with
  ``np.load(mmap_mode="r")``, so a warm materialization costs a file open,
  concurrent processes share pages through the OS cache, and
  ``FrameWindow.window`` slices stay zero-copy views of the mapping.

The key covers everything the frames depend on: scenario name, the full
segment schedule (domains + durations), the :class:`DomainModel` geometry
(feature_dim, geometry_seed), fps, the stream seed, the active
:class:`~repro.numeric.NumericPolicy`'s digest namespace, and
:data:`STREAM_CACHE_VERSION`.  The disk tier inherits the cache root from
:func:`repro.cache.cache_dir` (``$REPRO_CACHE_DIR``; empty value disables
disk, keeping the LRU).  All disk failures are soft -- a missing, corrupt,
or unwritable entry falls back to in-memory generation, which is
bit-identical.

Layout of one entry::

    streams/<sha256 of the key>/
        features.npy   # (n, feature_dim) float64
        labels.npy     # (n,) int64
        times.npy      # (n,) float64
        meta.json      # human-readable key fields (debugging only)

Entries are content-deterministic, so concurrent writers race benignly:
every writer produces identical bytes and ``os.replace`` keeps each file
atomic.  Wipe the ``streams/`` directory freely; it is a pure cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cache import cache_dir, write_atomic
from repro.data.stream import FrameWindow, ScenarioStream
from repro.errors import ScenarioError
from repro.numeric import active_policy

__all__ = [
    "ArtifactStore",
    "STREAM_CACHE_VERSION",
    "caching_disabled",
    "get_store",
    "materialize",
    "stream_key",
]

#: Layout/key version of stream cache entries (bump on generator changes).
#: v2: the numeric policy entered the key.
STREAM_CACHE_VERSION = 2

#: Array files of one entry with their dtypes.
_ENTRY_ARRAYS = (
    ("features", np.dtype(np.float64)),
    ("labels", np.dtype(np.int64)),
    ("times", np.dtype(np.float64)),
)


def stream_key(stream: ScenarioStream, seed: int) -> str:
    """Hex digest covering every input the materialized frames depend on."""
    parts = [
        f"v{STREAM_CACHE_VERSION}",
        active_policy().digest_namespace,
        stream.name,
        repr(float(stream.fps)),
        str(int(seed)),
        str(stream.model.feature_dim),
        str(stream.model.geometry_seed),
    ]
    for segment in stream.segments:
        domain = segment.domain
        parts.append("|".join((
            domain.labels.value,
            domain.time.value,
            domain.location.value,
            domain.weather.value,
            repr(float(segment.duration_s)),
        )))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class ArtifactStore:
    """Two-tier (LRU + disk memmap) cache of materialized streams.

    Attributes:
        max_entries: In-process LRU capacity.  With the disk tier active,
            entries are memmap-backed and cost no RAM beyond page cache;
            without it, each full-length stream holds ~7 MB.
        hits / misses: In-process lookup counters (introspection).
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 1:
            raise ScenarioError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lru: OrderedDict[tuple, FrameWindow] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, stream: ScenarioStream, seed: int = 0) -> FrameWindow:
        """The materialized stream, shared across callers of the same key."""
        digest = stream_key(stream, seed)
        root = cache_dir()
        # The LRU key includes the disk root so repointing $REPRO_CACHE_DIR
        # (tests do, per-case) never serves windows from the old tier.
        key = (digest, None if root is None else str(root))
        with self._lock:
            window = self._lru.get(key)
            if window is not None:
                self._lru.move_to_end(key)
                self.hits += 1
                return window
            self.misses += 1
        window = self._load(root, digest, stream)
        if window is None:
            window = stream.generate(seed)
            stored = self._store(root, digest, stream, seed, window)
            if stored is not None:
                window = stored
            else:
                # No disk tier: the in-memory window is about to be shared
                # across cells, so freeze it like the read-only memmaps --
                # an accidental in-place write should raise, not silently
                # corrupt every later consumer of the key.
                for array in (window.features, window.labels, window.times):
                    array.setflags(write=False)
        with self._lock:
            self._lru[key] = window
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)
        return window

    def clear(self) -> None:
        """Drop the in-process tier (disk entries stay)."""
        with self._lock:
            self._lru.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    # -- disk tier ----------------------------------------------------------

    @staticmethod
    def _entry_dir(root: Path, digest: str) -> Path:
        return root / "streams" / digest

    def _load(
        self,
        root: Path | None,
        digest: str,
        stream: ScenarioStream,
    ) -> FrameWindow | None:
        """Memmap-open a disk entry, or None on any miss/corruption."""
        if root is None:
            return None
        entry = self._entry_dir(root, digest)
        arrays = {}
        try:
            for name, dtype in _ENTRY_ARRAYS:
                arrays[name] = np.load(
                    entry / f"{name}.npy", mmap_mode="r"
                )
                if arrays[name].dtype != dtype:
                    return None
            if (
                arrays["features"].shape
                != (stream.num_frames, stream.model.feature_dim)
                or arrays["labels"].ndim != 1
                or arrays["times"].ndim != 1
            ):
                return None
            return FrameWindow(
                arrays["features"], arrays["labels"], arrays["times"]
            )
        except (OSError, ValueError, TypeError, ScenarioError):
            return None

    def _store(
        self,
        root: Path | None,
        digest: str,
        stream: ScenarioStream,
        seed: int,
        window: FrameWindow,
    ) -> FrameWindow | None:
        """Persist a generated stream; return its memmap-backed reopen.

        Failures (read-only cache, full disk) are soft: the caller keeps
        the in-memory window, which is bit-identical.
        """
        if root is None:
            return None
        entry = self._entry_dir(root, digest)
        arrays = {
            "features": window.features,
            "labels": window.labels,
            "times": window.times,
        }
        try:
            entry.mkdir(parents=True, exist_ok=True)
            for name, _ in _ENTRY_ARRAYS:
                write_atomic(
                    entry / f"{name}.npy",
                    lambda handle, array=arrays[name]: np.save(
                        handle, np.ascontiguousarray(array)
                    ),
                )
            meta = {
                "scenario": stream.name,
                "seed": int(seed),
                "fps": float(stream.fps),
                "num_frames": int(stream.num_frames),
                "feature_dim": int(stream.model.feature_dim),
                "geometry_seed": int(stream.model.geometry_seed),
                "dtype": "float64",
                "version": STREAM_CACHE_VERSION,
            }
            write_atomic(
                entry / "meta.json",
                lambda handle: handle.write(
                    json.dumps(meta, indent=1).encode()
                ),
            )
        except OSError:
            return None
        return self._load(root, digest, stream)


#: The process-wide store every ``ScenarioStream.materialize`` routes through.
_STORE = ArtifactStore()

_disabled = 0


def get_store() -> ArtifactStore:
    """The process-wide stream store."""
    return _STORE


@contextmanager
def caching_disabled():
    """Force materializations back to per-call generation while active.

    Used by the equivalence tests (the pre-substrate behavior as their
    reference); nestable and thread-hostile only in the benign sense (a
    racing materialization is simply uncached).
    """
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def materialize(stream: ScenarioStream, seed: int = 0) -> FrameWindow:
    """Materialize through the shared store (or directly, when disabled)."""
    if _disabled:
        return stream.generate(seed)
    return _STORE.get(stream, seed)
