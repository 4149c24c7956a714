"""The session journal: a daemon's durable memory, crash to crash.

A sweep journal (:class:`~repro.exec.scheduler.SweepJournal`) records one
record shape -- completed shards -- because a sweep has one lifecycle
event.  A resident service has many: streams are *admitted* at runtime,
their *windows* complete one by one (fresh, stale-served, or shed),
degradation *transitions* fire, streams are *retired*, and operational
*events* (startup, drain, injected faults) punctuate everything.  Both
journals keep their records in one :class:`repro.journal.Journal` file:
an atomic header, a per-record fsync of file and directory, and on
resume the torn final line a kill leaves is cut, while any other line
that does not decode -- or is of no kind below, names a stream no
``admit`` record before it admitted, or a window index outside that
stream's windows -- refuses the resume, naming the line.

The recovery contract: SIGKILL the daemon at any instant, restart it on
the same ``--out`` directory, and every admitted stream resumes from its
last *completed* window; completed windows are never recomputed and their
journaled records -- including the bit-exact encoded
:class:`~repro.core.results.RunResult` of every fresh window -- are
byte-identical to an uninterrupted session's.  To keep that byte-identity
honest, window records carry **no timing**: deadline slack, wall-clock
stamps, and queue depths live only in the control plane's transient
state, never in the journal.

Record kinds (one JSON line each, after the header):

- ``admit``    ``{stream, cell, policy, duration_s, window_s, windows}``
- ``window``   ``{stream, index, mode, digest, accuracy, frames, dropped
  [, result]}`` -- ``mode`` is ``fresh`` (computed; carries the encoded
  result), ``stale`` (served by the stale student; carries the accuracy
  it served), or ``shed`` (frames dropped; carries the drop count).
- ``snapshot`` ``{stream, index, state}`` -- the stream's newest
  run-state snapshot (incremental windows resume from it).  Journaled
  *before* the window record it belongs to, so a kill between the two
  leaves a snapshot the restart can still use.  Only the latest per
  stream is live; superseded snapshot records are pruned when their
  stale bytes pass the compaction threshold (the journal is rewritten
  atomically, all other records byte-preserved in order).
- ``cluster``  ``{cluster, state}`` -- a sharing cluster's newest
  weight state (see :mod:`repro.share.runtime`), journaled only when a
  sharing policy is active.  Like snapshots, only the latest per
  cluster id is live and superseded records are compacted away.
- ``degrade``  one ladder :class:`~repro.service.degrade.Transition`.
- ``retire``   ``{stream, reason}``.
- ``event``    ``{name, detail}`` -- operational punctuation.

The ``daemon-kill`` fault (:mod:`repro.exec.faults`) injects its
``os._exit`` *after* a window record is fully fsynced -- the hardest
instant for recovery, because the next startup must treat that window as
done and everything after it as never-happened.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.exec import faults, protocol
from repro.exec.shard import PolicySet
from repro.journal import Journal
from repro.service.degrade import Transition
from repro.service.pacing import window_count

__all__ = [
    "SESSION_VERSION",
    "SNAPSHOT_COMPACT_BYTES",
    "SessionJournal",
    "StreamLog",
    "session_fingerprint",
    "session_path",
]

#: Schema version of the session journal file.
SESSION_VERSION = 1

#: The window-record modes (documentation order = degradation order).
WINDOW_MODES = ("fresh", "stale", "shed")

#: Compaction threshold: once this many bytes of *superseded* snapshot
#: records have accumulated, the journal is rewritten without them.
SNAPSHOT_COMPACT_BYTES = 1 << 20


def session_path(out_dir: str | Path) -> Path:
    """Where a service run's session journal lives."""
    return Path(out_dir) / "session.jsonl"


def session_fingerprint(policies: PolicySet, window_s: float) -> str:
    """Content fingerprint pinning a journal to its session parameters.

    Streams are admitted at runtime, so -- unlike a sweep journal, whose
    fingerprint covers the whole compiled plan -- only the parameters
    that would silently change the meaning of *every* record are pinned:
    the numeric policy (digests are policy-scoped), the window length
    (window indices are meaningless across a different split), and
    whatever :meth:`PolicySet.fingerprint` folds in (an enabled sharing
    policy: shared-path window results differ from independent ones, so
    the journals must never mix; the off-path fingerprint stays the
    historical byte string).
    """
    text = (
        f"service|v{SESSION_VERSION}|{policies.numeric.name}|{window_s:g}"
        f"{policies.fingerprint()}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class StreamLog:
    """One admitted stream's reconstructed journal state.

    Attributes:
        key: The stream key (``cell_key`` of its grid cell).
        cell: The decoded grid cell.
        policy: Numeric policy name the stream runs under.
        duration_s: Total stream length (stream seconds).
        window_s: Window length (stream seconds).
        windows: Per-index window records (``mode``/``digest``/... as
            journaled); a window present here is *done* and must never be
            recomputed.
        transitions: Degradation transitions, in journal order.
        dropped_frames: Total frames shed across the stream's life.
        retired: Whether a retire record closed the stream.
        retire_reason: The retire record's reason, when retired.
        snapshot: The stream's newest journaled run-state snapshot
            payload (None until one is recorded).
        snapshot_index: The window index that snapshot belongs to.
    """

    key: str
    cell: object
    policy: str
    duration_s: float
    window_s: float
    windows: dict[int, dict] = field(default_factory=dict)
    transitions: list[dict] = field(default_factory=list)
    dropped_frames: int = 0
    retired: bool = False
    retire_reason: str | None = None
    snapshot: dict | None = None
    snapshot_index: int = -1

    @property
    def total_windows(self) -> int:
        """How many windows the stream decomposes into."""
        return window_count(self.duration_s, self.window_s)

    @property
    def next_window(self) -> int:
        """The lowest window index not yet journaled as done."""
        index = 0
        while index in self.windows:
            index += 1
        return index

    @property
    def complete(self) -> bool:
        """Every window journaled (the stream is ready to retire)."""
        return len(self.windows) >= self.total_windows


class SessionJournal:
    """Append-only multi-record session log (see the module docstring).

    Construction either creates a fresh journal or, with ``resume=True``
    on an existing file, reloads every record through
    :class:`repro.journal.Journal`: the torn final line a SIGKILL leaves
    is cut, and any other damaged line (an unknown kind, an unadmitted
    stream or an out-of-range window index included) -- or a fingerprint
    mismatch (different policy or window length) -- refuses with a typed
    :class:`~repro.errors.ConfigurationError` rather than silently
    mixing or dropping records.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        *,
        resume: bool = False,
        compact_bytes: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.streams: dict[str, StreamLog] = {}
        self.clusters: dict[str, dict] = {}
        self.events: list[dict] = []
        self.compact_bytes = (
            SNAPSHOT_COMPACT_BYTES if compact_bytes is None else compact_bytes
        )
        # Every non-header record in journal order, plus the byte
        # bookkeeping that triggers snapshot compaction.
        self._records: list[dict] = []
        self._snapshot_bytes: dict[str, int] = {}
        self._stale_snapshot_bytes = 0
        self._journal = Journal(
            self.path,
            "session",
            SESSION_VERSION,
            fingerprint,
            mismatch="belongs to a different session (numeric policy or "
            "window length changed)",
            remedy="remove it or point --out elsewhere",
        )
        self.resumed = self._journal.open(self._load, resume=resume)

    # -- loading ------------------------------------------------------

    def _load(self, record: dict) -> None:
        self._replay(record)
        self._records.append(record)

    def _note_snapshot(self, record: dict) -> None:
        """Track live/stale snapshot bytes for the compaction trigger.

        Sizes are recomputed from a compact re-dump -- byte-identical to
        what :meth:`_append` wrote, since ``json`` round-trips key order,
        ints, and float reprs exactly.  Cluster-state records share the
        accounting under a namespaced key (cluster ids and stream keys
        live in different namespaces, so the sentinel prefix keeps them
        from colliding).
        """
        size = len(json.dumps(record, separators=(",", ":"))) + 1
        if record.get("kind") == "cluster":
            key = "\x00cluster\x00" + str(record.get("cluster", ""))
        else:
            key = record.get("stream", "")
        self._stale_snapshot_bytes += self._snapshot_bytes.get(key, 0)
        self._snapshot_bytes[key] = size

    def _replay(self, record: dict) -> None:
        kind = record["kind"]
        if kind == "admit":
            cell = protocol.decode_cell(record["cell"])
            self.streams[record["stream"]] = StreamLog(
                key=record["stream"],
                cell=cell,
                policy=record["policy"],
                duration_s=float(record["duration_s"]),
                window_s=float(record["window_s"]),
            )
            return
        if kind == "cluster":
            # Journal order is supersession order: the last one wins.
            self.clusters[str(record.get("cluster", ""))] = record.get(
                "state"
            )
            self._note_snapshot(record)
            return
        if kind == "event":
            self.events.append(record)
            return
        if kind not in ("window", "snapshot", "degrade", "retire"):
            raise ValueError(f"unknown record kind {kind!r}")
        # The daemon admits a stream before it journals anything about
        # it, so a stream record naming no admitted stream is damage.
        stream = self.streams.get(record["stream"])
        if stream is None:
            raise ValueError(f"stream {record['stream']!r} was never admitted")
        if kind == "window":
            index = int(record["index"])
            # StreamLog.complete counts records, so a stray index would
            # stand in for a window that was never served.
            if not 0 <= index < stream.total_windows:
                raise ValueError(
                    f"window index {index} is outside the stream's "
                    f"{stream.total_windows} windows"
                )
            stream.windows[index] = record
            stream.dropped_frames += int(record.get("dropped", 0))
        elif kind == "snapshot":
            # Journal order is supersession order: the last one wins.
            stream.snapshot = record.get("state")
            stream.snapshot_index = int(record.get("index", -1))
            self._note_snapshot(record)
        elif kind == "degrade":
            stream.transitions.append(record)
        else:
            stream.retired = True
            stream.retire_reason = record.get("reason")

    # -- appending ----------------------------------------------------

    def _append(self, record: dict) -> None:
        """One fsynced record (file and directory) before returning."""
        self._journal.append(record)
        self._records.append(record)

    def _compact(self) -> None:
        """Atomically rewrite the journal without superseded snapshots.

        Every non-snapshot record (and each stream's newest snapshot) is
        re-emitted byte-identically in journal order by
        :meth:`repro.journal.Journal.rewrite`, so a kill mid-compaction
        leaves either the old journal or the new one, never a mix.
        """
        last_snapshot: dict[str, int] = {}
        last_cluster: dict[str, int] = {}
        for position, record in enumerate(self._records):
            if record.get("kind") == "snapshot":
                last_snapshot[record.get("stream", "")] = position
            elif record.get("kind") == "cluster":
                last_cluster[record.get("cluster", "")] = position
        keep = []
        for position, record in enumerate(self._records):
            kind = record.get("kind")
            if kind == "snapshot":
                if last_snapshot.get(record.get("stream", "")) != position:
                    continue
            elif kind == "cluster":
                if last_cluster.get(record.get("cluster", "")) != position:
                    continue
            keep.append(record)
        self._journal.rewrite(keep)
        self._records = keep
        self._stale_snapshot_bytes = 0

    def record_admit(
        self, key: str, cell, policy: str, duration_s: float, window_s: float
    ) -> StreamLog:
        """Admit one stream; returns its (empty) log.

        Idempotent across sessions: a key already replayed from this
        journal returns its existing log -- completed windows must
        survive a re-admit, never be recomputed.
        """
        existing = self.streams.get(key)
        if existing is not None:
            return existing
        record = {
            "kind": "admit",
            "stream": key,
            "cell": protocol.encode_cell(cell),
            "policy": policy,
            "duration_s": float(duration_s),
            "window_s": float(window_s),
            "windows": window_count(duration_s, window_s),
        }
        self._append(record)
        log = StreamLog(
            key=key,
            cell=cell,
            policy=policy,
            duration_s=float(duration_s),
            window_s=float(window_s),
        )
        self.streams[key] = log
        return log

    def record_window(
        self,
        key: str,
        index: int,
        mode: str,
        *,
        digest: str | None = None,
        accuracy: float | None = None,
        frames: int = 0,
        dropped: int = 0,
        result: dict | None = None,
    ) -> dict:
        """Journal one completed window; the hardest record to lose.

        ``fresh`` windows carry the bit-exact encoded result (so a resume
        can reconstruct every completed window without recompute),
        ``stale`` windows the accuracy they served, ``shed`` windows the
        frames they dropped.  No timing fields, ever -- the record must be
        byte-identical between a paced run and an eager one.

        The ``daemon-kill`` fault fires *after* the fsync: the journal
        remembers the window, the process dies, and the restart must
        resume exactly one window further on.
        """
        if mode not in WINDOW_MODES:
            raise ConfigurationError(
                f"unknown window mode {mode!r}; known: "
                f"{', '.join(WINDOW_MODES)}"
            )
        record: dict = {
            "kind": "window",
            "stream": key,
            "index": int(index),
            "mode": mode,
        }
        if digest is not None:
            record["digest"] = digest
        if accuracy is not None:
            record["accuracy"] = float(accuracy)
        record["frames"] = int(frames)
        record["dropped"] = int(dropped)
        if result is not None:
            record["result"] = result
        self._append(record)
        stream = self.streams.get(key)
        if stream is not None:
            stream.windows[int(index)] = record
            stream.dropped_frames += int(dropped)
        faults.daemon_fault(f"{key}|w{index}")
        return record

    def record_snapshot(self, key: str, index: int, state: dict) -> None:
        """Journal a stream's newest run-state snapshot.

        Callers journal the snapshot *before* the window record it
        belongs to: a kill between the two then leaves window ``i``'s
        snapshot without its record, and the restart recomputes window
        ``i`` from that snapshot's predecessor -- correct either way, and
        never a window record whose snapshot was lost.

        Superseded snapshots stay in the file only until their stale
        bytes pass ``compact_bytes``; then the journal is rewritten
        without them (see :meth:`_compact`), so long-lived sessions don't
        grow linearly in snapshot payloads.
        """
        record = {
            "kind": "snapshot",
            "stream": key,
            "index": int(index),
            "state": state,
        }
        self._append(record)
        stream = self.streams.get(key)
        if stream is not None:
            stream.snapshot = state
            stream.snapshot_index = int(index)
        self._note_snapshot(record)
        if self._stale_snapshot_bytes > self.compact_bytes:
            self._compact()

    def record_cluster(self, cluster_id: str, state: dict) -> None:
        """Journal a sharing cluster's newest weight state.

        Journaled *after* the window record that produced it: losing the
        cluster record to a kill merely costs the next window some reuse
        (it recomputes from the previous cluster state), never a window
        record whose provenance is gone.  Superseded cluster records are
        compacted away alongside stale snapshots.
        """
        record = {
            "kind": "cluster",
            "cluster": str(cluster_id),
            "state": state,
        }
        self._append(record)
        self.clusters[str(cluster_id)] = state
        self._note_snapshot(record)
        if self._stale_snapshot_bytes > self.compact_bytes:
            self._compact()

    def record_degrade(self, transition: Transition) -> None:
        """Journal one degradation-ladder transition."""
        record = {"kind": "degrade", **transition.as_record()}
        self._append(record)
        stream = self.streams.get(transition.stream)
        if stream is not None:
            stream.transitions.append(record)

    def record_retire(self, key: str, reason: str) -> None:
        """Journal one stream leaving the pool."""
        self._append({"kind": "retire", "stream": key, "reason": reason})
        stream = self.streams.get(key)
        if stream is not None:
            stream.retired = True
            stream.retire_reason = reason

    def record_event(self, name: str, detail: dict | None = None) -> None:
        """Journal one operational event (startup, drain, shutdown...)."""
        record: dict = {"kind": "event", "name": name}
        if detail:
            record["detail"] = detail
        self._append(record)
        self.events.append(record)

    # -- queries ------------------------------------------------------

    def active_streams(self) -> list[StreamLog]:
        """Admitted, not-yet-retired streams (what a restart resumes)."""
        return [
            stream
            for stream in self.streams.values()
            if not stream.retired
        ]
