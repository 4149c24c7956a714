"""Tests for the crash-safe session journal."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import protocol
from repro.exec.shard import PolicySet, SystemCell, cell_key
from repro.numeric import FLOAT64
from repro.service.degrade import DegradeLevel, Transition
from repro.service.session import (
    SessionJournal,
    session_fingerprint,
    session_path,
)
from repro.share.policy import CLUSTER

F64 = PolicySet(FLOAT64)
FP = session_fingerprint(F64, 60.0)
CELL = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 120.0)
KEY = cell_key("float64", CELL)


def make(tmp_path, resume=False):
    return SessionJournal(session_path(tmp_path), FP, resume=resume)


class TestFingerprint:
    def test_pins_policy_and_window(self):
        assert session_fingerprint(F64, 60.0) != session_fingerprint(
            PolicySet(FLOAT64, CLUSTER), 60.0
        )
        assert session_fingerprint(F64, 60.0) != session_fingerprint(
            F64, 30.0
        )

    def test_resume_rejects_mismatch(self, tmp_path):
        make(tmp_path)
        with pytest.raises(ConfigurationError, match="different session"):
            SessionJournal(
                session_path(tmp_path),
                session_fingerprint(F64, 30.0),
                resume=True,
            )

    def test_resume_rejects_non_journal(self, tmp_path):
        path = session_path(tmp_path)
        path.write_text("not a journal\n")
        with pytest.raises(ConfigurationError, match="not a version"):
            SessionJournal(path, FP, resume=True)


class TestRoundTrip:
    def test_records_replay(self, tmp_path):
        journal = make(tmp_path)
        journal.record_event("start", {"resumed": False})
        log = journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        assert log.total_windows == 2
        journal.record_window(KEY, 0, "fresh", digest="d0",
                              accuracy=0.9, frames=1800)
        journal.record_degrade(
            Transition(KEY, 1, DegradeLevel.NORMAL,
                       DegradeLevel.SKIP_RETRAIN, "deadline-miss")
        )
        journal.record_window(KEY, 1, "shed", frames=1800, dropped=1800)
        journal.record_retire(KEY, "complete")

        reloaded = SessionJournal(session_path(tmp_path), FP, resume=True)
        assert reloaded.resumed
        stream = reloaded.streams[KEY]
        assert stream.cell == CELL
        assert stream.windows[0]["digest"] == "d0"
        assert stream.windows[1]["mode"] == "shed"
        assert stream.dropped_frames == 1800
        assert len(stream.transitions) == 1
        assert stream.retired and stream.retire_reason == "complete"
        assert stream.complete
        assert reloaded.active_streams() == []
        assert [e["name"] for e in reloaded.events] == ["start"]

    def test_window_records_are_timing_free(self, tmp_path):
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        record = journal.record_window(KEY, 0, "fresh", digest="d0",
                                       accuracy=0.9, frames=10)
        assert set(record) <= {
            "kind", "stream", "index", "mode", "digest",
            "accuracy", "frames", "dropped", "result",
        }

    def test_rejects_unknown_mode(self, tmp_path):
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        with pytest.raises(ConfigurationError, match="unknown window mode"):
            journal.record_window(KEY, 0, "fresher")


class TestNextWindow:
    def test_gaps_above_do_not_advance(self, tmp_path):
        journal = make(tmp_path)
        log = journal.record_admit(KEY, CELL, "float64", 300.0, 60.0)
        journal.record_window(KEY, 0, "fresh", digest="d0")
        journal.record_window(KEY, 3, "shed", frames=10, dropped=10)
        assert log.next_window == 1
        journal.record_window(KEY, 1, "fresh", digest="d1")
        assert log.next_window == 2
        journal.record_window(KEY, 2, "stale", accuracy=0.5)
        assert log.next_window == 4
        assert not log.complete


class TestSnapshots:
    def snap(self, n, size=0):
        return {"v": 1, "origin_duration_s": 60.0 * (n + 1),
                "pad": "x" * size}

    def test_latest_snapshot_replays(self, tmp_path):
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        journal.record_snapshot(KEY, 0, self.snap(0))
        journal.record_window(KEY, 0, "fresh", digest="d0")
        journal.record_snapshot(KEY, 1, self.snap(1))
        journal.record_window(KEY, 1, "fresh", digest="d1")

        reloaded = SessionJournal(session_path(tmp_path), FP, resume=True)
        stream = reloaded.streams[KEY]
        assert stream.snapshot == self.snap(1)
        assert stream.snapshot_index == 1

    def test_snapshot_without_window_still_usable(self, tmp_path):
        # The journaling order (snapshot first, then window) means a kill
        # between the two leaves this shape; the snapshot must replay.
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        journal.record_snapshot(KEY, 0, self.snap(0))
        reloaded = SessionJournal(session_path(tmp_path), FP, resume=True)
        stream = reloaded.streams[KEY]
        assert stream.snapshot == self.snap(0)
        assert stream.next_window == 0  # the window itself never happened

    def test_compaction_prunes_superseded_snapshots(self, tmp_path):
        journal = SessionJournal(
            session_path(tmp_path), FP, resume=False, compact_bytes=600
        )
        log = journal.record_admit(KEY, CELL, "float64", 600.0, 60.0)
        for w in range(10):
            journal.record_snapshot(KEY, w, self.snap(w, size=200))
            journal.record_window(KEY, w, "fresh", digest=f"d{w}")
        journal.record_retire(KEY, "complete")

        lines = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
        ]
        snapshots = [r for r in lines if r.get("kind") == "snapshot"]
        # Stale snapshot bytes passed the threshold repeatedly: only a
        # tail of snapshots survives, the newest among them.
        assert len(snapshots) < 10
        assert snapshots[-1]["index"] == 9
        # Everything else is intact, in order, on a resumable journal.
        windows = [r for r in lines if r.get("kind") == "window"]
        assert [r["index"] for r in windows] == list(range(10))
        reloaded = SessionJournal(session_path(tmp_path), FP, resume=True)
        stream = reloaded.streams[KEY]
        assert stream.snapshot_index == 9
        assert stream.complete and stream.retired
        assert log.windows.keys() == stream.windows.keys()

    def test_compaction_keeps_one_snapshot_per_stream(self, tmp_path):
        other_cell = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4",
                                0, 120.0)
        other_key = cell_key("float64", other_cell)
        journal = SessionJournal(
            session_path(tmp_path), FP, resume=False, compact_bytes=1
        )
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        journal.record_admit(other_key, other_cell, "float64", 120.0, 60.0)
        journal.record_snapshot(KEY, 0, self.snap(0))
        journal.record_snapshot(other_key, 0, self.snap(0))
        journal.record_snapshot(KEY, 1, self.snap(1))

        reloaded = SessionJournal(session_path(tmp_path), FP, resume=True)
        assert reloaded.streams[KEY].snapshot_index == 1
        assert reloaded.streams[other_key].snapshot_index == 0
        snapshots = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
            if '"snapshot"' in line
        ]
        assert len(snapshots) == 2

    def test_torn_tail_after_compaction(self, tmp_path):
        journal = SessionJournal(
            session_path(tmp_path), FP, resume=False, compact_bytes=1
        )
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        journal.record_snapshot(KEY, 0, self.snap(0))
        journal.record_snapshot(KEY, 1, self.snap(1))  # compacts
        path = session_path(tmp_path)
        with path.open("a") as handle:
            handle.write('{"kind": "window", "stream"')

        reloaded = SessionJournal(path, FP, resume=True)
        stream = reloaded.streams[KEY]
        assert stream.snapshot_index == 1
        assert stream.next_window == 0


class TestTornTail:
    def test_torn_final_line_is_dropped_and_terminated(self, tmp_path):
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        journal.record_window(KEY, 0, "fresh", digest="d0")
        path = session_path(tmp_path)
        torn = json.dumps({"kind": "window", "stream": KEY, "index": 1,
                           "mode": "fresh", "digest": "d1"})
        with path.open("a") as handle:
            handle.write(torn[: len(torn) // 2])

        reloaded = SessionJournal(path, FP, resume=True)
        stream = reloaded.streams[KEY]
        # The torn window never happened; the intact prefix survives.
        assert list(stream.windows) == [0]
        assert stream.next_window == 1
        # The torn tail was cut on resume: appending again yields a file
        # in which every line parses.
        reloaded.record_window(KEY, 1, "fresh", digest="d1-again")
        lines = path.read_text().splitlines()
        parsed = []
        for line in lines:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                parsed.append(None)
        assert parsed.count(None) == 0
        assert parsed[-1]["digest"] == "d1-again"


class TestMalformedRecords:
    """A record that parses but has the wrong shape is refused, typed.

    A kill leaves at most a torn final line; a well-formed line of the
    wrong shape came from somewhere else, so loading names the file, the
    line and the record kind instead of crashing.
    """

    @pytest.mark.parametrize(
        "record, kind",
        [
            (5, "untyped"),
            ({"kind": "admit", "stream": "k", "policy": "float64",
              "duration_s": 120.0, "window_s": 60.0}, "admit"),
            ({"kind": "admit", "stream": "k",
              "cell": protocol.encode_cell(CELL), "policy": "float64",
              "duration_s": "x", "window_s": 60.0}, "admit"),
            ({"kind": "window", "stream": KEY, "index": "x",
              "mode": "fresh"}, "window"),
        ],
        ids=["not-an-object", "admit-without-cell", "admit-bad-duration",
             "window-bad-index"],
    )
    def test_refused_naming_file_line_and_kind(self, tmp_path, record, kind):
        journal = make(tmp_path)
        journal.record_admit(KEY, CELL, "float64", 120.0, 60.0)
        path = session_path(tmp_path)
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ConfigurationError) as info:
            SessionJournal(path, FP, resume=True)
        message = str(info.value)
        assert str(path) in message
        assert "line 3" in message
        assert kind in message
        assert "point --out elsewhere" in message
