"""The journal file rule, for both journals: a kill may leave only a torn
last line, resume cuts it, and any other damaged line is refused --
including one that parses but names a record kind, a cell, a stream or a
window the journal never wrote.

Each journal is written once with small synthetic records, then a copy is
cut at every byte offset after its header, which is every state a kill
mid-append can leave.  Resuming a cut copy must replay exactly the records
whose lines end at or before the cut, and the next append must leave a
file in which every line parses.
"""

import json

import numpy as np
import pytest

from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.exec import CellOutcome, ShardResult, SweepJournal, make_shard_specs
from repro.exec.shard import PolicySet, SystemCell, cell_key
from repro.journal import Journal, write_durable
from repro.numeric import FLOAT64, use_policy
from repro.service.session import SessionJournal, session_fingerprint

CELLS = [
    SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", seed, 60.0)
    for seed in range(2)
]
KEYS = [cell_key("float64", cell) for cell in CELLS]
#: The cell a resumed sweep journal appends next.
NEXT = SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 9, 60.0)
#: The sweep plan's keys: every cell journaled or appended below.
PLAN = [*KEYS, cell_key("float64", NEXT)]
SESSION_FP = session_fingerprint(PolicySet(FLOAT64), 60.0)


def tiny_result(seed: int) -> RunResult:
    times = np.arange(0.0, 2.0, 0.5)
    return RunResult(
        system="OrinHigh-Ekya",
        scenario="S1",
        pair="resnet18_wrn50",
        times=times,
        correct=np.arange(len(times)) % (seed + 2) == 0,
        dropped=np.zeros(len(times), dtype=bool),
        phases=(PhaseRecord(PhaseKind.IDLE, 0.0, 2.0),),
        duration_s=2.0,
        energy_j=1.0,
        average_power_w=0.5,
    )


def sweep_state(journal: SweepJournal) -> tuple:
    return tuple(journal.lookup(key) is not None for key in KEYS)


def write_sweep(path) -> list:
    """A header and two shard records; the state after each line."""
    journal = SweepJournal(path, "fp", PLAN)
    states = [sweep_state(journal)]
    for seed, cell in enumerate(CELLS):
        with use_policy("float64"):
            spec = make_shard_specs([cell], 1)[0]
        outcome = CellOutcome(tiny_result(seed))
        journal.record(spec, ShardResult(key=spec.key, outcomes=(outcome,)))
        states.append(sweep_state(journal))
    return states


def resume_sweep(path) -> SweepJournal:
    return SweepJournal(path, "fp", PLAN, resume=True)


def append_sweep(journal: SweepJournal) -> None:
    with use_policy("float64"):
        spec = make_shard_specs([NEXT], 1)[0]
    outcome = CellOutcome(tiny_result(9))
    journal.record(spec, ShardResult(key=spec.key, outcomes=(outcome,)))


def session_state(journal: SessionJournal) -> tuple:
    stream = journal.streams.get(KEYS[0])
    return (
        stream is not None,
        stream.snapshot_index if stream else None,
        sorted(stream.windows) if stream else None,
        sorted(journal.clusters),
        stream.retired if stream else None,
    )


def write_session(path) -> list:
    """A header plus admit, snapshot, window, cluster and retire records;
    the state after each line."""
    journal = SessionJournal(path, SESSION_FP)
    states = [session_state(journal)]
    steps = (
        lambda: journal.record_admit(KEYS[0], CELLS[0], "float64", 120.0,
                                     60.0),
        lambda: journal.record_snapshot(KEYS[0], 1, {"v": 1, "pad": "x"}),
        lambda: journal.record_window(KEYS[0], 1, "fresh", digest="d1",
                                      accuracy=0.5, frames=30),
        lambda: journal.record_cluster("c0", {"v": 1, "weights": [1, 2]}),
        lambda: journal.record_retire(KEYS[0], "complete"),
    )
    for step in steps:
        step()
        states.append(session_state(journal))
    return states


def resume_session(path) -> SessionJournal:
    return SessionJournal(path, SESSION_FP, resume=True)


def append_session(journal: SessionJournal) -> None:
    journal.record_event("after-cut")


JOURNALS = {
    "sweep": (write_sweep, resume_sweep, sweep_state, append_sweep),
    "session": (write_session, resume_session, session_state,
                append_session),
}


def line_ends(data: bytes) -> list[int]:
    """The offset just past each line's newline."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


@pytest.mark.parametrize("name", sorted(JOURNALS))
class TestEveryCut:
    def test_resume_replays_the_complete_lines_and_appends_cleanly(
        self, tmp_path, name
    ):
        write, resume, state, append = JOURNALS[name]
        original = tmp_path / "original.jsonl"
        states = write(original)
        data = original.read_bytes()
        ends = line_ends(data)
        assert len(ends) == len(states)  # header + one line per record
        assert len(data) < 2048
        path = tmp_path / "cut.jsonl"
        for cut in range(ends[0], len(data) + 1):
            path.write_bytes(data[:cut])
            complete = sum(end <= cut for end in ends) - 1
            journal = resume(path)
            assert state(journal) == states[complete], cut
            assert path.read_bytes() == data[: ends[complete]], cut
            append(journal)
            lines = path.read_bytes().split(b"\n")
            assert lines[-1] == b"", cut
            for line in lines[:-1]:
                json.loads(line)
            assert len(lines) - 1 == complete + 2, cut

    def test_a_damaged_complete_line_is_refused_naming_it(
        self, tmp_path, name
    ):
        write, resume, _, _ = JOURNALS[name]
        original = tmp_path / "original.jsonl"
        write(original)
        lines = original.read_bytes().split(b"\n")[:-1]
        path = tmp_path / "broken.jsonl"
        for index in range(1, len(lines)):
            broken = list(lines)
            assert broken[index].endswith(b"}")
            broken[index] = broken[index][:-1]
            path.write_bytes(b"\n".join(broken) + b"\n")
            with pytest.raises(ConfigurationError) as info:
                resume(path)
            message = str(info.value)
            assert f"{path} line {index + 1}:" in message
            assert "elsewhere" in message
            # A refused journal is left as it was.
            assert path.read_bytes() == b"\n".join(broken) + b"\n"


class TestNamedDamage:
    """A line that parses but names a record kind, a cell, a stream or a
    window the journal never wrote cannot come from a kill either, so it
    is refused too."""

    @pytest.mark.parametrize(
        "name, index, old, new, refused, reason",
        [
            ("sweep", 1, b'"kind":"shard"', b'"kind":"shart"', 2,
             "unknown record kind 'shart'"),
            ("sweep", 2, b'"entries":', b'"entrees":', 3,
             "KeyError: 'entries'"),
            # The entry's seed: a cell the resumed plan does not hold.
            ("sweep", 1, b"/s0/", b"/s7/", 2, "is not in the plan"),
            # One hex digit of the admitted stream's key: the snapshot
            # on the next line names a stream that was never admitted.
            ("session", 1, b"0x1.e", b"0x1.f", 3, "was never admitted"),
            ("session", 4, b'"kind":"cluster"', b'"kind":"clusters"', 5,
             "unknown record kind 'clusters'"),
            # The stream has two windows, 0 and 1.
            ("session", 3, b'"index":1', b'"index":7', 4,
             "window index 7 is outside the stream's 2 windows"),
        ],
        ids=["sweep-kind", "sweep-entries", "sweep-foreign-key",
             "session-admit-key", "session-kind", "session-window-index"],
    )
    def test_refused_naming_the_line(
        self, tmp_path, name, index, old, new, refused, reason
    ):
        write, resume, _, _ = JOURNALS[name]
        path = tmp_path / "damaged.jsonl"
        write(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[index].count(old) == 1
        lines[index] = lines[index].replace(old, new)
        damaged = b"\n".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(ConfigurationError) as info:
            resume(path)
        message = str(info.value)
        assert f"{path} line {refused}:" in message
        assert reason in message
        assert path.read_bytes() == damaged


class TestJournal:
    def journal(self, tmp_path, fingerprint="fp"):
        return Journal(
            tmp_path / "j.jsonl", "test", 1, fingerprint,
            mismatch="belongs to another test", remedy="start over",
        )

    def test_refusals_follow_one_template(self, tmp_path):
        journal = self.journal(tmp_path)
        journal.path.write_bytes(b"")
        with pytest.raises(ConfigurationError, match=(
            r"^test journal .*j\.jsonl is empty; start over$"
        )):
            journal.open(lambda record: None, resume=True)
        assert not journal.open(lambda record: None, resume=False)
        with pytest.raises(ConfigurationError, match=(
            r"^test journal .*j\.jsonl belongs to another test; start over$"
        )):
            self.journal(tmp_path, "other").open(
                lambda record: None, resume=True
            )

    @pytest.mark.parametrize(
        "head", [b"[1, 2]\n", b'{"kind": "header", "version": 1', b"\xff\n"],
        ids=["not-an-object", "torn-header", "not-utf8"],
    )
    def test_a_bad_header_is_not_a_journal(self, tmp_path, head):
        journal = self.journal(tmp_path)
        journal.path.write_bytes(head)
        with pytest.raises(ConfigurationError, match="not a version-1"):
            journal.open(lambda record: None, resume=True)

    def test_a_blank_line_is_refused(self, tmp_path):
        journal = self.journal(tmp_path)
        journal.open(lambda record: None, resume=False)
        journal.append({"kind": "a"})
        with journal.path.open("ab") as handle:
            handle.write(b"\n")
        journal.append({"kind": "b"})
        with pytest.raises(ConfigurationError, match="line 3: malformed"):
            journal.open(lambda record: None, resume=True)

    def test_rewrite_streams_records_and_leaves_no_temp_file(self, tmp_path):
        journal = self.journal(tmp_path)
        journal.open(lambda record: None, resume=False)
        journal.rewrite(iter([{"kind": "a", "n": 1}, {"kind": "b"}]))
        seen = []
        assert journal.open(seen.append, resume=True)
        assert seen == [{"kind": "a", "n": 1}, {"kind": "b"}]
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]

    def test_write_durable_replaces_whole_files(self, tmp_path):
        path = tmp_path / "control.port"
        write_durable(path, lambda handle: handle.write(b"1234\n"))
        write_durable(path, lambda handle: handle.write(b"5678\n"))
        assert path.read_bytes() == b"5678\n"

        def killed(handle):
            handle.write(b"12")
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            write_durable(path, killed)
        assert path.read_bytes() == b"5678\n"
        assert [p.name for p in tmp_path.iterdir()] == ["control.port"]
