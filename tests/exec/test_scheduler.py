"""Tests for the retrying scheduler and the resume journal."""

import json
import time

import numpy as np
import pytest

from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.exec import (
    CellOutcome,
    Scheduler,
    ShardFailure,
    ShardQuarantined,
    ShardResult,
    SweepJournal,
    SystemCell,
    backoff_delay,
    cell_key,
    faults,
    make_shard_specs,
)
from repro.exec.faults import FaultEntry, FaultPlan, save_plan
from repro.numeric import use_policy
from repro.reference import run_digest
from repro.share.policy import CLUSTER, use_sharing


def tiny_result(seed: int = 0) -> RunResult:
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, 4.0, 0.5)
    return RunResult(
        system="OrinHigh-Ekya",
        scenario="S1",
        pair="resnet18_wrn50",
        times=times,
        correct=rng.random(len(times)) < 0.7,
        dropped=np.zeros(len(times), dtype=bool),
        phases=(PhaseRecord(PhaseKind.IDLE, 0.0, 4.0),),
        duration_s=4.0,
        energy_j=1.0,
        average_power_w=0.25,
    )


def specs_for(num_cells: int, jobs: int = 2):
    cells = [
        SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", seed, 60.0)
        for seed in range(num_cells)
    ]
    return make_shard_specs(cells, jobs)


class FlakyBackend:
    """Succeeds each shard only after ``failures_per_shard`` failures."""

    name = "process"  # not "serial": exercise the multi-process paths

    def __init__(self, failures_per_shard: int = 1) -> None:
        self.failures_per_shard = failures_per_shard
        self.attempts: dict[str, int] = {}
        self.excluded_seen: list[frozenset] = []

    def run(self, specs, excluded=frozenset()):
        self.excluded_seen.append(excluded)
        outcomes = []
        for spec in specs:
            count = self.attempts.get(spec.key, 0) + 1
            self.attempts[spec.key] = count
            if count <= self.failures_per_shard:
                outcomes.append(
                    ShardFailure(
                        "synthetic failure",
                        shard_key=spec.key,
                        worker=f"w{count}",
                    )
                )
            else:
                outcomes.append(
                    ShardResult(
                        key=spec.key,
                        outcomes=tuple(
                            CellOutcome(tiny_result(cell.seed))
                            for cell in spec.cells
                        ),
                    )
                )
        return outcomes

    def close(self):
        pass


class TestScheduler:
    def test_retries_until_success(self):
        backend = FlakyBackend(failures_per_shard=2)
        specs = specs_for(2)
        outcomes = Scheduler(backend, max_attempts=3).run(specs)
        assert all(isinstance(o, ShardResult) for o in outcomes)
        assert [o.key for o in outcomes] == [s.key for s in specs]
        assert all(n == 3 for n in backend.attempts.values())

    def test_raises_after_bounded_attempts(self):
        backend = FlakyBackend(failures_per_shard=99)
        with pytest.raises(ShardFailure) as excinfo:
            Scheduler(backend, max_attempts=2).run(specs_for(1))
        assert excinfo.value.attempts == 2
        assert all(n == 2 for n in backend.attempts.values())

    def test_failed_workers_are_excluded_on_retry(self):
        backend = FlakyBackend(failures_per_shard=1)
        Scheduler(backend, max_attempts=2).run(specs_for(1))
        first, second = backend.excluded_seen
        assert first == frozenset()
        assert second == frozenset({"w1"})

    def test_on_complete_fires_once_per_shard(self):
        backend = FlakyBackend(failures_per_shard=1)
        seen = []
        Scheduler(
            backend,
            max_attempts=3,
            on_complete=lambda spec, result: seen.append(spec.key),
        ).run(specs_for(3))
        assert sorted(seen) == sorted(s.key for s in specs_for(3))

    def test_on_complete_exception_aborts_immediately(self):
        backend = FlakyBackend(failures_per_shard=0)

        def abort(spec, result):
            raise ShardFailure("injected abort")

        with pytest.raises(ShardFailure, match="injected abort"):
            Scheduler(backend, on_complete=abort).run(specs_for(2))
        # The abort is not a retriable shard outcome: one attempt only.
        assert max(backend.attempts.values()) == 1

    def test_rejects_bad_max_attempts(self):
        with pytest.raises(ConfigurationError):
            Scheduler(FlakyBackend(), max_attempts=0)

    def test_rejects_bad_quarantine_after(self):
        with pytest.raises(ConfigurationError):
            Scheduler(FlakyBackend(), quarantine_after=0)

    def test_poison_shard_quarantined_naming_killers(self):
        # FlakyBackend blames a different worker each attempt, so two
        # failures = two distinct killers: quarantine fires before the
        # attempts budget is spent, and names both workers.
        backend = FlakyBackend(failures_per_shard=99)
        with pytest.raises(ShardQuarantined) as excinfo:
            Scheduler(
                backend,
                max_attempts=5,
                quarantine_after=2,
                backoff_base_s=0,
            ).run(specs_for(1))
        assert excinfo.value.retriable is False
        assert excinfo.value.attempts == 2
        assert "w1" in str(excinfo.value) and "w2" in str(excinfo.value)
        assert all(n == 2 for n in backend.attempts.values())

    def test_anonymous_workers_never_quarantine(self):
        # The process pool cannot name its workers; without killer
        # identities the attempts bound must govern alone.
        backend = FlakyBackend(failures_per_shard=99)
        backend_run = backend.run

        def anonymize(specs, excluded=frozenset()):
            outcomes = backend_run(specs, excluded)
            for outcome in outcomes:
                if isinstance(outcome, ShardFailure):
                    outcome.worker = None
            return outcomes

        backend.run = anonymize
        with pytest.raises(ShardFailure) as excinfo:
            Scheduler(
                backend,
                max_attempts=3,
                quarantine_after=2,
                backoff_base_s=0,
            ).run(specs_for(1))
        assert not isinstance(excinfo.value, ShardQuarantined)
        assert excinfo.value.attempts == 3

    def test_batch_successes_journal_before_fatal_raises(self):
        # The mid-batch journal-loss fix: a non-retriable failure in a
        # batch must not raise until the batch's successes have reached
        # on_complete -- otherwise --resume recomputes finished shards.
        specs = specs_for(3, jobs=3)
        poison_key = specs[1].key

        class MixedBackend:
            name = "process"

            def run(self, inner, excluded=frozenset()):
                return [
                    ShardFailure(
                        "deterministic cell bug",
                        shard_key=spec.key,
                        retriable=False,
                    )
                    if spec.key == poison_key
                    else ShardResult(
                        key=spec.key,
                        outcomes=tuple(
                            CellOutcome(tiny_result(c.seed))
                            for c in spec.cells
                        ),
                    )
                    for spec in inner
                ]

            def close(self):
                pass

        journaled = []
        with pytest.raises(ShardFailure, match="cell bug"):
            Scheduler(
                MixedBackend(),
                on_complete=lambda spec, result: journaled.append(
                    spec.key
                ),
            ).run(specs)
        assert sorted(journaled) == sorted(
            s.key for s in specs if s.key != poison_key
        )

    def test_retries_wait_out_the_backoff_window(self):
        backend = FlakyBackend(failures_per_shard=1)
        specs = specs_for(1)
        start = time.monotonic()
        Scheduler(backend, backoff_base_s=0.05, backoff_cap_s=1.0).run(
            specs
        )
        elapsed = time.monotonic() - start
        assert elapsed >= backoff_delay(specs[0].key, 1, 0.05, 1.0)


class TestBackoffDelay:
    def test_deterministic(self):
        assert backoff_delay("k", 1) == backoff_delay("k", 1)

    def test_jitter_decorrelates_shards(self):
        assert backoff_delay("k1", 1) != backoff_delay("k2", 1)

    def test_exponential_growth_with_bounded_jitter(self):
        base = 0.25
        for attempt in (1, 2, 3):
            delay = backoff_delay("k", attempt, base, cap_s=1e9)
            floor = base * 2 ** (attempt - 1)
            assert floor <= delay < 2 * floor

    def test_cap_bounds_the_wait(self):
        assert backoff_delay("k", 20, 0.25, 3.0) == 3.0

    def test_zero_base_disables_pacing(self):
        assert backoff_delay("k", 5, 0.0) == 0.0

    def test_missing_outcome_is_a_failure_not_a_success(self):
        # A backend bug (dispatch thread dying, misaligned outcome list)
        # must never be journaled as a completed shard.
        class BrokenBackend:
            name = "process"

            def run(self, specs, excluded=frozenset()):
                return [None for _ in specs]

            def close(self):
                pass

        with pytest.raises(ShardFailure, match="no outcome"):
            Scheduler(BrokenBackend(), max_attempts=2).run(specs_for(1))


class TestMakeShardSpecs:
    def test_specs_carry_context_and_indices(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        cells = [
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, 60.0),
            SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 60.0),
            SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 0, 60.0),
        ]
        with use_sharing(CLUSTER):
            specs = make_shard_specs(
                cells, 2, profile=True, cache_root="/tmp/somewhere"
            )
        assert all(spec.policies.sharing is CLUSTER for spec in specs)
        assert all(spec.profile for spec in specs)
        assert all(spec.cache_root == "/tmp/somewhere" for spec in specs)
        covered = sorted(i for spec in specs for i in spec.indices)
        assert covered == [0, 1, 2]

    def test_keys_are_content_stable(self):
        first = specs_for(3, jobs=1)
        again = specs_for(3, jobs=1)
        assert [s.key for s in first] == [s.key for s in again]


#: The plan :meth:`TestSweepJournal.entry` journals into: its one cell.
PLAN = [
    cell_key(
        "float64",
        SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", 0, 60.0),
    )
]


class TestSweepJournal:
    def entry(self, seed=0):
        cell = SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S1", seed, 60.0)
        with use_policy("float64"):
            spec = make_shard_specs([cell], 1)[0]
        result = ShardResult(
            key=spec.key, outcomes=(CellOutcome(tiny_result(seed)),)
        )
        return cell, spec, result

    def test_record_and_resume_round_trip(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path, "fp1", PLAN)
        cell, spec, result = self.entry()
        journal.record(spec, result)

        resumed = SweepJournal(path, "fp1", PLAN, resume=True)
        key = cell_key("float64", cell)
        assert len(resumed) == 1
        restored = resumed.lookup(key)
        assert restored is not None
        assert run_digest(restored) == run_digest(result.results[0])
        assert resumed.lookup("missing") is None

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        SweepJournal(path, "fp1", PLAN)
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepJournal(path, "fp2", PLAN, resume=True)

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        path.write_text("just some text\n")
        with pytest.raises(ConfigurationError):
            SweepJournal(path, "fp1", PLAN, resume=True)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path, "fp1", PLAN)
        cell, spec, result = self.entry()
        journal.record(spec, result)
        with path.open("a") as handle:
            handle.write('{"kind":"shard","entr')  # killed mid-write
        resumed = SweepJournal(path, "fp1", PLAN, resume=True)
        assert len(resumed) == 1

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path, "fp1", PLAN)
        _, spec, result = self.entry()
        journal.record(spec, result)
        fresh = SweepJournal(path, "fp1", PLAN)  # no resume: a new run
        assert len(fresh) == 0
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_header_is_versioned(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        SweepJournal(path, "fp1", PLAN)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["fingerprint"] == "fp1"
        assert isinstance(header["version"], int)

    def test_header_lands_atomically(self, tmp_path):
        # Crash-safe creation: the header arrives by temp-file + rename,
        # so no .tmp sibling may survive a successful open.
        path = tmp_path / "sweep.journal.jsonl"
        SweepJournal(path, "fp1", PLAN)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_injected_torn_write_survives_resume(
        self, tmp_path, monkeypatch
    ):
        # The torn-journal-write fault: record() flushes a prefix of the
        # line and "dies"; the next --resume must shrug off the torn
        # tail, and re-recording the shard must complete the journal.
        plan = save_plan(
            FaultPlan((FaultEntry("torn-journal-write"),), seed=9),
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(plan))
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path, "fp1", PLAN)
        cell, spec, result = self.entry()
        with pytest.raises(ShardFailure, match="torn journal"):
            journal.record(spec, result)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + the torn prefix
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[1])
        resumed = SweepJournal(path, "fp1", PLAN, resume=True)
        assert len(resumed) == 0  # the torn shard simply reruns
        resumed.record(spec, result)  # fault disarmed: completes now
        again = SweepJournal(path, "fp1", PLAN, resume=True)
        assert again.lookup(cell_key("float64", cell)) is not None


class TestSweepJournalMalformedRecords:
    """A record that parses but has the wrong shape is refused, typed.

    Only a torn final line can come from a kill; any other misshapen line
    names the file, the line and the record kind, and exits 2 from the CLI
    like a fingerprint mismatch does.
    """

    @pytest.mark.parametrize(
        "record, kind",
        [
            (5, "untyped"),
            ({"kind": "shard", "shard": "s", "entries": 5}, "shard"),
            ({"kind": "shard", "shard": "s", "entries": ["k"]}, "shard"),
            ({"kind": "shard", "shard": "s",
              "entries": [{"key": "k", "result": {"system": "x"}}]},
             "shard"),
        ],
        ids=["not-an-object", "entries-not-a-list", "entry-a-string",
             "result-undecodable"],
    )
    def test_refused_naming_file_line_and_kind(self, tmp_path, record, kind):
        path = tmp_path / "sweep.journal.jsonl"
        SweepJournal(path, "fp1", ["k"])
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ConfigurationError) as info:
            SweepJournal(path, "fp1", ["k"], resume=True)
        message = str(info.value)
        assert str(path) in message
        assert "line 2" in message
        assert kind in message
        assert "rerun without --resume" in message
