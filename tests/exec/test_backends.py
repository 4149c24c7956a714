"""Tests for the execution backends: parsing, equivalence, worker death."""

import json
import sys

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BACKEND_ENV,
    FAULT_PLAN_ENV,
    FaultEntry,
    FaultPlan,
    ProcessPoolBackend,
    SerialBackend,
    ShardFailure,
    SubprocessWorkerBackend,
    SystemCell,
    active_backend_spec,
    make_backend,
    parse_backend,
    run_cells,
    save_plan,
    use_backend,
)
from repro.exec.faults import tokens_dir
from repro.numeric import active_policy
from repro.reference import reference_path, run_digest

DURATION = 60.0

CELLS = [
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, DURATION),
    SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 0, DURATION),
    SystemCell("OrinHigh-EOMU", "resnet18_wrn50", "S1", 0, DURATION),
]


class TestParseBackend:
    def test_kinds(self):
        assert parse_backend("serial") == ("serial", None)
        assert parse_backend("process") == ("process", None)
        assert parse_backend("subprocess") == ("subprocess", None)
        assert parse_backend("process:4") == ("process", 4)
        assert parse_backend("SUBPROCESS:2") == ("subprocess", 2)

    @pytest.mark.parametrize(
        "spec",
        ["", "threads", "process:x", "process:0", "process:-1", "serial:2"],
    )
    def test_rejects_garbage(self, spec):
        with pytest.raises(ConfigurationError):
            parse_backend(spec)

    def test_make_backend_fills_default_workers(self):
        backend = make_backend("process", default_workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        backend = make_backend("subprocess:2", default_workers=5)
        assert isinstance(backend, SubprocessWorkerBackend)
        assert backend.workers == 2
        assert isinstance(make_backend("serial"), SerialBackend)


class TestAmbientSelection:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert active_backend_spec() is None

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "subprocess:2")
        assert active_backend_spec() == "subprocess:2"

    def test_env_garbage_fails_fast(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "quantum")
        with pytest.raises(ConfigurationError):
            active_backend_spec()

    def test_use_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process:4")
        with use_backend("serial"):
            assert active_backend_spec() == "serial"
        assert active_backend_spec() == "process:4"

    def test_use_backend_validates(self):
        with pytest.raises(ConfigurationError):
            with use_backend("warp"):
                pass


class TestBackendEquivalence:
    def test_explicit_serial_backend(self):
        serial = run_cells(CELLS, jobs=1)
        explicit = run_cells(CELLS, jobs=4, backend="serial")
        assert [run_digest(a) for a in serial] == [
            run_digest(b) for b in explicit
        ]

    def test_subprocess_matches_serial(self):
        serial = run_cells(CELLS, jobs=1)
        dispatched = run_cells(CELLS, backend="subprocess:2")
        assert [run_digest(a) for a in serial] == [
            run_digest(b) for b in dispatched
        ]

    def test_ambient_backend_reaches_run_cells(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        # jobs=4 would normally select the pool; the env forces serial.
        results = run_cells(CELLS[:2], jobs=4)
        expected = run_cells(CELLS[:2], jobs=1)
        assert [run_digest(a) for a in results] == [
            run_digest(b) for b in expected
        ]


class TestSmokeGridDigests:
    def test_subprocess_backend_matches_frozen_reference(self):
        """The acceptance bit-identity check: the frozen smoke digests
        reproduce through the subprocess transport (serial and process
        are covered by tests/test_reference_digests.py and the sweep
        suite)."""
        policy = active_policy()
        reference = json.loads(
            reference_path(policy.name).read_text()
        )["smoke"]
        cells = [
            SystemCell(system, "resnet18_wrn50", "S4", 0, 300.0)
            for system in (
                "OrinLow-Ekya", "OrinHigh-Ekya", "OrinHigh-EOMU",
                "DaCapo-Ekya", "DaCapo-Spatial", "DaCapo-Spatiotemporal",
            )
        ]
        results = run_cells(cells, backend="subprocess:2")
        for cell, result in zip(cells, results):
            key = (
                f"{cell.system}|{cell.pair}|{cell.scenario}"
                f"|seed{cell.seed}|{cell.duration_s:g}s"
            )
            assert reference[key]["digest"] == run_digest(result), key


def arm_one_death(tmp_path, monkeypatch):
    """Arm a one-entry ``die-once`` plan; returns its token directory."""
    plan = save_plan(
        FaultPlan((FaultEntry("die-once"),)), tmp_path / "die.json"
    )
    monkeypatch.setenv(FAULT_PLAN_ENV, str(plan))
    return tokens_dir(plan)


class TestWorkerDeath:
    def test_subprocess_worker_death_retries_identically(
        self, tmp_path, monkeypatch
    ):
        tokens = arm_one_death(tmp_path, monkeypatch)
        dispatched = run_cells(CELLS, backend="subprocess:2")
        # Exactly one worker claimed the token and died.
        assert not any(tokens.iterdir())
        monkeypatch.delenv(FAULT_PLAN_ENV)
        serial = run_cells(CELLS, jobs=1)
        assert [run_digest(a) for a in dispatched] == [
            run_digest(b) for b in serial
        ]

    def test_pool_worker_death_is_not_a_raw_broken_pool(
        self, tmp_path, monkeypatch
    ):
        # The satellite fix: a dying pool worker used to surface as an
        # opaque BrokenProcessPool traceback; now the scheduler retries
        # on a fresh pool and the results stay identical.
        tokens = arm_one_death(tmp_path, monkeypatch)
        dispatched = run_cells(CELLS, jobs=2, backend="process:2")
        assert not any(tokens.iterdir())
        monkeypatch.delenv(FAULT_PLAN_ENV)
        serial = run_cells(CELLS, jobs=1)
        assert [run_digest(a) for a in dispatched] == [
            run_digest(b) for b in serial
        ]

    def test_persistent_death_raises_typed_failure_naming_cells(self):
        broken = SubprocessWorkerBackend(
            1,
            command=[sys.executable, "-c", "raise SystemExit(1)"],
            max_respawns=1,
        )
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_cells(CELLS[:1], backend=broken)
        finally:
            broken.close()
        message = str(excinfo.value)
        assert "DaCapo-Spatiotemporal" in message  # the shard's cells
        assert "attempts" in message

    def test_cell_exception_fails_fast_without_killing_the_worker(self):
        # A deterministic in-cell error is not a transport fault: the
        # healthy worker replies with an error message, the scheduler
        # surfaces it immediately (no retries), and the same backend
        # keeps serving good shards afterwards.
        backend = SubprocessWorkerBackend(1)
        bad = SystemCell("NoSuchSystem", "resnet18_wrn50", "S1", 0, DURATION)
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_cells([bad], backend=backend)
            assert excinfo.value.retriable is False
            assert excinfo.value.attempts == 1
            assert "NoSuchSystem" in str(excinfo.value)
            good = run_cells(CELLS[:1], backend=backend)
        finally:
            backend.close()
        assert run_digest(good[0]) == run_digest(
            run_cells(CELLS[:1], jobs=1)[0]
        )

    def test_hung_worker_is_killed_at_the_shard_deadline(self):
        # A worker that goes silent (wedged ssh channel) must not hang
        # the sweep: the watchdog kills it at the deadline, converting
        # the hang into the worker-death failure the scheduler retries.
        hung = SubprocessWorkerBackend(
            1,
            command=[sys.executable, "-c", "import time; time.sleep(600)"],
            max_respawns=0,
            shard_timeout_s=0.5,
        )
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_cells(CELLS[:1], backend=hung)
        finally:
            hung.close()
        # The run terminated (no hang) with a typed failure naming the
        # cells -- first the handshake deadline fired, then the spent
        # respawn budget reported the slot dead.
        assert "DaCapo-Spatiotemporal" in str(excinfo.value)

    def test_hang_mid_shard_is_killed_and_retried_identically(
        self, tmp_path, monkeypatch
    ):
        # A worker that wedges after claiming a shard: the watchdog kills
        # it at the shard deadline and the shard reruns on a respawned
        # worker, with the serial digests.
        plan = save_plan(FaultPlan((FaultEntry("hang"),)), tmp_path / "h.json")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan))
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "3")
        dispatched = run_cells(CELLS, backend="subprocess:2")
        assert not any(tokens_dir(plan).iterdir())
        monkeypatch.delenv(FAULT_PLAN_ENV)
        serial = run_cells(CELLS, jobs=1)
        assert [run_digest(a) for a in dispatched] == [
            run_digest(b) for b in serial
        ]

    def test_banner_on_stdout_is_a_typed_handshake_failure(self):
        # The ssh failure mode: a MOTD/banner line reaches the protocol
        # channel before (instead of) the hello.  Must surface as a
        # ShardFailure naming the cells -- never a crashed dispatch
        # thread recorded as a completed shard.
        chatty = SubprocessWorkerBackend(
            1,
            command=[
                sys.executable, "-c",
                "print('Welcome to edge-host!'); "
                "import time; time.sleep(60)",
            ],
            max_respawns=0,
            shard_timeout_s=5.0,
        )
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_cells(CELLS[:1], backend=chatty)
        finally:
            chatty.close()
        assert "DaCapo-Spatiotemporal" in str(excinfo.value)

    def test_shard_timeout_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "eventually")
        with pytest.raises(ConfigurationError, match="REPRO_SHARD_TIMEOUT"):
            SubprocessWorkerBackend(1)
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "120")
        assert SubprocessWorkerBackend(1).shard_timeout_s == 120.0

    def test_cell_exception_in_pool_reraises_the_original(self):
        # The pool has the original exception object in-process, so the
        # error contract matches the serial path at any worker count:
        # same type, with the shard context chained as the cause.
        bad = SystemCell("NoSuchSystem", "resnet18_wrn50", "S1", 0, DURATION)
        with pytest.raises(ConfigurationError) as excinfo:
            run_cells([bad, CELLS[0]], jobs=2, backend="process:2")
        assert isinstance(excinfo.value.__cause__, ShardFailure)
        assert excinfo.value.__cause__.retriable is False

    def test_shard_failure_collects_context(self):
        failure = ShardFailure(
            "boom",
            shard_key="k",
            cells=("a/b/c",),
            worker="w0:pid1",
            cause="EOF",
        )
        final = failure.with_attempts(3)
        assert final.attempts == 3
        assert "a/b/c" in str(final)
        assert "w0:pid1" in str(final)
        assert "EOF" in str(final)
        assert "attempts: 3" in str(final)


class TestWorkerExclusion:
    def test_excluded_subprocess_worker_is_retired_and_replaced(self):
        # The scheduler's exclusion contract, observed at the transport:
        # a worker named in ``excluded`` is killed before the batch runs,
        # and the retried shard is served by a fresh replacement -- never
        # by the excluded worker.
        from repro.exec import make_shard_specs

        backend = SubprocessWorkerBackend(1)
        specs = make_shard_specs(CELLS[:1], 1)
        try:
            [first] = backend.run(specs)
            (old,) = backend._handles.values()
            old_id, old_proc = old.id, old.proc
            [second] = backend.run(
                specs, excluded=frozenset({old_id})
            )
            (replacement,) = backend._handles.values()
        finally:
            backend.close()
        assert old_proc.poll() is not None  # retired worker is dead
        assert replacement.id != old_id
        assert run_digest(first.results[0]) == run_digest(
            second.results[0]
        )
