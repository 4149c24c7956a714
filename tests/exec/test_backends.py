"""Tests for the execution backends: parsing, equivalence, worker death."""

import io
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.exec import backends, protocol
from repro.exec import queue as queue_module
from repro.exec import (
    BACKEND_ENV,
    FAULT_PLAN_ENV,
    FaultEntry,
    FaultPlan,
    PolicySet,
    ProcessPoolBackend,
    QueueBackend,
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
from repro.reference import CASES, expected_digest, run_digest

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
    def test_subprocess_backend_matches_frozen_reference(self, monkeypatch):
        """The acceptance bit-identity check: the frozen smoke digests
        reproduce through the subprocess transport (serial and process
        are covered by tests/test_reference_digests.py and the sweep
        suite), whether the workers take their CPU share of BLAS threads
        or the caller sets a count of its own."""
        cells = CASES["smoke"].cells
        policies = PolicySet.active()
        for threads in (None, "3"):
            for name in backends.BLAS_THREAD_ENVS:
                if threads is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, threads)
            results = run_cells(cells, backend="subprocess:2")
            for cell, result in zip(cells, results):
                assert run_digest(result) == expected_digest(
                    "smoke", cell, policies
                ), (cell, threads)

    def test_worker_without_scipy_matches_frozen_reference(
        self, monkeypatch
    ):
        # The default geometry is a frozen table, so a worker in which
        # scipy cannot be imported still computes the frozen digest.
        worker = (
            "import runpy, sys; sys.modules['scipy'] = None; "
            "runpy.run_module('repro.exec.worker', run_name='__main__', "
            "alter_sys=True)"
        )
        monkeypatch.setenv(
            backends.WORKER_CMD_ENV, shlex.join([sys.executable, "-c", worker])
        )
        cell = SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 300.0
        )
        (result,) = run_cells([cell], backend="subprocess:1")
        assert run_digest(result) == expected_digest(
            "smoke", cell, PolicySet.active()
        )


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


class _FakeWorker:
    """A stand-in worker process that logs what the backend does to it.

    It exits ``exit_s`` clock seconds into the first wait after its
    shutdown message, or never (None) until it is killed.
    """

    def __init__(self, pid, log, clock, exit_s):
        self.pid, self.log, self.clock, self.exit_s = pid, log, clock, exit_s
        self.returncode = None
        self.stdin = self
        self.stdout = io.StringIO(protocol.encode_message(
            {"v": protocol.PROTOCOL_VERSION, "kind": "hello", "pid": pid}
        ) + "\n")

    def write(self, line):
        kind = protocol.decode_message(line)["kind"]
        self.log.append((kind, self.pid, self.clock.now))

    def flush(self):
        pass

    def close(self):
        pass

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        self.log.append(("wait", self.pid, timeout))
        if self.returncode is None:
            if self.exit_s is None or self.exit_s > timeout:
                self.clock.now += timeout
                raise subprocess.TimeoutExpired("worker", timeout)
            self.clock.now += self.exit_s
            self.returncode = 0
        return self.returncode

    def kill(self):
        self.log.append(("kill", self.pid, self.clock.now))
        self.returncode = -9


class TestShutdown:
    def close_workers(self, monkeypatch, *exit_s):
        """Close a backend whose workers exit after ``exit_s``; the log."""
        log, clock = [], SimpleNamespace(now=0.0)
        workers = iter(
            _FakeWorker(pid, log, clock, seconds)
            for pid, seconds in enumerate(exit_s)
        )
        monkeypatch.setattr(
            backends.subprocess, "Popen", lambda *a, **k: next(workers)
        )
        monkeypatch.setattr(
            backends, "time", SimpleNamespace(monotonic=lambda: clock.now)
        )
        backend = SubprocessWorkerBackend(len(exit_s))
        for slot in range(len(exit_s)):
            backend._spawn(slot)
        backend.close()
        return log

    def test_every_worker_is_told_before_the_first_wait(self, monkeypatch):
        grace = backends.SHUTDOWN_GRACE_S
        assert self.close_workers(monkeypatch, 0.5, 0.5) == [
            ("shutdown", 0, 0.0),
            ("shutdown", 1, 0.0),
            ("wait", 0, grace),
            ("wait", 1, grace - 0.5),
        ]

    def test_a_worker_ignoring_shutdown_is_killed_at_the_shared_deadline(
        self, monkeypatch
    ):
        grace = backends.SHUTDOWN_GRACE_S
        log = self.close_workers(monkeypatch, 3.0, None)
        assert log[:4] == [
            ("shutdown", 0, 0.0),
            ("shutdown", 1, 0.0),
            ("wait", 0, grace),
            ("wait", 1, grace - 3.0),
        ]
        assert ("kill", 1, grace) in log
        assert not [entry for entry in log if entry[:2] == ("kill", 0)]


class TestWorkerBlasThreads:
    @pytest.fixture
    def eight_cpus(self, monkeypatch):
        """A parent with 8 usable CPUs and neither BLAS variable set."""
        for name in backends.BLAS_THREAD_ENVS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: set(range(8)),
            raising=False,
        )

    @staticmethod
    def blas(env):
        return {name: env.get(name) for name in backends.BLAS_THREAD_ENVS}

    @pytest.mark.parametrize(
        "workers, share", [(1, "8"), (2, "4"), (3, "2"), (16, "1")]
    )
    def test_each_worker_gets_its_cpu_share(self, eight_cpus, workers, share):
        env = backends._worker_env(workers)
        assert self.blas(env) == dict.fromkeys(
            backends.BLAS_THREAD_ENVS, share
        )

    @pytest.mark.parametrize(
        "name, value", [("OPENBLAS_NUM_THREADS", "3"), ("OMP_NUM_THREADS", "5")]
    )
    def test_a_caller_setting_passes_through_alone(
        self, eight_cpus, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        env = backends._worker_env(2)
        assert self.blas(env) == self.blas(backends.os.environ)
        assert env[name] == value

    def test_a_blank_setting_sets_nothing(self, eight_cpus, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", " ")
        env = backends._worker_env(2)
        assert self.blas(env) == dict.fromkeys(backends.BLAS_THREAD_ENVS, "4")

    def test_the_rest_of_the_environment_is_inherited(
        self, eight_cpus, monkeypatch
    ):
        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        env = backends._worker_env(2)
        src = str(Path(backends.__file__).resolve().parents[2])
        assert env.pop("PYTHONPATH") == src + os.pathsep + "elsewhere"
        for name in backends.BLAS_THREAD_ENVS:
            env.pop(name)
        parent = dict(os.environ)
        parent.pop("PYTHONPATH")
        assert env == parent

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(backends.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(backends.os, "cpu_count", lambda: 6)
        assert backends.usable_cpus() == 6
        monkeypatch.setattr(backends.os, "cpu_count", lambda: None)
        assert backends.usable_cpus() == 1

    def test_subprocess_spawner_passes_its_worker_count(
        self, eight_cpus, monkeypatch
    ):
        envs, clock = [], SimpleNamespace(now=0.0)

        def popen(*args, env, **kwargs):
            envs.append(env)
            return _FakeWorker(len(envs), [], clock, 0.0)

        monkeypatch.setattr(backends.subprocess, "Popen", popen)
        backend = SubprocessWorkerBackend(3)
        backend._spawn(0)
        backend._spawn(1)
        backend.close()
        assert [self.blas(env) for env in envs] == 2 * [
            dict.fromkeys(backends.BLAS_THREAD_ENVS, "2")
        ]

    def test_queue_spawner_passes_its_worker_count(
        self, eight_cpus, monkeypatch, tmp_path
    ):
        envs = []

        def popen(command, env):
            envs.append(env)
            return SimpleNamespace(
                pid=-len(envs), poll=lambda: None, wait=lambda timeout: 0
            )

        monkeypatch.setattr(queue_module.subprocess, "Popen", popen)
        backend = QueueBackend(3, directory=tmp_path / "q")
        backend._maintain_workers()
        backend.close()
        assert [self.blas(env) for env in envs] == 3 * [
            dict.fromkeys(backends.BLAS_THREAD_ENVS, "2")
        ]


class TestPipes:
    # A stand-in worker: says hello, then exits at its first input line
    # (the shutdown message) or at EOF.
    HELLO = (
        "import json, os, sys\n"
        "print(json.dumps({'v': %d, 'kind': 'hello', 'pid': os.getpid()}),"
        " flush=True)\n"
        "sys.stdin.readline()\n"
    ) % protocol.PROTOCOL_VERSION

    def test_both_pipes_close_after_close_and_after_retire(self):
        backend = SubprocessWorkerBackend(
            3, command=[sys.executable, "-c", self.HELLO]
        )
        handles = [backend._spawn(slot) for slot in range(3)]
        backend._retire(2)
        backend.close()
        for handle in handles:
            assert handle.proc.poll() is not None
            assert handle.proc.stdin.closed and handle.proc.stdout.closed


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
