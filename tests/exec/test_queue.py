"""Tests for the pull-model queue backend: claims, leases, reclaim, faults."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    DEFAULT_LEASE_TTL_S,
    PolicySet,
    QueueBackend,
    Scheduler,
    ShardFailure,
    ShardResult,
    SubprocessWorkerBackend,
    SystemCell,
    execute_cells,
    faults,
    make_backend,
    make_shard_specs,
    parse_backend,
    protocol,
    run_cells,
    use_backend,
)
from repro.exec.queue import DEFAULT_POLL_S, QueueLayout
from repro.exec.worker import queue_worker_main
from repro.learn.cache import CACHE_ENV
from repro.reference import expected_digest, run_digest

DURATION = 60.0

CELLS = [
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, DURATION),
    SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 0, DURATION),
    SystemCell("OrinHigh-EOMU", "resnet18_wrn50", "S1", 0, DURATION),
]


@pytest.fixture(scope="module")
def serial_digests():
    return [run_digest(r) for r in run_cells(CELLS, jobs=1)]


class TestParseAndMake:
    def test_queue_spec_parses(self):
        assert parse_backend("queue") == ("queue", None)
        assert parse_backend("queue:3") == ("queue", 3)

    def test_make_backend_builds_queue(self, tmp_path):
        backend = make_backend(
            "queue:2", queue_dir=str(tmp_path / "q")
        )
        try:
            assert isinstance(backend, QueueBackend)
            assert backend.workers == 2
            assert backend.layout.root == tmp_path / "q"
            assert backend.layout.pending.is_dir()
        finally:
            backend.close()
        # A pinned directory is the caller's: close() must not remove it.
        assert (tmp_path / "q").is_dir()

    def test_owned_temp_directory_removed_on_close(self):
        backend = QueueBackend(1)
        root = backend.layout.root
        assert root.is_dir()
        backend.close()
        assert not root.exists()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            QueueBackend(0)

    def test_worker_refuses_a_non_queue_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            queue_worker_main(tmp_path / "not-a-queue", drain=True)


#: The duration variables a queue backend reads, each with the attribute
#: it sets and that attribute's default.
DURATION_VARIABLES = {
    "REPRO_LEASE_TTL": ("lease_ttl_s", DEFAULT_LEASE_TTL_S),
    "REPRO_QUEUE_POLL": ("poll_s", DEFAULT_POLL_S),
    "REPRO_SHARD_TIMEOUT": ("shard_timeout_s", None),
}


class TestDurationVariables:
    """Only a finite number of seconds above 0 is a duration.

    A NaN lease TTL never expires and spins the heartbeat, an infinite
    one overflows the heartbeat's timed wait, a NaN poll interval breaks
    ``time.sleep``, and a NaN shard timeout fires the watchdog at once.
    """

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1", "abc"])
    @pytest.mark.parametrize("name", sorted(DURATION_VARIABLES))
    def test_garbage_is_refused_naming_the_variable(
        self, name, raw, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigurationError, match=name):
            QueueBackend(1, directory=tmp_path / "q", spawn=False)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_subprocess_timeout_refuses_non_finite(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", raw)
        with pytest.raises(ConfigurationError, match="REPRO_SHARD_TIMEOUT"):
            SubprocessWorkerBackend(1)

    @pytest.mark.parametrize("raw", ["", "   "])
    @pytest.mark.parametrize("name", sorted(DURATION_VARIABLES))
    def test_blank_means_the_default(self, name, raw, tmp_path, monkeypatch):
        monkeypatch.setenv(name, raw)
        backend = QueueBackend(1, directory=tmp_path / "q", spawn=False)
        try:
            attribute, default = DURATION_VARIABLES[name]
            assert getattr(backend, attribute) == default
        finally:
            backend.close()


class TestQueueExecution:
    def test_bit_identical_to_serial(self, serial_digests):
        with use_backend("queue:2"):
            results = run_cells(CELLS, jobs=2)
        assert [run_digest(r) for r in results] == serial_digests

    def test_equal_keys_in_one_batch_each_get_the_outcome(self, tmp_path):
        # Two one-cell shards with one content key share a message file;
        # every position holding the key must still get an outcome.  Run
        # in a child so a hang fails on the timeout instead of wedging.
        script = (
            "from repro.exec import SystemCell, run_cells\n"
            "from repro.reference import run_digest\n"
            "c = SystemCell('DaCapo-Ekya', 'resnet18_wrn50', 'S1', 0, 10.0)\n"
            "for r in run_cells([c, c], jobs=2, backend='queue:2'):\n"
            "    print(run_digest(r))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        cell = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 10.0)
        serial = run_digest(run_cells([cell], jobs=1)[0])
        assert result.stdout.split() == [serial, serial]

    def test_die_once_is_retried_and_killer_banned(
        self, serial_digests, tmp_path, monkeypatch
    ):
        plan = faults.save_plan(
            faults.FaultPlan((faults.FaultEntry("die-once"),), seed=5),
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(plan))
        backend = QueueBackend(2, directory=tmp_path / "q")
        try:
            results = execute_cells(CELLS, backend=backend, workers=2)
        finally:
            backend.close()
        assert [run_digest(r) for r in results] == serial_digests
        assert not list(faults.tokens_dir(plan).iterdir())
        # The scheduler excluded the dead worker; the backend banned it.
        assert len(list((tmp_path / "q" / "banned").iterdir())) == 1

    def test_hang_reclaimed_by_lease_expiry(
        self, serial_digests, tmp_path, monkeypatch
    ):
        plan = faults.save_plan(
            faults.FaultPlan((faults.FaultEntry("hang"),), seed=5),
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(plan))
        # The hung worker never heartbeats: its lease's mtime stays at
        # the claim instant, the TTL expires, and the shard is reclaimed
        # and re-enqueued for a surviving worker -- the acceptance path.
        backend = QueueBackend(
            2, directory=tmp_path / "q", lease_ttl_s=2.0
        )
        try:
            results = execute_cells(CELLS, backend=backend, workers=2)
        finally:
            backend.close()
        assert [run_digest(r) for r in results] == serial_digests
        assert not list(faults.tokens_dir(plan).iterdir())
        assert len(list((tmp_path / "q" / "banned").iterdir())) == 1

    def test_corrupt_reply_rejected_and_recomputed(
        self, serial_digests, tmp_path, monkeypatch
    ):
        plan = faults.save_plan(
            faults.FaultPlan(
                (faults.FaultEntry("corrupt-result"),), seed=5
            ),
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(plan))
        backend = QueueBackend(2, directory=tmp_path / "q")
        try:
            results = execute_cells(CELLS, backend=backend, workers=2)
        finally:
            backend.close()
        assert [run_digest(r) for r in results] == serial_digests
        assert not list(faults.tokens_dir(plan).iterdir())

    def test_in_cell_error_is_non_retriable(self):
        backend = QueueBackend(1)
        try:
            with pytest.raises(ShardFailure) as excinfo:
                execute_cells(
                    [
                        SystemCell(
                            "NoSuchSystem",
                            "resnet18_wrn50",
                            "S1",
                            0,
                            DURATION,
                        )
                    ],
                    backend=backend,
                    workers=1,
                )
        finally:
            backend.close()
        assert not excinfo.value.retriable
        assert excinfo.value.attempts == 1

    @pytest.mark.parametrize(
        "field, value",
        [("results", 5), ("results", ["x"]), ("outcomes", "abc"),
         ("wall_s", "slow")],
    )
    def test_mis_shaped_result_is_a_retriable_failure(
        self, tmp_path, field, value
    ):
        """A result file that parses but has the wrong shape is a corrupt
        reply: a retriable failure, never a raw exception."""
        backend = QueueBackend(1, directory=tmp_path / "q", spawn=False)
        try:
            spec, = make_shard_specs(CELLS[:1], 1)
            message = protocol.encode_shard_result(
                ShardResult(key=spec.key, outcomes=())
            )
            message[field] = value
            path = backend.layout.results / backend.layout.message_name(
                spec.key
            )
            protocol.write_message_file(path, message)
            outcome = backend._collect(spec, {})
            assert isinstance(outcome, ShardFailure)
            assert outcome.retriable
            assert outcome.message == "worker result payload undecodable"
            assert not path.exists()
        finally:
            backend.close()


class TestPullModel:
    def test_external_drain_worker_serves_a_prefilled_queue(
        self, tmp_path, serial_digests
    ):
        """Any process can attach: pre-fill a queue, drain it, read results."""
        layout = QueueLayout(tmp_path / "q").create(
            lease_ttl_s=30.0, poll_s=0.05
        )
        specs = make_shard_specs(CELLS, 1)
        for spec in specs:
            protocol.write_message_file(
                layout.pending / layout.message_name(spec.key),
                protocol.encode_shard_request(spec),
            )
        assert queue_worker_main(layout.root, drain=True) == 0
        assert not list(layout.pending.iterdir())
        ordered = {}
        for spec in specs:
            message = protocol.read_message_file(
                layout.results / layout.message_name(spec.key)
            )
            assert message["kind"] == "result"
            assert message["worker"].startswith("q")
            decoded = protocol.decode_shard_result(message)
            assert len(decoded.results) == len(spec.cells)
            ordered.update(zip(spec.indices, decoded.results))
        results = [ordered[i] for i in range(len(CELLS))]
        assert [run_digest(r) for r in results] == serial_digests

    def test_banned_worker_never_claims_again(self, tmp_path):
        """The exclusion contract on the queue transport: once the
        scheduler names a worker in ``excluded``, the ban marker retires
        it before its next claim -- a retried shard can never land on it.
        """
        layout = QueueLayout(tmp_path / "q").create(
            lease_ttl_s=30.0, poll_s=0.02
        )
        spec_a, = make_shard_specs(CELLS[:1], 1)
        spec_b, = make_shard_specs(CELLS[1:2], 1)
        worker = threading.Thread(
            target=queue_worker_main, args=(layout.root,), daemon=True
        )
        worker.start()
        protocol.write_message_file(
            layout.pending / layout.message_name(spec_a.key),
            protocol.encode_shard_request(spec_a),
        )
        deadline = time.monotonic() + 60.0
        result_a = layout.results / layout.message_name(spec_a.key)
        while not result_a.exists():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        worker_id = protocol.read_message_file(result_a)["worker"]
        # Ban the only worker: it must retire at its next claim check.
        (layout.banned / worker_id).touch()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        # Work offered after retirement stays unclaimed: the banned
        # worker is gone, and a retried shard can never land on it.
        protocol.write_message_file(
            layout.pending / layout.message_name(spec_b.key),
            protocol.encode_shard_request(spec_b),
        )
        time.sleep(0.2)
        pending = [p.name for p in layout.pending.iterdir()]
        assert pending == [layout.message_name(spec_b.key)]


class TestHeartbeatHardening:
    """The phantom-hang fix: a dead beat thread must surface, loudly."""

    def make_lease(self, tmp_path):
        lease = tmp_path / "lease.json"
        lease.write_text("{}\n")
        return lease

    def test_unexpected_beat_error_sets_failed(self, tmp_path, monkeypatch):
        from repro.exec.worker import _Heartbeat

        lease = self.make_lease(tmp_path)

        def explode(path, *args, **kwargs):
            raise PermissionError(13, "read-only filesystem", str(path))

        monkeypatch.setattr("repro.exec.queue.os.utime", explode)
        heartbeat = _Heartbeat(lease, interval_s=0.01)
        heartbeat.start()
        deadline = time.monotonic() + 10.0
        while not heartbeat.failed:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        heartbeat.stop()
        assert "PermissionError" in heartbeat.error
        assert "read-only filesystem" in heartbeat.error

    def test_vanished_lease_is_a_quiet_exit(self, tmp_path):
        from repro.exec.worker import _Heartbeat

        lease = self.make_lease(tmp_path)
        lease.unlink()  # reclaimed from under us before the first beat
        heartbeat = _Heartbeat(lease, interval_s=0.01)
        heartbeat.start()
        time.sleep(0.1)
        heartbeat.stop()
        assert not heartbeat.failed
        assert heartbeat.error is None

    def test_retriable_error_reply_collects_as_retriable(self, tmp_path):
        """A worker's heartbeat-failure reply reaches the scheduler as a
        *retriable* failure, unlike an in-cell error (deterministic)."""
        backend = QueueBackend(
            1, directory=tmp_path / "q", spawn=False
        )
        try:
            spec, = make_shard_specs(CELLS[:1], 1)
            protocol.write_message_file(
                backend.layout.results / backend.layout.message_name(
                    spec.key
                ),
                {
                    "v": protocol.PROTOCOL_VERSION,
                    "kind": "error",
                    "id": spec.key,
                    "error": "lease heartbeat thread failed mid-shard: "
                             "PermissionError: [Errno 13] denied",
                    "traceback": None,
                    "worker": "q999-dead",
                    "retriable": True,
                },
            )
            outcome = backend._collect(spec, {})
            assert isinstance(outcome, ShardFailure)
            assert outcome.retriable
            assert "retriable fault" in outcome.message
        finally:
            backend.close()


class TestWorkerLifecycle:
    """Graceful shutdown and orphan containment for queue workers."""

    def fill_queue(self, tmp_path, duration):
        layout = QueueLayout(tmp_path / "q").create(
            lease_ttl_s=30.0, poll_s=0.02
        )
        cell = SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, duration
        )
        spec, = make_shard_specs([cell], 1)
        protocol.write_message_file(
            layout.pending / layout.message_name(spec.key),
            protocol.encode_shard_request(spec),
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        return layout, spec, env

    def test_sigterm_releases_lease_back_to_pending(self, tmp_path):
        # A long prefix (~seconds of compute) so SIGTERM lands mid-shard.
        layout, spec, env = self.fill_queue(tmp_path, 36000.0)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--queue", str(layout.root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            name = layout.message_name(spec.key)
            deadline = time.monotonic() + 60.0
            while (layout.pending / name).exists():
                assert time.monotonic() < deadline, "never claimed"
                time.sleep(0.02)
            time.sleep(0.3)  # let the shard get into compute
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The lease was *released*, not abandoned: the message is back in
        # pending/ for the next worker, and no lease file remains.
        assert (layout.pending / name).exists()
        assert layout.lease_of(spec.key) is None
        # No result was posted for the interrupted shard.
        assert not (layout.results / name).exists()

    def test_orphaned_worker_exits_when_spawner_dies(self, tmp_path):
        from repro.exec.queue import PARENT_PID_ENV

        layout, spec, env = self.fill_queue(tmp_path, DURATION)
        parent = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"]
        )
        env[PARENT_PID_ENV] = str(parent.pid)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--queue", str(layout.root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # The worker serves the queue normally while its named
            # parent is alive...
            name = layout.message_name(spec.key)
            deadline = time.monotonic() + 120.0
            while not (layout.results / name).exists():
                assert time.monotonic() < deadline
                assert worker.poll() is None, "worker died early"
                time.sleep(0.05)
            # ...and exits on its own once the parent is gone, instead
            # of polling a dead daemon's queue forever.
            parent.kill()
            parent.wait()
            assert worker.wait(timeout=60.0) == 0
        finally:
            for proc in (worker, parent):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_recreate_clears_stale_stop_marker(self, tmp_path):
        first = QueueBackend(1, directory=tmp_path / "q", spawn=False)
        first.close()
        assert (tmp_path / "q" / "stop").exists()
        # A resumed service session reuses its queue directory: the new
        # backend's workers must not retire on arrival.
        second = QueueBackend(1, directory=tmp_path / "q", spawn=False)
        try:
            assert not second.layout.stop_marker.exists()
        finally:
            second.close()

    def test_missing_queue_dir_exits_2_on_direct_entry(self, tmp_path):
        _, _, env = self.fill_queue(tmp_path, DURATION)
        result = subprocess.run(
            [sys.executable, "-m", "repro.exec.worker",
             "--queue", str(tmp_path / "nope")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        lines = [l for l in result.stderr.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "not a queue directory" in lines[0]


class TestReplyChecks:
    """A posted reply is checked, never coerced: any worker can post one."""

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"retriable": "no"}, "retriable"),
            ({"retriable": True, "worker": "../../escaped-marker"}, "worker"),
            ({"retriable": True, "worker": ["w"]}, "worker"),
        ],
        ids=["retriable-not-a-bool", "worker-escapes", "worker-not-a-string"],
    )
    def test_out_of_protocol_reply_is_a_retriable_failure(
        self, tmp_path, fields, field
    ):
        backend = QueueBackend(
            1, directory=tmp_path / "q", spawn=False, poll_s=0.01
        )
        layout = backend.layout
        stop = threading.Event()
        errors: list[Exception] = []

        def impostor():
            # Claims every posted shard and answers it out of protocol.
            # The backend withdraws a shard's pending message and lease
            # once it has its answer, so either may vanish under us.
            lease_dir = layout.leases / "q0-impostor"
            lease_dir.mkdir()
            while not stop.is_set():
                for pending in sorted(layout.pending.glob("*.json")):
                    lease = lease_dir / pending.name
                    try:
                        os.rename(pending, lease)
                    except FileNotFoundError:
                        continue
                    protocol.write_message_file(
                        layout.results / pending.name,
                        {
                            "v": protocol.PROTOCOL_VERSION,
                            "kind": "error",
                            "id": pending.stem,
                            "error": "boom",
                            "traceback": None,
                            **fields,
                        },
                    )
                    lease.unlink(missing_ok=True)
                time.sleep(0.01)

        def run_impostor():
            try:
                impostor()
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=run_impostor, daemon=True)
        thread.start()
        try:
            spec, = make_shard_specs(CELLS[:1], 1)
            scheduler = Scheduler(backend, max_attempts=2, backoff_base_s=0.0)
            with pytest.raises(ShardFailure) as info:
                scheduler.run([spec])
        finally:
            stop.set()
            thread.join(timeout=10)
            backend.close()
        assert not thread.is_alive()
        assert errors == []
        assert [path.name for path in tmp_path.iterdir()] == ["q"]
        assert info.value.retriable
        assert field in info.value.cause


class TestConfigDurations:
    """A duration in the queue's config.json obeys the environment's rule."""

    def write_config(self, tmp_path, monkeypatch, key, value):
        layout = QueueLayout(tmp_path / "q").create(
            lease_ttl_s=30.0, poll_s=0.05
        )
        config = layout.read_config()
        if value is None:
            del config[key]
        else:
            config[key] = value
        protocol.write_message_file(layout.config_path, config)
        return layout

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), 0, -1, "0.05", [1], True],
        ids=["nan", "inf", "zero", "negative", "string", "list", "bool"],
    )
    @pytest.mark.parametrize("key", ["lease_ttl_s", "poll_s"])
    def test_garbage_is_refused_naming_the_key(
        self, key, value, tmp_path, monkeypatch
    ):
        layout = self.write_config(tmp_path, monkeypatch, key, value)
        with pytest.raises(ConfigurationError, match=key):
            queue_worker_main(layout.root, drain=True)

    @pytest.mark.parametrize("key", ["lease_ttl_s", "poll_s"])
    def test_an_absent_key_means_the_default(
        self, key, tmp_path, monkeypatch
    ):
        layout = self.write_config(tmp_path, monkeypatch, key, None)
        assert queue_worker_main(layout.root, drain=True) == 0

    def test_cli_exits_2_with_one_line(self, tmp_path, monkeypatch):
        layout = self.write_config(tmp_path, monkeypatch, "poll_s", "0.05")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "worker",
             "--queue", str(layout.root), "--drain"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        lines = [line for line in result.stderr.splitlines() if line]
        assert len(lines) == 1
        assert "poll_s" in lines[0]


class TestAttachedWorkerTiming:
    def test_the_worker_beats_at_the_queue_ttl_not_its_own(
        self, tmp_path, monkeypatch
    ):
        # The backend reclaims a lease 0.5 s stale; a worker attached with
        # REPRO_LEASE_TTL=30 in its own environment must still beat at the
        # queue's TTL, or it would beat every 7.5 s and lose the lease.
        # An empty cache makes the shard pretrain, so it runs for seconds.
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        backend = QueueBackend(
            1, directory=tmp_path / "q", lease_ttl_s=0.5, poll_s=0.02,
            spawn=False,
        )
        env = dict(os.environ)
        env["REPRO_LEASE_TTL"] = "30"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--queue", str(backend.layout.root)],
            env=env,
        )
        cell = SystemCell(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 1200.0
        )
        outcomes = []
        collect = threading.Thread(
            target=lambda: outcomes.extend(
                backend.run(make_shard_specs([cell], 1))
            ),
            daemon=True,
        )
        try:
            collect.start()
            collect.join(timeout=120)
        finally:
            backend.close()
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        assert not collect.is_alive(), "no outcome within 120 s"
        [outcome] = outcomes
        assert isinstance(outcome, ShardResult), outcome
        assert run_digest(outcome.results[0]) == expected_digest(
            "full", cell, PolicySet()
        )
