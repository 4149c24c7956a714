"""Tests for the resident fleet daemon: sessions, crashes, control plane."""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exec import protocol
from repro.exec.faults import DIE_EXIT_CODE, FaultEntry, FaultPlan, save_plan
from repro.exec.shard import PolicySet, SystemCell, cell_key, run_cell
from repro.reference import CASES, expected_digest, run_digest
from repro.service import FleetService, ServiceConfig
from repro.service.control import control_request
from repro.service.session import session_path

#: The registry's service fleet: three streams at 60 s windows.
SERVICE = CASES["service"]

CELLS = [
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 30.0),
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4", 0, 30.0),
]

# One eager serve of CELLS at window 10: run by the crash-recovery matrix
# below, in a child process so daemon-kill's os._exit stays contained.
CHILD = """
import sys
from repro.exec.shard import SystemCell
from repro.service import FleetService, ServiceConfig

cells = [
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 30.0),
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4", 0, 30.0),
]
config = ServiceConfig(out_dir=sys.argv[1], window_s=10.0, backend=sys.argv[2])
sys.exit(FleetService(config, cells).run())
"""

# Same serve with segment-aligned windows (60 s on 180 s streams): the
# shape where incremental mode actually carries snapshots across windows
# -- and must still recover from a SIGKILL bit-identically.
CHILD_ALIGNED = """
import sys
from repro.exec.shard import SystemCell
from repro.service import FleetService, ServiceConfig

cells = [
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 180.0),
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4", 0, 180.0),
]
config = ServiceConfig(out_dir=sys.argv[1], window_s=60.0, backend=sys.argv[2])
sys.exit(FleetService(config, cells).run())
"""


def serve_child(out, backend="serial", extra_env=None, script=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    if extra_env:
        env.update(extra_env)
    # Output goes to a file, not a pipe: the daemon's spawned queue
    # workers inherit stdio, and a daemon-kill must not leave this test
    # waiting on pipe-EOF from a worker that outlives the kill briefly.
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    err_path = out.with_name(out.name + ".stderr")
    with err_path.open("ab") as err:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out), backend],
            env=env,
            stdout=err,
            stderr=err,
            timeout=300,
        )
    proc.stderr = err_path.read_text()
    return proc


def window_records(out):
    records = {}
    for line in session_path(out).read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "window":
            records[(record["stream"], record["index"])] = record
    return records


class TestEagerSession:
    @pytest.mark.parametrize("window_path", ["incremental", "prefix"])
    def test_session_matches_frozen_window_digests(
        self, tmp_path, monkeypatch, window_path
    ):
        # "incremental" resumes each window from its predecessor's
        # snapshot; "prefix" makes every boundary look off the segment
        # grid, so no snapshot is emitted and each window runs its full
        # prefix (the daemon's fallback path). Both must hit the freeze.
        if window_path == "prefix":
            from repro.service import daemon

            monkeypatch.setattr(
                daemon, "stream_prefix_aligned", lambda end: False
            )
        config = ServiceConfig(out_dir=tmp_path, window_s=SERVICE.window_s)
        assert FleetService(config, list(SERVICE.cells)).run() == 0
        records = window_records(tmp_path)
        assert {
            key: (record["mode"], record["digest"])
            for key, record in records.items()
        } == {
            (cell_key("float64", cell), index): (
                "fresh",
                expected_digest("service", cell, PolicySet(), window=index),
            )
            for cell, index in SERVICE.windows()
        }
        snapshots = [
            line
            for line in session_path(tmp_path).read_text().splitlines()
            if json.loads(line).get("kind") == "snapshot"
        ]
        assert bool(snapshots) is (window_path == "incremental")
        state = json.loads((tmp_path / "state.json").read_text())
        assert all(s["retired"] for s in state["streams"].values())
        assert state["inflight"] == 0

    def test_admit_is_idempotent_and_duration_resolves(self, tmp_path):
        config = ServiceConfig(out_dir=tmp_path, window_s=10.0)
        service = FleetService(config, [CELLS[0], CELLS[0]])
        assert service.run() == 0
        assert len(service.streams) == 1

    def test_serving_leaves_the_planner_cost_table_alone(self, tmp_path):
        # Every window has its own duration, hence its own cell key; the
        # service never plans, so it must not grow the planner's table.
        from repro.exec import shard

        before = dict(shard._observed_costs)
        config = ServiceConfig(out_dir=tmp_path, window_s=10.0)
        assert FleetService(config, CELLS).run() == 0
        assert len(window_records(tmp_path)) == 6
        assert shard._observed_costs == before


class TestIncrementalWindows:
    ALIGNED = [
        SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 180.0),
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 180.0),
    ]

    @pytest.mark.parametrize("backend", ["serial", "queue:2"])
    def test_modes_journal_identical_window_records(self, tmp_path, backend):
        # Incremental windows (each resuming its predecessor's snapshot)
        # journal exactly what a plain prefix run of the window computes.
        config = ServiceConfig(
            out_dir=tmp_path, window_s=60.0, backend=backend
        )
        service = FleetService(config, self.ALIGNED)
        assert service.run() == 0
        records = window_records(tmp_path)
        assert len(records) == 6
        streams = {
            cell_key(service.policies.numeric.name, cell): cell
            for cell in self.ALIGNED
        }
        for (stream, index), record in records.items():
            prefix = run_cell(
                replace(streams[stream], duration_s=60.0 * (index + 1))
            )
            assert record["mode"] == "fresh"
            assert record["digest"] == run_digest(prefix), (stream, index)
            assert record["result"] == protocol.encode_result(prefix)

    def test_snapshots_journaled_incremental_only(self, tmp_path):
        config = ServiceConfig(out_dir=tmp_path, window_s=60.0)
        assert FleetService(config, self.ALIGNED[:1]).run() == 0
        lines = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
        ]
        snapshots = [r for r in lines if r.get("kind") == "snapshot"]
        # One per window except the last (it has no consumer), each
        # journaled before its own window record.
        assert [s["index"] for s in snapshots] == [0, 1]
        positions = {
            (r.get("kind"), r.get("index")): pos
            for pos, r in enumerate(lines)
        }
        for s in snapshots:
            assert positions[("snapshot", s["index"])] < (
                positions[("window", s["index"])]
            )

    def test_unaligned_windows_fall_back_to_prefix(self, tmp_path):
        # window_s=10 never lands on a segment boundary: no snapshots are
        # emitted, every window is a plain prefix run, digests unchanged.
        config = ServiceConfig(out_dir=tmp_path, window_s=10.0)
        assert FleetService(config, CELLS[:1]).run() == 0
        lines = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
        ]
        assert not any(r.get("kind") == "snapshot" for r in lines)
        assert all(
            r["mode"] == "fresh"
            for r in lines if r.get("kind") == "window"
        )


class TestCrashRecovery:
    @pytest.mark.parametrize("backend", ["serial", "queue:2"])
    def test_kill_restart_resumes_bit_identically(self, tmp_path, backend):
        clean = tmp_path / "clean"
        r = serve_child(clean)
        assert r.returncode == 0, r.stderr

        chaos = tmp_path / "chaos"
        plan_path = tmp_path / "faults.json"
        save_plan(
            FaultPlan(entries=(FaultEntry(kind="daemon-kill", match="|w1"),)),
            plan_path,
        )
        env = {"REPRO_FAULT_PLAN": str(plan_path)}
        first = serve_child(chaos, backend, env)
        assert first.returncode == DIE_EXIT_CODE, first.stderr
        second = serve_child(chaos, backend, env)
        assert second.returncode == 0, second.stderr

        clean_windows = window_records(clean)
        chaos_windows = window_records(chaos)
        assert sorted(clean_windows) == sorted(chaos_windows)
        for key in clean_windows:
            assert json.dumps(clean_windows[key], sort_keys=True) == (
                json.dumps(chaos_windows[key], sort_keys=True)
            ), key

        # The windows journaled before the kill were NOT recomputed: the
        # restarted session's journal replays them from disk.
        lines = [
            json.loads(line)
            for line in session_path(chaos).read_text().splitlines()
        ]
        starts = [
            r for r in lines
            if r.get("kind") == "event" and r.get("name") == "start"
        ]
        assert [s["detail"]["resumed"] for s in starts] == [False, True]
        pre_kill = sum(
            1 for r in lines[: lines.index(starts[1])]
            if r.get("kind") == "window"
        )
        post = sum(1 for r in lines if r.get("kind") == "window")
        assert pre_kill >= 1
        assert post == len(clean_windows)

    @pytest.mark.parametrize("backend", ["serial", "queue:2"])
    def test_incremental_kill_restart_resumes_from_snapshot(
        self, tmp_path, backend
    ):
        clean = tmp_path / "clean"
        r = serve_child(clean, script=CHILD_ALIGNED)
        assert r.returncode == 0, r.stderr

        chaos = tmp_path / "chaos"
        plan_path = tmp_path / "faults.json"
        save_plan(
            FaultPlan(entries=(FaultEntry(kind="daemon-kill", match="|w1"),)),
            plan_path,
        )
        chaos_env = {"REPRO_FAULT_PLAN": str(plan_path)}
        first = serve_child(chaos, backend, chaos_env, script=CHILD_ALIGNED)
        assert first.returncode == DIE_EXIT_CODE, first.stderr
        pre = [
            json.loads(line)
            for line in session_path(chaos).read_text().splitlines()
        ]
        # The kill fired after a window record's fsync; that window's
        # snapshot (journaled first) is in the file for the restart.
        assert any(r.get("kind") == "snapshot" for r in pre)

        second = serve_child(chaos, backend, chaos_env, script=CHILD_ALIGNED)
        assert second.returncode == 0, second.stderr

        clean_windows = window_records(clean)
        chaos_windows = window_records(chaos)
        assert sorted(clean_windows) == sorted(chaos_windows)
        for key in clean_windows:
            assert json.dumps(clean_windows[key], sort_keys=True) == (
                json.dumps(chaos_windows[key], sort_keys=True)
            ), key

        lines = [
            json.loads(line)
            for line in session_path(chaos).read_text().splitlines()
        ]
        starts = [
            r for r in lines
            if r.get("kind") == "event" and r.get("name") == "start"
        ]
        assert [s["detail"]["resumed"] for s in starts] == [False, True]
        # The restarted session kept serving incrementally: windows it
        # computed fresh journaled their own snapshots after the resume.
        post_resume = lines[lines.index(starts[1]):]
        assert any(r.get("kind") == "snapshot" for r in post_resume)


class TestOversubscription:
    def test_ladder_degrades_and_the_daemon_survives(self, tmp_path):
        # 100000x speedup: a 30 s window "arrives" every 0.3 ms of wall
        # clock, far faster than any prefix run completes -- every stream
        # is oversubscribed from the first window on.
        cell = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 300.0)
        config = ServiceConfig(
            out_dir=tmp_path, window_s=30.0, speedup=100000.0
        )
        assert FleetService(config, [cell]).run() == 0

        lines = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
        ]
        windows = {r["index"]: r for r in lines if r.get("kind") == "window"}
        assert sorted(windows) == list(range(10))  # no window lost
        modes = {r["mode"] for r in windows.values()}
        assert "fresh" in modes and "shed" in modes
        transitions = [r for r in lines if r.get("kind") == "degrade"]
        assert any(t["to"] == "SHED" for t in transitions)
        assert all(
            t["reason"] in ("deadline-miss", "caught-up", "dispatch-failed")
            for t in transitions
        )

        state = json.loads((tmp_path / "state.json").read_text())
        stream = next(iter(state["streams"].values()))
        assert stream["dropped_frames"] > 0
        assert stream["drop_rate"] > 0.0
        assert stream["misses"] > 0
        assert stream["retired"]

    def test_degrade_false_pins_normal(self, tmp_path):
        cell = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 60.0)
        config = ServiceConfig(
            out_dir=tmp_path, window_s=10.0, speedup=100000.0, degrade=False
        )
        assert FleetService(config, [cell]).run() == 0
        records = window_records(tmp_path)
        # Pure backpressure: late, but every window still computed fresh.
        assert len(records) == 6
        assert all(r["mode"] == "fresh" for r in records.values())


class TestControlPlane:
    def start_service(self, tmp_path):
        config = ServiceConfig(
            out_dir=tmp_path, window_s=10.0, control_port=0, stay=True
        )
        service = FleetService(config)
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if service.control is not None and service.control.port:
                try:
                    if control_request(service.control.port, "/health")["ok"]:
                        return service, thread
                except OSError:
                    pass
            time.sleep(0.02)
        raise AssertionError("control plane never came up")

    def wait_for(self, port, predicate, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            state = control_request(port, "/state")
            if predicate(state):
                return state
            time.sleep(0.05)
        raise AssertionError("condition never reached; last state: "
                             f"{json.dumps(state)}")

    def test_admit_state_retire_drain(self, tmp_path):
        service, thread = self.start_service(tmp_path)
        port = service.control.port
        try:
            admitted = control_request(port, "/admit", {
                "system": "DaCapo-Ekya",
                "pair": "resnet18_wrn50",
                "scenario": "S1",
                "seed": 0,
                "duration_s": 20.0,
            })
            assert admitted["ok"], admitted
            key = admitted["stream"]
            assert admitted["windows"] == 2

            # Live per-stream state appears and the stream runs to
            # completion under the daemon, visible over HTTP.
            state = self.wait_for(
                port,
                lambda s: s["streams"].get(key, {}).get("retired"),
            )
            stream = state["streams"][key]
            assert stream["windows_done"] == 2
            assert stream["accuracy"] is not None
            assert stream["level"] == "NORMAL"
            assert stream["retire_reason"] == "complete"

            streams = control_request(port, "/streams")
            assert key in streams["streams"]

            # Command errors are typed and never kill the daemon.
            bad = control_request(port, "/admit", {"system": "NoSuchSystem",
                                                   "pair": "resnet18_wrn50",
                                                   "scenario": "S1"})
            assert not bad["ok"] and "unknown system" in bad["error"]
            missing = control_request(port, "/retire", {"stream": "ghost"})
            assert not missing["ok"] and "unknown stream" in missing["error"]
            again = control_request(port, "/retire", {"stream": key})
            assert again["ok"] and again.get("already_retired")

            # A second stream is retired by command mid-life.
            second = control_request(port, "/admit", {
                "system": "DaCapo-Ekya",
                "pair": "resnet18_wrn50",
                "scenario": "S4",
                "seed": 0,
                "duration_s": 1200.0,
            })
            assert second["ok"]
            retired = control_request(
                port, "/retire", {"stream": second["stream"]}
            )
            assert retired["ok"]
            state = self.wait_for(
                port,
                lambda s: s["streams"][second["stream"]]["retired"],
            )
            assert (
                state["streams"][second["stream"]]["retire_reason"]
                == "command"
            )

            drained = control_request(port, "/drain", {})
            assert drained["ok"] and drained["draining"]
        finally:
            # Belt: if an assertion fired before /drain, stop the thread.
            if thread.is_alive():
                try:
                    control_request(port, "/drain", {})
                except OSError:
                    pass
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert (tmp_path / "state.json").exists()
        assert (tmp_path / "control.port").read_text().strip() == str(port)

    def test_health_endpoint(self, tmp_path):
        service, thread = self.start_service(tmp_path)
        port = service.control.port
        try:
            health = control_request(port, "/health")
            assert health == {"ok": True, "draining": False}
            missing = control_request(port, "/nope")
            assert not missing["ok"]
        finally:
            control_request(port, "/drain", {})
            thread.join(timeout=60.0)


SHARED_CELLS = [
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", s, 180.0)
    for s in range(3)
]


class TestSharedService:
    def serve(self, out_dir, window_s=60.0):
        from repro.share.policy import CLUSTER, use_sharing

        config = ServiceConfig(out_dir=out_dir, window_s=window_s)
        with use_sharing(CLUSTER):
            # The sharing policy is captured at construction time.
            service = FleetService(config, list(SHARED_CELLS))
            assert service.run() == 0
        return service

    def test_shared_session_journals_cluster_state(self, tmp_path):
        # Three correlated cameras on one S4 intersection: one cluster,
        # whose weight state rides the session journal window by window.
        service = self.serve(tmp_path)
        lines = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
        ]
        clusters = [r for r in lines if r.get("kind") == "cluster"]
        assert clusters and all(r["cluster"] == "c0" for r in clusters)
        counters = clusters[-1]["state"]["counters"]
        assert counters["retrains_run"] > 0
        assert counters["warm_starts"] >= 1  # later members inherit

        state = json.loads((tmp_path / "state.json").read_text())
        assert state["sharing"]["policy"] == "cluster"
        assert state["sharing"]["clusters"] == ["c0"]
        assert all(
            s["cluster"] == "c0" for s in state["streams"].values()
        )
        assert all(s["retired"] for s in state["streams"].values())
        assert service.journal.clusters.keys() == {"c0"}

    def test_cluster_records_name_their_own_cluster(self, tmp_path):
        # S1 and S4 cluster apart: each window job carries the tracker's
        # id, so each journaled state names the cluster it belongs to.
        from repro.share.policy import CLUSTER, use_sharing

        config = ServiceConfig(out_dir=tmp_path, window_s=SERVICE.window_s)
        with use_sharing(CLUSTER):
            assert FleetService(config, list(SERVICE.cells)).run() == 0
        clusters = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
            if json.loads(line).get("kind") == "cluster"
        ]
        assert {r["cluster"] for r in clusters} == {"c0", "c1"}
        assert all(r["state"]["cluster"] == r["cluster"] for r in clusters)

    def test_resume_replays_clusters_without_recompute(self, tmp_path):
        self.serve(tmp_path)
        before = window_records(tmp_path)
        service = self.serve(tmp_path)  # same dir: pure replay
        after = window_records(tmp_path)
        assert after == before
        assert service.journal.clusters.keys() == {"c0"}
        # Replay did not append new window records.
        lines = session_path(tmp_path).read_text().splitlines()
        windows = [
            line for line in lines
            if json.loads(line).get("kind") == "window"
        ]
        assert len(windows) == len(before)

    def test_shared_journal_refuses_independent_resume(self, tmp_path):
        from repro.errors import ConfigurationError

        self.serve(tmp_path)
        config = ServiceConfig(out_dir=tmp_path, window_s=60.0)
        with pytest.raises(ConfigurationError, match="different session"):
            FleetService(config, list(SHARED_CELLS)).run()


class TestAdmissionControl:
    def start_service(self, tmp_path):
        # degrade=False pins ladders wherever the test sets them -- the
        # supervisor cannot race a manual SHED back to NORMAL.
        config = ServiceConfig(
            out_dir=tmp_path,
            window_s=10.0,
            control_port=0,
            stay=True,
            degrade=False,
        )
        service = FleetService(config)
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if service.control is not None and service.control.port:
                try:
                    if control_request(service.control.port, "/health")["ok"]:
                        return service, thread
                except OSError:
                    pass
            time.sleep(0.02)
        raise AssertionError("control plane never came up")

    @staticmethod
    def raw_admit(port, payload):
        from http.client import HTTPConnection

        conn = HTTPConnection("127.0.0.1", port, timeout=30.0)
        try:
            conn.request(
                "POST",
                "/admit",
                body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_admit_returns_503_while_shedding(self, tmp_path):
        from repro.service.degrade import DegradeLevel

        first = {
            "system": "DaCapo-Ekya",
            "pair": "resnet18_wrn50",
            "scenario": "S1",
            "seed": 0,
            "duration_s": 600.0,
        }
        second = dict(first, scenario="S4")
        service, thread = self.start_service(tmp_path)
        port = service.control.port
        try:
            status, admitted = self.raw_admit(port, first)
            assert status == 200 and admitted["ok"], admitted
            key = admitted["stream"]

            service.streams[key].ladder.level = DegradeLevel.SHED

            # A *new* stream is refused with a typed 503 while any live
            # stream is shedding...
            status, refused = self.raw_admit(port, second)
            assert status == 503, refused
            assert refused == {
                "ok": False,
                "refused": True,
                "error": refused["error"],
            }
            assert "overloaded" in refused["error"]
            assert key in refused["error"]

            # ...but re-admitting a known key stays idempotent (it adds
            # no load), and recovery reopens the door.
            status, again = self.raw_admit(port, first)
            assert status == 200 and again["ok"] and again["stream"] == key

            service.streams[key].ladder.level = DegradeLevel.NORMAL
            status, now_ok = self.raw_admit(port, second)
            assert status == 200 and now_ok["ok"], now_ok

            for payload in (first, second):
                retired = control_request(
                    port, "/retire", {"stream": now_ok["stream"]
                                      if payload is second else key}
                )
                assert retired["ok"]
            drained = control_request(port, "/drain", {})
            assert drained["ok"]
        finally:
            if thread.is_alive():
                try:
                    control_request(port, "/drain", {})
                except OSError:
                    pass
        thread.join(timeout=120.0)
        assert not thread.is_alive()
