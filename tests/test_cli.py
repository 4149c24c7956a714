"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.learn import student, teacher

TINY_SWEEP = {
    "sweep": {"name": "cli-tiny", "title": "CLI tiny fleet"},
    "axes": {
        "systems": ["DaCapo-Spatiotemporal"],
        "pairs": ["resnet18_wrn50"],
        "scenarios": ["S1", "S4"],
        "durations": [60.0],
    },
    "aggregate": {"group_by": ["policy", "scenario"],
                  "percentiles": [50],
                  "metrics": ["accuracy", "drop_rate"]},
}


@pytest.fixture
def tiny_spec_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SWEEP))
    return path


class TestList:
    def test_lists_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "DaCapo-Spatiotemporal" in out
        assert "S1" in out
        assert "resnet18_wrn50" in out


class TestExperiment:
    def test_runs_table_experiment(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_jobs_on_unsupported_experiment_warns_and_runs(self, capsys):
        # table1 takes no jobs parameter: the CLI warns on stderr and
        # runs serially instead of crashing.
        assert main(["experiment", "table1", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "does not support --jobs" in captured.err
        assert "Nt" in captured.out

    def test_invalid_jobs_exits_2_with_one_line_message(self, capsys):
        assert main(["experiment", "table2", "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "jobs must be >= 0" in err
        assert len(err.strip().splitlines()) == 1


class TestRun:
    def test_runs_system(self, capsys):
        code = main([
            "run", "DaCapo-Spatiotemporal", "resnet18_wrn50", "S1",
            "--duration", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "average_accuracy" in out

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["run", "H100", "resnet18_wrn50", "S1"])


class TestSweep:
    def test_plan_only(self, tiny_spec_path, capsys):
        assert main(["sweep", str(tiny_spec_path), "--plan"]) == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out
        assert "distinct streams" in out

    def test_runs_and_writes_outputs(self, tiny_spec_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "sweep", str(tiny_spec_path), "--jobs", "2",
            "--out", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Aggregate by (policy, scenario)" in out
        document = json.loads(
            (out_dir / "sweep_cli-tiny.json").read_text()
        )
        assert len(document["cells"]) == 2
        assert (out_dir / "sweep_cli-tiny_aggregate.csv").is_file()

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.toml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[sweep]\nname = 'bad'\n[axes]\nsystems = ['H100']\n"
            "pairs = ['resnet18_wrn50']\nscenarios = ['S1']\n"
        )
        assert main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err

    def test_invalid_jobs_exits_2(self, tiny_spec_path, capsys):
        assert main(["sweep", str(tiny_spec_path), "--jobs", "-2"]) == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_plan_rejects_invalid_jobs_too(self, tiny_spec_path, capsys):
        # --plan must not silently price an invalid worker count at 1.
        code = main([
            "sweep", str(tiny_spec_path), "--plan", "--jobs", "-5",
        ])
        assert code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err


SMOKE_SPEC = str(
    Path(__file__).resolve().parents[1] / "examples" / "fleet_smoke.toml"
)


class TestPolicyFlags:
    @pytest.mark.parametrize(
        "flags, env, text",
        [
            (
                ["--sharing", "bogus"], {},
                "unknown sharing policy 'bogus' "
                "(set REPRO_SHARING to one of: cluster, off)",
            ),
            (
                ["--batch", "bogus"], {},
                "unknown batching policy 'bogus' "
                "(set REPRO_BATCH to one of: off, on)",
            ),
            (
                ["--backend", "bogus"], {},
                "unknown backend 'bogus'; known: serial, process, "
                "subprocess, queue",
            ),
            (
                [], {"REPRO_SHARING": "bogus"},
                "unknown sharing policy 'bogus' "
                "(set REPRO_SHARING to one of: cluster, off)",
            ),
            (
                [], {"REPRO_BATCH": "bogus"},
                "unknown batching policy 'bogus' "
                "(set REPRO_BATCH to one of: off, on)",
            ),
            (
                [], {"REPRO_DTYPE": "float32"},
                "unknown numeric policy 'float32' "
                "(set REPRO_DTYPE to one of: float64)",
            ),
        ],
        ids=["--sharing", "--batch", "--backend", "REPRO_SHARING",
             "REPRO_BATCH", "REPRO_DTYPE"],
    )
    def test_bad_policy_exits_2_with_the_error_line(
        self, flags, env, text, capsys, monkeypatch
    ):
        for name in (
            "REPRO_SHARING", "REPRO_BATCH", "REPRO_BACKEND", "REPRO_DTYPE"
        ):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["sweep", SMOKE_SPEC, "--plan", *flags]) == 2
        assert capsys.readouterr().err == f"repro: error: {text}\n"

    def test_flag_beats_spec_key_beats_env(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = json.loads(json.dumps(TINY_SWEEP))
        spec["sweep"]["sharing"] = "cluster"
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(spec))
        monkeypatch.setenv("REPRO_SHARING", "off")
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert main(["sweep", str(path), "--plan"]) == 0
        assert "sharing            cluster" in capsys.readouterr().out
        assert main([
            "sweep", str(path), "--plan", "--sharing", "off",
            "--batch", "on",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharing " not in out
        assert "batching           on" in out


RUN = ["run", "DaCapo-Ekya", "resnet18_wrn50", "S1", "--duration", "60"]


class TestPolicyVariablesRefusedBeforeWork:
    def test_float32_exits_2_without_pretraining(self, capsys, monkeypatch):
        def pretrain(*args):
            raise AssertionError("pretrained before refusing REPRO_DTYPE")

        monkeypatch.setattr(student, "_pretrained_mlp", pretrain)
        monkeypatch.setattr(teacher, "_pretrained_mlp", pretrain)
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert main(RUN) == 2
        assert capsys.readouterr().err == (
            "repro: error: unknown numeric policy 'float32' "
            "(set REPRO_DTYPE to one of: float64)\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [
            ("REPRO_SHARING", "unknown sharing policy 'bogus' "
             "(set REPRO_SHARING to one of: cluster, off)"),
            ("REPRO_BATCH", "unknown batching policy 'bogus' "
             "(set REPRO_BATCH to one of: off, on)"),
        ],
        ids=["REPRO_SHARING", "REPRO_BATCH"],
    )
    @pytest.mark.parametrize(
        "argv", [RUN, ["experiment", "table2"]], ids=["run", "experiment"]
    )
    def test_bogus_value_exits_2(self, argv, name, text, capsys, monkeypatch):
        monkeypatch.setenv(name, "bogus")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: {text}\n"
        assert captured.out == ""


class TestBackend:
    def test_sweep_runs_on_subprocess_backend(
        self, tiny_spec_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        code = main([
            "sweep", str(tiny_spec_path), "--backend", "subprocess:2",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert "Aggregate by (policy, scenario)" in capsys.readouterr().out
        document = json.loads(
            (out_dir / "sweep_cli-tiny.json").read_text()
        )
        assert len(document["cells"]) == 2

    def test_invalid_backend_exits_2(self, tiny_spec_path, capsys):
        assert main([
            "sweep", str(tiny_spec_path), "--backend", "quantum"
        ]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_plan_validates_backend_and_prices_its_workers(
        self, tiny_spec_path, capsys
    ):
        # --plan must reject a bad backend exactly like a real run...
        assert main([
            "sweep", str(tiny_spec_path), "--plan", "--backend", "quantum"
        ]) == 2
        assert "unknown backend" in capsys.readouterr().err
        # ...and price at the backend's own worker count, not --jobs.
        assert main([
            "sweep", str(tiny_spec_path), "--plan",
            "--backend", "subprocess:2",
        ]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_plan_honors_ambient_backend_env(
        self, tiny_spec_path, capsys, monkeypatch
    ):
        # The printed plan must price what the real run would resolve:
        # an ambient REPRO_BACKEND=serial pins one worker despite --jobs.
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert main([
            "sweep", str(tiny_spec_path), "--plan", "--jobs", "8",
        ]) == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_backend_on_unsupported_experiment_warns(self, capsys):
        assert main([
            "experiment", "table1", "--backend", "serial"
        ]) == 0
        captured = capsys.readouterr()
        assert "does not route through" in captured.err
        assert "Nt" in captured.out

    def test_experiment_backend_serial_matches_default(self, capsys):
        assert main([
            "experiment", "table2", "--backend", "serial"
        ]) == 0
        assert "S1" in capsys.readouterr().out


class TestKillAndResume:
    def test_injected_abort_exits_3_then_resume_completes(
        self, tiny_spec_path, tmp_path, capsys, monkeypatch
    ):
        out_dir = tmp_path / "out"
        monkeypatch.setenv("REPRO_SWEEP_ABORT_AFTER_SHARDS", "1")
        code = main([
            "sweep", str(tiny_spec_path), "--out", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("repro: error:")
        assert "injected abort" in captured.err
        monkeypatch.delenv("REPRO_SWEEP_ABORT_AFTER_SHARDS")

        code = main([
            "sweep", str(tiny_spec_path), "--out", str(out_dir),
            "--resume",
        ])
        assert code == 0
        document = json.loads(
            (out_dir / "sweep_cli-tiny.json").read_text()
        )
        assert len(document["cells"]) == 2

        # A record of a kind the journal never writes, or an entry for a
        # cell the plan does not hold, cannot come from a kill: the next
        # resume exits 2 with one line naming it.
        journal = out_dir / "sweep_cli-tiny.journal.jsonl"
        clean = journal.read_text()
        for old, new, named in [
            ('"kind":"shard"', '"kind":"shart"', "line 2: malformed shart"),
            ("/s0/", "/s7/", "/s7/60s|0x1.e000000000000p+5' is not in"),
        ]:
            journal.write_text(clean.replace(old, new, 1))
            code = main([
                "sweep", str(tiny_spec_path), "--out", str(out_dir),
                "--resume",
            ])
            err = capsys.readouterr().err
            assert code == 2
            assert err.count("\n") == 1 and named in err

    def test_resume_without_out_exits_2(self, tiny_spec_path, capsys):
        assert main([
            "sweep", str(tiny_spec_path), "--resume",
        ]) == 2
        assert "output directory" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_worker_subcommand_is_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "worker" in capsys.readouterr().out


class TestServe:
    def test_serves_a_spec_to_completion(self, tiny_spec_path, tmp_path,
                                         capsys):
        out_dir = tmp_path / "svc"
        code = main([
            "serve", str(tiny_spec_path),
            "--out", str(out_dir), "--window", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 2 stream(s)" in out
        assert "session journal" in out
        records = [
            json.loads(line)
            for line in (out_dir / "session.jsonl").read_text().splitlines()
        ]
        windows = [r for r in records if r.get("kind") == "window"]
        # 2 streams x (60 s / 30 s) windows, all fresh in eager mode.
        assert len(windows) == 4
        assert all(r["mode"] == "fresh" for r in windows)
        assert (out_dir / "state.json").is_file()

    def test_rerun_resumes_without_recompute(self, tiny_spec_path, tmp_path,
                                             capsys):
        out_dir = tmp_path / "svc"
        argv = ["serve", str(tiny_spec_path),
                "--out", str(out_dir), "--window", "30"]
        assert main(argv) == 0
        before = (out_dir / "session.jsonl").read_text()
        assert main(argv) == 0
        after = (out_dir / "session.jsonl").read_text()
        # Every stream was already complete: the rerun appends only its
        # own start/shutdown events, never another window record.
        assert after.startswith(before)
        fresh = [
            json.loads(line) for line in after.splitlines()
        ]
        assert sum(1 for r in fresh if r.get("kind") == "window") == 4

        # An admit record whose stream key changed leaves the records
        # after it naming a stream never admitted: exit 2, one line.
        admit = next(r for r in fresh if r.get("kind") == "admit")
        key = admit["stream"]
        (out_dir / "session.jsonl").write_text(
            after.replace(f'"kind":"admit","stream":"{key}"',
                          f'"kind":"admit","stream":"{key}x"', 1)
        )
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "was never admitted" in err

        # A window index past the stream's two windows: exit 2, one line,
        # instead of retiring the stream with window 1 never served.
        (out_dir / "session.jsonl").write_text(
            after.replace('"index":1,"mode"', '"index":7,"mode"', 1)
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "window index 7 is outside" in err

    def test_multi_policy_spec_exits_2(self, tmp_path, capsys):
        # float32 is no numeric policy: a spec naming it is refused by
        # both commands with one line, before anything runs.
        spec = json.loads(json.dumps(TINY_SWEEP))
        spec["axes"]["policies"] = ["float64", "float32"]
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(spec))
        for argv in (
            ["serve", str(path), "--out", str(tmp_path / "svc")],
            ["sweep", str(path), "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "'float32'" in err
        assert not (tmp_path / "svc").exists()
        assert not (tmp_path / "out").exists()

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        code = main([
            "serve", str(tmp_path / "nope.toml"),
            "--out", str(tmp_path / "svc"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_worker_missing_queue_dir_exits_2(self, tmp_path, capsys):
        assert main(["worker", "--queue", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "not a queue directory" in err
