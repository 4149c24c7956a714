"""Tests of the end-to-end benchmark harness (not of the program it measures).

Run with ``python -m pytest benchmarks/e2e -q``; the tier-1 suite's
``testpaths`` does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402
from layers import PER_LAYER, TARGETS, window_phases  # noqa: E402
from trace import Target, Tracer, self_times, within  # noqa: E402


def test_trace_module_is_the_harness_one():
    assert Path(trace.__file__).resolve().parent == HERE


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_children_on_each_thread():
    tracer = Tracer()
    barrier = threading.Barrier(3)

    def leaf():
        return sum(range(2000))

    def middle():
        barrier.wait()
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")

    def top():
        with tracer.span("top"):
            traced_middle()

    threads = [threading.Thread(target=top) for _ in range(2)]
    for thread in threads:
        thread.start()
    top()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    records = tracer.records()
    assert self_times(records)["top"][1] == 3
    assert self_times(records)["middle"][1] == 3
    assert self_times(records)["leaf"][1] == 6
    for record in records:
        children = [r for r in records if r["parent"] == records.index(record)]
        assert all(child["thread"] == record["thread"] for child in children)
        covered = sum(child["end"] - child["start"] for child in children)
        duration = record["end"] - record["start"]
        assert record["self"] == pytest.approx(duration - covered, abs=1e-9)
        assert record["self"] >= 0
    for record in records:
        if record["name"] == "leaf":
            assert records[record["parent"]]["name"] == "middle"
        if record["name"] == "top":
            assert record["parent"] == -1
    assert [
        nested for record, nested in zip(records, within(records, "top"))
        if record["name"] == "leaf"
    ] == [True] * 6


def test_records_keep_parents_inside_the_chosen_interval():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    with tracer.span("later") as later:
        pass
    chosen = tracer.records(since=later[trace.START])
    assert [r["name"] for r in chosen] == ["later"]
    both = tracer.records(until=outer[trace.END])
    assert [(r["name"], r["parent"]) for r in both] == [
        ("inner", 1), ("outer", -1)
    ]


# -- installation ----------------------------------------------------------


def _bindings(prefix: str = "repro") -> dict:
    return {
        (id(namespace), attribute): value
        for namespace in trace._program_namespaces(prefix)
        for attribute, value in vars(namespace).items()
    }


def test_uninstall_restores_every_binding():
    import repro.learn.quantized
    import numpy as np
    from repro.mx import MX6

    tracer = Tracer()
    tracer.install(TARGETS)
    before_uninstall = repro.learn.quantized.effective_quantize
    repro.learn.mlp.effective_quantize(np.ones((2, 32)), MX6)
    tracer.uninstall()
    assert before_uninstall is not repro.learn.quantized.effective_quantize
    assert [r["name"] for r in tracer.records()] == ["mx.quantize"]

    original = _bindings()
    tracer = Tracer()
    tracer.install(TARGETS)
    patched = _bindings()
    tracer.uninstall()
    assert _bindings() == original
    changed = [key for key in original if patched[key] is not original[key]]
    assert len(changed) >= len(TARGETS) - len(tracer.absent)


def test_uninstall_restores_bindings_imported_while_installed(
    tmp_path, monkeypatch
):
    package = tmp_path / "fakeprog"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text("def work():\n    return 1\n")
    (package / "late.py").write_text("from fakeprog.core import work\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakeprog.core

    original = fakeprog.core.work
    tracer = Tracer(prefix="fakeprog")
    tracer.install([Target("fakeprog.core.work", "work")])
    import fakeprog.late

    assert fakeprog.late.work is not original
    assert fakeprog.late.work() == 1
    tracer.uninstall()
    assert fakeprog.core.work is original
    assert fakeprog.late.work is original
    for name in ("fakeprog", "fakeprog.core", "fakeprog.late"):
        sys.modules.pop(name)


def test_missing_target_is_reported_absent_not_fatal():
    import repro.learn.quantized

    tracer = Tracer()
    tracer.install([
        Target("repro.no_such_layer.gone", "x"),
        Target("repro.learn.quantized.no_such_function", "y"),
        Target("repro.learn.quantized.effective_quantize", "mx.quantize"),
    ])
    try:
        assert set(tracer.absent) == {
            "repro.no_such_layer.gone",
            "repro.learn.quantized.no_such_function",
        }
        assert repro.learn.quantized.effective_quantize.__wrapped__
    finally:
        tracer.uninstall()
    assert not hasattr(repro.learn.quantized.effective_quantize, "__wrapped__")


# -- statistics ------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (40, 75.0), (60, 80.0), (100, 90.0),
     (160, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates_order_statistics():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    assert stats.percentile([5.0], 99) == 5.0


_PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (_PARENT, [v * 0.8 for v in _PARENT], "lower", "improved"),
        (_PARENT, [v * 1.25 for v in _PARENT], "higher", "improved"),
        (_PARENT, list(reversed(_PARENT)), "lower", "unchanged"),
        (_PARENT, [v * 1.05 for v in _PARENT], "lower", "unchanged"),
        (_PARENT, [v * 1.2 for v in _PARENT], "lower", "regressed"),
        (_PARENT, [v * 0.8 for v in _PARENT], "higher", "regressed"),
        ([1.0, 2.0] * 5, [2.0, 1.0] * 5, "lower", "unresolved"),
        ([1.0, 2.0] * 5, [3.0, 4.0] * 5, "lower", "regressed"),
        ([1.0, 2.0] * 5, [0.5, 0.6] * 5, "higher", "regressed"),
        ([1.0, 2.0] * 5, [0.9] * 10, "lower", "unchanged"),
        ([1.0, 2.0] * 5, [0.4] * 10, "lower", "improved"),
        (_PARENT[:5], [v * 0.8 for v in _PARENT[:5]], "lower", "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert stats.verdict(parent, change, 0.10, better) == expected


# -- metrics and the benchmark declaration --------------------------------


def test_window_phases_sum_to_latency():
    spans = [
        {"name": "transport.schedule", "start": 10.5, "end": 11.25,
         "self": 0.0, "attrs": {"cells": [["S1", 0, 120.0]]}},
        {"name": "journal.window", "start": 11.3, "end": 11.5, "self": 0.2,
         "attrs": {"stream": "k", "index": 1, "mode": "fresh"}},
    ]
    phases = window_phases({("k", 1): (10.0, ("S1", 0, 120.0))}, spans)
    assert phases == {"queue": [0.5], "compute": [0.75], "journal": [0.25]}
    assert sum(p[0] for p in phases.values()) == pytest.approx(1.5)


def test_benchmark_declaration_matches_the_harness():
    import workloads

    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)


def test_worker_memory_reads_the_peak_of_live_children():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; block = bytearray(64 << 20); "
         "block[::4096] = b'x' * len(block[::4096]); print(flush=True); "
         "sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        child.stdout.readline()
        with run.WorkerMemory(interval_s=0.01) as memory:
            threading.Event().wait(0.1)
    finally:
        child.communicate("")
    assert memory.peak_kib >= 64 << 10


def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__", "trace-*"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cell",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
