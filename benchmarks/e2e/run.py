"""End-to-end benchmark of the DaCapo reproduction: run, sweep, serve, fleet.

One run measures one workload for ``--seconds`` and prints, as the last
line of standard output, ``{"correct", "attempted", "failed",
"metrics"}``::

    python3 benchmarks/e2e/run.py --workload cell --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same workload untraced and then traced, and prints the per-layer split
(see ``layers.py``) with the tracing overhead.  Two subcommands work on
``results/TRAJECTORY.jsonl``::

    python3 benchmarks/e2e/run.py record --sets 2 --runs 10
    python3 benchmarks/e2e/run.py compare -2 -1

``record`` runs every workload at seeds 0..runs-1, interleaving the sets
run by run, and appends one row per set; ``compare A B`` judges every
(metric, workload) of row B against row A.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path

from layers import PER_LAYER, TARGETS, layer_metrics, window_phases
from stats import percentile, quartiles, spread, tail_percentile, verdict
from trace import Tracer, clock, load_groups, self_times, write_groups

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
TRAJECTORY = RESULTS / "TRAJECTORY.jsonl"
WORK = HERE / ".work"

#: (metric, unit) printed by an untraced run, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_s", "s"),
)

#: Fresh processes, each with an empty private cache, that setup_s is the
#: median of.
COLD_STARTS = 3

#: glibc's ``mallopt`` parameter for the most arenas it may create.
M_ARENA_MAX = -8


class NoResult(Exception):
    """The run measured nothing it can report."""

WORKLOAD_NAMES = ("cell", "sweep-subprocess", "serve-queue",
                  "fleet-shared-batched")


def knob_env() -> dict[str, str]:
    """The thread-count and ``REPRO_*`` variables this process started with."""
    return {
        name: value
        for name, value in sorted(os.environ.items())
        if name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        or name.startswith("REPRO_")
    }


def host() -> dict:
    """What a result row records about the machine and interpreter."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(load, 2) for load in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": knob_env(),
    }


def one_malloc_arena() -> None:
    """Make every thread of this process allocate from one glibc arena.

    By default glibc gives threads arenas of their own, and once a large
    block is freed it serves large blocks from the heap instead of
    ``mmap``.  The fleet's eight lane threads then leave fragmented heap
    behind that grows from sweep to sweep by a different amount in each
    run: the peak RSS of ten sweeps at seed 0 came to 190-200 MiB, and
    over ten seeds its interquartile spread reached 19% of the median.
    With one arena it settles after the first sweep, at 135-136 MiB in
    each of five such runs, and a sweep takes as long.  Called before
    any thread starts; a C library without ``mallopt`` has no such
    arenas.
    """
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (AttributeError, OSError):
        pass


def _load_program():
    """The workloads module, which imports the program from ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(
            f"run.py: cannot import the program from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return workloads


# -- one run ---------------------------------------------------------------


def _cold_start(args, cache: Path, references: Path | None = None) -> float:
    """Seconds from launching a fresh process until its set-up is done.

    With ``references``, the process goes on, untimed, to compute the
    workload's references and write them there as JSON.
    """
    cache.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--cold-start",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
    ]
    if references is not None:
        command += ["--references", str(references)]
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    started = clock()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env
    ) as child:
        line = child.stdout.readline()
        elapsed = clock() - started
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(
            f"cold start exited {child.returncode} without finishing"
        )
    return elapsed


def _cold_start_main(args, workloads) -> int:
    """The cold-start process: set up, say so, then compute references."""
    bench = workloads.Bench(seed=args.seed, seconds=args.seconds,
                            traced=args.trace)
    workload = workloads.WORKLOADS[args.workload](bench)
    workloads.set_up(workload)
    print("ready", flush=True)
    if args.references is not None:
        bench.work = args.references.with_suffix("")
        args.references.write_text(json.dumps(workload.references()))
    return 0


class WorkerMemory:
    """Peak resident memory of this process's workers while it is entered.

    A thread reads each live child process's ``VmHWM`` (its own peak) from
    ``/proc`` every ``interval_s``; the peak is the largest sum over the
    children alive at one reading.  Growth in the last interval before a
    worker exits is missed; workers stay alive, idle, until their backend
    closes, so that is rarely any.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _read(self) -> None:
        total = 0
        for listing in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
            try:
                pids = listing.read_text().split()
            except OSError:
                continue
            for pid in pids:
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:
                    continue  # exited since the listing
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._read()

    def __enter__(self) -> "WorkerMemory":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _worker_spans(directory: Path, since: float):
    """``(meta, spans)`` of each worker process started at or after ``since``."""
    groups = []
    for path in sorted(directory.glob("*.jsonl")):
        groups.extend(
            (meta, spans) for meta, spans in load_groups(str(path))
            if meta["start"] >= since
        )
    return groups


def _report_latency(samples: list[float]) -> None:
    finite = [sample for sample in samples if sample != float("inf")]
    tail = tail_percentile(len(samples))
    line = (
        f"latency: n={len(samples)} p50={percentile(samples, 50):.4f}s "
        f"p90={percentile(samples, 90):.4f}s "
        f"max={max(finite, default=float('nan')):.4f}s"
    )
    if tail is None:
        line += "; under 20 samples, so no percentile has 10 beyond it"
    else:
        line += f"; highest percentile with 10 beyond: p{tail:g}="
        line += f"{percentile(samples, tail):.4f}s"
    print(line)


def _overlap(start: float, end: float, spans) -> float:
    return sum(
        max(0.0, min(end, span["end"]) - max(start, span["start"]))
        for span in spans
    )


def _findings(name: str, layer: dict, spans, measured) -> list[str]:
    """Answers to the ROADMAP's questions that this workload's trace gives."""
    lines = []
    ops = len(measured.samples)
    if name == "cell":
        retrain = layer["core.retrain.s"]
        lines.append(
            "ROADMAP 1(c): MX fake-quantize is "
            f"{100 * layer['core.retrain.mx_share']:.1f}% of inclusive "
            "retrain time"
        )
        wall = sum(measured.samples)
        lines.append(
            f"unattributed: {layer['unattributed_s']:.4f}s of {wall:.4f}s "
            f"operation wall ({100 * layer['unattributed_s'] / wall:.2f}%; "
            f"target <= 5%); retrain self {retrain:.4f}s"
        )
    elif name == "fleet-shared-batched":
        # Lane threads run everything but the harness's and the dispatch
        # path's spans; their non-waiting self time is the sweep's compute.
        main = {"op", "batched.lanes", "transport.schedule", "transport.run"}
        compute = sum(
            span["self"] for span in spans
            if span["name"] not in main and span["name"] != "batched.wait"
        )
        lines.append(
            f"ROADMAP 1(a), per sweep of {sum(measured.samples) / ops:.4f}s: "
            f"lane compute {compute / ops:.4f}s, of which MX quantize "
            f"{layer['mx.quantize.s'] / ops:.4f}s, stacked kernels "
            f"{layer['learn.batched.s'] / ops:.4f}s, phase loop "
            f"{layer['core.loop.s'] / ops:.4f}s, serial forward/train "
            f"{(layer['learn.forward.s'] + layer['learn.train.s']) / ops:.4f}s;"
            f" barrier wait {layer['batched.wait_s'] / ops:.4f}s summed over "
            f"lanes; {100 * layer['batched.stacked_ratio']:.1f}% of "
            f"{layer['batched.requests']:.0f} requests stacked; "
            f"{layer['learn.dispatches'] / ops:.0f} numpy dispatches per sweep"
        )
    elif name == "sweep-subprocess":
        shards = max(layer["transport.shards"], 1)
        workers = max(layer["transport.workers_spawned"], 1)
        spawn = sum(
            span["self"] for span in spans if span["name"] == "transport.spawn"
        )
        codec = layer["protocol.encode.s"] + layer["protocol.decode.s"]
        lines.append(
            "ROADMAP 1(b): per shard, transport overhead "
            f"{layer['transport.overhead_s'] / shards:.4f}s; per worker, "
            f"import {layer['transport.worker_import_s'] / workers:.4f}s, "
            f"launch until handshake {spawn / workers:.4f}s (parent side, "
            f"includes import); codec {codec / shards:.4f}s per shard "
            f"(both sides); {layer['transport.shards']:.0f} shards, "
            f"{layer['transport.workers_spawned']:.0f} workers"
        )
    elif name == "serve-queue":
        compactions = [s for s in spans if s["name"] == "journal.compact"]
        pairs = [
            (arrival, arrival + latency)
            for (arrival, _), latency in zip(
                measured.windows.values(), measured.samples
            )
        ]
        threshold = percentile(measured.samples, 90)
        tail = [(a, b) for a, b in pairs if b - a >= threshold]
        blocked = sum(_overlap(a, b, compactions) for a, b in tail)
        waited = sum(b - a for a, b in tail)
        lines.append(
            "journal compaction overlaps "
            f"{100 * blocked / waited:.1f}% of the latency of the "
            f"{len(tail)} windows at or beyond p90 "
            f"({len(compactions)} compactions)"
        )
    return lines


def run(args) -> int:
    workloads = _load_program()
    if args.cold_start:
        return _cold_start_main(args, workloads)
    work = WORK / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Everything the program or its workers write stays in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    bench = workloads.Bench(
        seed=args.seed, seconds=args.seconds, work=work, traced=args.trace
    )
    try:
        result = _measure(args, workloads, bench)
    except workloads.Mismatch as exc:
        print(f"run.py: output check failed: {exc}", file=sys.stderr)
        return 1
    except NoResult as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _measure(args, workloads, bench) -> dict:
    """Set up, prepare, time and check one workload; the result object."""
    workload = workloads.WORKLOADS[args.workload](bench)
    print(f"workload {workload.name} seed {args.seed} seconds "
          f"{args.seconds:g} trace {int(args.trace)}; host {host()}")
    tracer = Tracer()
    if args.trace:
        references = bench.work / "references.json"
        _cold_start(args, bench.work / "reference-cache", references)
        os.environ["REPRO_CACHE_DIR"] = str(bench.work / "cache")
        tracer.install(TARGETS)
        with tracer.span("setup") as setup:
            workloads.set_up(workload)
        tracer.uninstall()
        workload.prepare(json.loads(references.read_text()))
        untraced = workload.measure(args.seconds)
        _report_latency(untraced.samples)
        traced, layer = _traced_section(
            workload, bench, tracer, tracer.records(setup[1], setup[2]),
            untraced,
        )
        measured = [untraced, traced]
    else:
        setups, measured, workers_kib = _untraced_section(
            args, workloads, workload, bench
        )
        print("setup_s: cold starts " + ", ".join(f"{s:.4f}" for s in setups))
        untraced = workloads.Measurement.join(measured)
        _report_latency(untraced.samples)
    workload.check()
    print("outputs match their references")
    if args.trace:
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        latency = percentile(untraced.samples, 50)
        if not math.isfinite(latency):
            raise NoResult(
                f"{untraced.failed} of {untraced.attempted} operations "
                "failed, so the median latency is undefined"
            )
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"peak_rss_mib: this process {own_kib / 1024:.1f} MiB, its "
              f"workers together {workers_kib / 1024:.1f} MiB")
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": (own_kib + workers_kib) / 1024.0,
            "latency_p50_s": latency,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": True,
        "attempted": sum(m.attempted for m in measured),
        "failed": sum(m.failed for m in measured),
        "metrics": metrics,
    }


def _untraced_section(args, workloads, workload, bench):
    """The cold starts and the timed section; ``(setup seconds,
    measurements, peak KiB of the workers together)``.

    The first cold start also computes the references.  The host's speed
    drifts over tens of seconds, so every workload but the single serve
    session is timed in slices between the cold starts: its samples then
    span more of the run's wall time.
    """
    first = bench.work / "cold-0"
    references = bench.work / "references.json"
    setups = [_cold_start(args, first, references)]
    os.environ["REPRO_CACHE_DIR"] = str(first)
    workloads.set_up(workload)
    workload.prepare(json.loads(references.read_text()))
    memory = WorkerMemory()
    slices = COLD_STARTS if workload.sliced else 1
    measured = []
    for index in range(COLD_STARTS):
        if index:
            setups.append(_cold_start(args, bench.work / f"cold-{index}"))
        if index < slices:
            with memory if workload.workers else nullcontext():
                measured.append(workload.measure(args.seconds / slices))
    return setups, measured, memory.peak_kib


def _traced_section(workload, bench, tracer, setup_spans, untraced):
    """Measure again with every target wrapped (the workers too); write the
    spans to ``results/trace-<workload>.jsonl``; the per-layer metrics."""
    from repro.learn import ops

    span_dir = bench.work / "spans"
    span_dir.mkdir()
    os.environ["REPRO_WORKER_CMD"] = shlex.join(
        [sys.executable, str(HERE / "traced_worker.py")]
    )
    os.environ["TRACE_DIR"] = str(span_dir)
    dispatches = ops.dispatch_count()
    tracer.install(TARGETS)
    bench.tracer = tracer
    begin = clock()
    try:
        traced = workload.measure(bench.seconds)
    finally:
        bench.tracer = None
        tracer.uninstall()
        os.environ.pop("TRACE_DIR")
        os.environ.pop("REPRO_WORKER_CMD")
    dispatches = ops.dispatch_count() - dispatches
    _report_latency(traced.samples)

    meta = {
        "role": "benchmark", "pid": os.getpid(), "workload": workload.name,
        "seed": bench.seed, "absent": tracer.absent,
    }
    workers = _worker_spans(span_dir, begin)
    groups = [
        ({**meta, "phase": "setup"}, setup_spans),
        ({**meta, "phase": "timed"}, tracer.records(since=begin)),
        *workers,
    ]
    RESULTS.mkdir(exist_ok=True)
    write_groups(str(RESULTS / f"trace-{workload.name}.jsonl"), groups)
    files = [records for _, records in groups[1:]]
    metas = [meta for meta, _ in workers]
    spans = [span for records in files for span in records]
    layer = layer_metrics(
        files, metas,
        dispatches=dispatches,
        journal_bytes=traced.journal_bytes,
        setup_spans=setup_spans,
        phases=window_phases(traced.windows, spans),
        trace_overhead=(
            statistics.median(traced.samples)
            / statistics.median(untraced.samples)
        ),
    )
    _report_trace(workload.name, layer, spans, tracer.absent, metas)
    for line in _findings(workload.name, layer, spans, traced):
        print(line)
    return traced, layer


def _report_trace(name, layer, spans, absent, metas) -> None:
    print(f"self time by span over the traced section of {name} "
          f"({len(metas)} worker processes merged):")
    for span_name, (seconds, calls) in sorted(
        self_times(spans).items(), key=lambda item: -item[1][0]
    ):
        print(f"  {span_name:24s} {seconds:10.4f}s {calls:8d} calls")
    for path, reason in sorted(absent.items()):
        print(f"absent target {path}: {reason}")
    unused = [
        metric for metric, _, _ in PER_LAYER
        if layer[metric] == 0 and metric != "trace_overhead"
    ]
    if unused:
        print("zero in this workload (its layer is not exercised): "
              + ", ".join(unused))


# -- record and compare ----------------------------------------------------


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def record(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py record")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES))
    parser.add_argument("--out", type=Path, default=TRAJECTORY)
    args = parser.parse_args(argv)
    spec = _benchmark()
    rows = [
        {
            "commit": _git("rev-parse", "HEAD") or "unknown",
            "src_modified": bool(_git("status", "--porcelain", "--", "src")),
            **host(),
            "run_seconds": spec["run_seconds"],
            "workloads": {name: [] for name in args.workloads},
        }
        for _ in range(args.sets)
    ]
    for name in args.workloads:
        for seed in range(args.runs):
            for row in rows:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds",
                    str(spec["run_seconds"]), "--trace", "0",
                ]
                done = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True
                )
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    raise SystemExit(f"{name} seed {seed} failed")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                row["workloads"][name].append({
                    "seed": seed,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        metric: entry["value"]
                        for metric, entry in result["metrics"].items()
                    },
                })
                print(f"{name} seed {seed}: {result['metrics']}", flush=True)
    args.out.parent.mkdir(exist_ok=True)
    with args.out.open("a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workloads:
        for metric, bound in bounds.items():
            sets = [
                [run["metrics"][metric] for run in row["workloads"][name]]
                for row in rows
            ]
            medians = [statistics.median(values) for values in sets]
            shift = max(medians) / min(medians) - 1.0
            print(
                f"{name:22s} {metric:14s} bound {bound:.2f} spreads "
                + " ".join(f"{spread(values):.4f}" for values in sets)
                + f" median shift {shift:.4f}"
            )
    return 0


def _select(rows: list[dict], key: str) -> dict:
    try:
        return rows[int(key)]
    except ValueError:
        matches = [row for row in rows if row["commit"].startswith(key)]
        if len(matches) != 1:
            raise SystemExit(f"{key!r} names {len(matches)} rows, not one")
        return matches[0]


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="row index (negative from the end) or "
                        "commit prefix of the parent")
    parser.add_argument("b", help="the same for the change")
    parser.add_argument("--file", type=Path, default=TRAJECTORY)
    args = parser.parse_args(argv)
    rows = [json.loads(line) for line in args.file.read_text().splitlines()]
    parent, change = _select(rows, args.a), _select(rows, args.b)
    print(f"A {parent['commit'][:12]} load {parent['loadavg']}  "
          f"B {change['commit'][:12]} load {change['loadavg']}")
    for name in WORKLOAD_NAMES:
        if name not in parent["workloads"] or name not in change["workloads"]:
            continue
        counts = [
            [sum(r[key] for r in row["workloads"][name])
             for key in ("failed", "attempted")]
            for row in (parent, change)
        ]
        rose = counts[1][0] * counts[0][1] > counts[0][0] * counts[1][1]
        print(
            f"{'failed':14s} {name:22s} A {counts[0][0]}/{counts[0][1]}  "
            f"B {counts[1][0]}/{counts[1][1]}  "
            + ("failures rose" if rose else "no rise")
        )
    for entry in _benchmark()["end_to_end"]:
        metric = entry["name"]
        for name in WORKLOAD_NAMES:
            if name not in parent["workloads"] or name not in change["workloads"]:
                continue
            before = [r["metrics"][metric] for r in parent["workloads"][name]]
            after = [r["metrics"][metric] for r in change["workloads"][name]]
            q = [quartiles(before), quartiles(after)]
            print(
                f"{metric:14s} {name:22s} "
                f"A {q[0][1]:.4f} [{q[0][0]:.4f}, {q[0][2]:.4f}]  "
                f"B {q[1][1]:.4f} [{q[1][0]:.4f}, {q[1][2]:.4f}]  "
                + verdict(before, after, entry["bound"], entry["better"])
            )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["record"]:
        return record(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--references", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    args.trace = bool(args.trace)
    one_malloc_arena()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
