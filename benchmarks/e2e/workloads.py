"""The four workloads, each driven through a public entry point.

Every workload builds its inputs from the run's seed.  Its references are
computed by :meth:`references` in another process (the first cold start,
once its set-up is done), so neither the timed section nor the measuring
process's memory peak includes them.  :meth:`prepare` takes them and
warms up, :meth:`measure` times operations, and :meth:`check` compares
every output with the references afterwards.  One *operation* is what a
user waits for:

- ``cell``: one ``build_system`` + ``run_on_scenario`` of the Figure 9
  system on the next of its camera streams;
- ``sweep-subprocess`` and ``fleet-shared-batched``: one ``run_sweep``;
- ``serve-queue``: one window of a paced ``FleetService`` session, from
  its scheduled arrival to the return of the journal write that makes it
  durable.

Knobs are set only through stable interfaces -- spec keys, ``REPRO_*``
environment variables and ``backend=`` strings -- never through the
program's context managers or its ``repro.core.parallel`` facade, which
later refactors are free to move.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro.core
from repro.core import run_on_scenario, warm_model_caches
from repro.data.scenarios import SCENARIO_NAMES, build_scenario
from repro.errors import ExecutionError
from repro.exec import protocol
from repro.exec.shard import SystemCell
from repro.numeric import active_policy
from repro.reference import reference_path, run_digest
from repro.service import FleetService, ServiceConfig
from repro.sweep import compile_plan, run_sweep, spec_from_mapping

from trace import clock

__all__ = ["Bench", "Measurement", "Mismatch", "WORKLOADS", "set_up"]

SYSTEM = "DaCapo-Spatiotemporal"
PAIR = "resnet18_wrn50"
SWEEP_SCENARIOS = ("S1", "S2", "S3", "S4")

#: The Figure 9 cell whose 1200 s run the ROADMAP profiles.  Its system,
#: built at model seed 0 as in Figure 9's seed-0 cell, runs in turn on
#: the camera streams of seeds 4S .. 4S + 3 (at S = 0 the first is that
#: cell itself).  The work of one run varies with both seeds: over ten
#: seeds, the interquartile spread of its numpy dispatch count is 5% of
#: the median for model seeds alone and 8% for stream seeds alone.  One
#: fixed model and four disjoint streams per run bring it to about 3%;
#: every model seed would add a pretraining to each cold start, a stream
#: only a materialization.
CELL_SCENARIO = "S4"
CELL_DURATION_S = 1200.0
CELL_MODEL_SEED = 0
CELL_STREAMS = 4

#: Short cells, so spawn, import, handshake and codec are a large share.
SWEEP_SYSTEMS = (SYSTEM, "DaCapo-Ekya")
SWEEP_DURATION_S = 600.0

#: Worker processes of the workloads that have them; their memory counts
#: in ``peak_rss_mib``.
WORKERS = 2

#: Six streams whose windows land together every WINDOW_S / SPEEDUP
#: wall seconds (the deadline), served by two queue workers.  Two workers
#: drain a wave in pairs, so latency rises in steps of one window's
#: compute; with three steps the median and p75 fall inside a step, where
#: with four (eight streams) both sat on the edge between two steps and
#: swung by a step between runs.
WINDOW_S = 60.0
SPEEDUP = 40.0
SERVE_SCENARIOS = ("S1", "S2", "S3")

#: Two correlated cameras, seeds 2S and 2S + 1, on each of the eight
#: scenarios: sharing clusters each pair, and the eight clusters run as
#: eight lockstep lanes.  (Cameras of a single scenario form one cluster,
#: which runs as one lane and never batches.)  Over ten seeds, the
#: interquartile spread of a sweep's numpy dispatch count is 5-7% of the
#: median with eight scenarios, at 300, 600 or 1200 s, against 13% with
#: four scenarios at 1200 s.  At 300 s a sweep takes half as long as at
#: 600 s, so a run holds twice as many.
FLEET_SCENARIOS = SCENARIO_NAMES
FLEET_DURATION_S = 300.0


class Mismatch(Exception):
    """An output differs from its reference."""


@dataclass
class Bench:
    """One benchmark run's settings and scratch space.

    Attributes:
        seed: Workload seed; each workload derives its camera seeds from
            it (see the constants above).
        seconds: Measured seconds per run (a served stream's length
            follows from it).
        work: Private scratch directory inside the checkout.
        traced: Whether this is the traced run.
        tracer: The installed tracer while a traced section runs.
    """

    seed: int
    seconds: float
    work: Path | None = None
    traced: bool = False
    tracer: object | None = None
    _scratch: int = 0

    def scope(self, name: str):
        """A span around a harness operation while tracing, else nothing."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def scratch(self, stem: str) -> Path:
        """A fresh directory under the run's scratch space."""
        self._scratch += 1
        return self.work / f"{stem}-{self._scratch}"


@dataclass
class Measurement:
    """The timed section of one workload.

    Attributes:
        samples: Seconds per operation (``inf`` for a window that was not
            served fresh).
        attempted: Operations attempted.
        failed: Operations that failed.
        windows: Served windows, ``(stream, index) -> (arrival, cell)``,
            for the traced window-phase split.
        journal_bytes: Final session journal size.
    """

    samples: list[float]
    attempted: int
    failed: int = 0
    windows: dict = field(default_factory=dict)
    journal_bytes: int = 0

    @classmethod
    def join(cls, parts: list["Measurement"]) -> "Measurement":
        """The timed slices of one run as a single measurement."""
        return cls(
            samples=[sample for part in parts for sample in part.samples],
            attempted=sum(part.attempted for part in parts),
            failed=sum(part.failed for part in parts),
        )


def set_up(workload) -> None:
    """What ``setup_s`` times after the imports: pretraining every model the
    workload uses and materializing every stream it reads."""
    warm_model_caches(workload.cells)
    for scenario, duration_s, seed in workload.streams():
        build_scenario(scenario, duration_s=duration_s).materialize(seed)


class _Workload:
    """What every workload shares.

    Attributes:
        cells: The cells whose models set-up pretrains.
        sliced: Whether the timed section may be split into slices.
        workers: Worker processes the workload runs, whose memory counts.
    """

    name = ""
    sliced = True
    workers = 0
    cells: list

    def streams(self) -> list[tuple[str, float, int]]:
        """``(scenario, duration_s, seed)`` of every stream read."""
        return [(c.scenario, c.duration_s, c.seed) for c in self.cells]


def _spec(name, systems, scenarios, seeds, duration_s, sharing=None):
    head = {"name": name}
    if sharing is not None:
        head["sharing"] = sharing
    return spec_from_mapping({
        "sweep": head,
        "axes": {
            "systems": list(systems),
            "pairs": [PAIR],
            "scenarios": list(scenarios),
            "seeds": list(seeds),
            "durations": [duration_s],
        },
    })


def _plan_cells(plan) -> list:
    return [cell for group in plan.groups for cell in group.cells]


def _sweep_outputs(result) -> dict:
    """What two runs of one plan must agree on: every cell's digest and the
    per-cell and aggregate rows (the cost estimate depends on the worker
    count, so it is left out)."""
    document = result.extras["document"]
    return {
        "digests": [
            run_digest(run) for _, _, run in result.extras["results"]
        ],
        "rows": json.dumps(
            {"cells": document["cells"], "aggregate": document["aggregate"]},
            sort_keys=True,
        ),
    }


class Cell(_Workload):
    """The Figure 9 system, serial and in-process, on four camera streams."""

    name = "cell"

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.cell = SystemCell(
            SYSTEM, PAIR, CELL_SCENARIO, CELL_MODEL_SEED, CELL_DURATION_S
        )
        self.cells = [self.cell]
        self.stream_seeds = [
            CELL_STREAMS * bench.seed + k for k in range(CELL_STREAMS)
        ]
        self.reference: list[str] = []
        self.outputs: list[tuple[int, str]] = []

    def streams(self) -> list[tuple[str, float, int]]:
        return [
            (CELL_SCENARIO, CELL_DURATION_S, seed)
            for seed in self.stream_seeds
        ]

    def _run(self, stream: int) -> tuple[float, str]:
        cell = self.cell
        started = clock()
        with self.bench.scope("op"):
            # Looked up on the package at call time, so the traced run
            # sees the wrapped function.
            system = repro.core.build_system(
                cell.system, cell.pair, seed=cell.seed
            )
            result = run_on_scenario(
                system, cell.scenario, seed=self.stream_seeds[stream],
                duration_s=cell.duration_s,
            )
        return clock() - started, run_digest(result)

    def _next(self) -> float:
        """Run the next stream in turn; its seconds."""
        stream = len(self.outputs) % CELL_STREAMS
        elapsed, digest = self._run(stream)
        self.outputs.append((stream, digest))
        return elapsed

    def references(self) -> dict:
        return {
            "digests": [self._run(k)[1] for k in range(CELL_STREAMS)]
        }

    def prepare(self, references: dict) -> None:
        self.reference = references["digests"]
        self._next()  # warm-up, checked but untimed

    def measure(self, seconds: float) -> Measurement:
        samples = []
        started = clock()
        while clock() - started < seconds:
            samples.append(self._next())
        return Measurement(samples, attempted=len(samples))

    def check(self) -> None:
        if self.stream_seeds[0] == CELL_MODEL_SEED == 0:
            policy = active_policy().name
            key = (
                f"{SYSTEM}|{PAIR}|{CELL_SCENARIO}|seed0|{CELL_DURATION_S:g}s"
            )
            frozen = json.loads(reference_path(policy).read_text())
            expected = frozen["fig9"][key]["digest"]
            if self.reference[0] != expected:
                raise Mismatch(
                    f"cell seed 0 digest {self.reference[0][:16]} differs "
                    f"from the frozen {policy} fig9 entry {expected[:16]}"
                )
        for stream, digest in self.outputs:
            if digest != self.reference[stream]:
                raise Mismatch(
                    f"cell stream seed {self.stream_seeds[stream]}: digest "
                    f"{digest[:16]} differs from the reference run's "
                    f"{self.reference[stream][:16]}"
                )


class _Sweeps(_Workload):
    """Repeated sweeps of one plan; subclasses say how each runs."""

    def __init__(self, bench: Bench, plan) -> None:
        self.bench = bench
        self.plan = plan
        self.cells = _plan_cells(plan)
        self.reference: dict | None = None
        self.outputs: list[dict] = []

    def sweep(self):
        raise NotImplementedError

    def prepare(self, references: dict) -> None:
        self.reference = references
        self._timed()  # warm-up, checked but untimed

    def _timed(self) -> float:
        started = clock()
        with self.bench.scope("op"):
            result = self.sweep()
        elapsed = clock() - started
        self.outputs.append(_sweep_outputs(result))
        return elapsed

    def measure(self, seconds: float) -> Measurement:
        samples, failed = [], 0
        started = clock()
        while clock() - started < seconds:
            try:
                samples.append(self._timed())
            except ExecutionError:
                failed += 1
        return Measurement(
            samples, attempted=len(samples) + failed, failed=failed
        )

    def check(self) -> None:
        for index, outputs in enumerate(self.outputs):
            for part, what in (("digests", "cell digests"),
                               ("rows", "result rows")):
                if outputs[part] != self.reference[part]:
                    raise Mismatch(
                        f"{self.name} sweep {index}: {what} differ from "
                        "the reference run"
                    )


class SweepSubprocess(_Sweeps):
    """Sweeps over two subprocess workers, fresh per sweep, journal on."""

    name = "sweep-subprocess"
    workers = WORKERS

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench, compile_plan(_spec(
            "bench_subprocess", SWEEP_SYSTEMS, SWEEP_SCENARIOS, [bench.seed],
            SWEEP_DURATION_S,
        )))

    def sweep(self):
        out = self.bench.scratch("sweep")
        try:
            return run_sweep(
                self.plan, jobs=WORKERS, backend=f"subprocess:{WORKERS}",
                out_dir=out,
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def references(self) -> dict:
        return _sweep_outputs(run_sweep(self.plan, jobs=1, backend="serial"))


class FleetSharedBatched(_Sweeps):
    """Correlated cameras with cluster sharing and lockstep batching."""

    name = "fleet-shared-batched"

    def __init__(self, bench: Bench) -> None:
        # run_sweep follows the ambient sharing policy, so the environment
        # carries it; the spec key records it in the plan, as the CLI's
        # spec files do.
        super().__init__(bench, compile_plan(_spec(
            "bench_fleet", [SYSTEM], FLEET_SCENARIOS,
            [2 * bench.seed, 2 * bench.seed + 1],
            FLEET_DURATION_S, sharing="cluster",
        )))

    def sweep(self):
        return run_sweep(self.plan, jobs=1, backend="serial")

    def references(self) -> dict:
        os.environ["REPRO_SHARING"] = "cluster"
        os.environ["REPRO_BATCH"] = "off"
        return _sweep_outputs(self.sweep())

    def prepare(self, references: dict) -> None:
        os.environ["REPRO_SHARING"] = "cluster"
        os.environ["REPRO_BATCH"] = "on"
        super().prepare(references)


def _watch(service, stop: threading.Event, durable: dict) -> None:
    """Stamp each window when it becomes durable, polling every millisecond.

    A window enters ``log.windows`` inside ``record_window``, right after
    its fsync; polling keeps the untraced run free of any installed hook.
    """
    cursor: dict[str, int] = {}
    while True:
        done = stop.is_set()
        now = clock()
        for key, state in list(service.streams.items()):
            index = cursor.get(key, 0)
            while index in state.log.windows:
                durable[(key, index)] = now
                index += 1
            cursor[key] = index
        if done:
            return
        stop.wait(0.001)


class ServeQueue(_Workload):
    """One paced, open-loop ``FleetService`` session over two queue workers."""

    name = "serve-queue"
    sliced = False
    workers = WORKERS

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        # The first window of each stream is served but not timed (see
        # measure), so the timed windows span about ``seconds``.
        windows = 1 + max(1, round(bench.seconds * SPEEDUP / WINDOW_S))
        self.cameras = [
            SystemCell(SYSTEM, PAIR, scenario, seed, windows * WINDOW_S)
            for seed in (bench.seed, bench.seed + 1)
            for scenario in SERVE_SCENARIOS
        ]
        # Each window runs its stream's prefix, a stream of its own; set-up
        # materializes all of them, so every session starts equally warm.
        self.cells = [
            replace(stream, duration_s=(index + 1) * WINDOW_S)
            for stream in self.cameras
            for index in range(windows)
        ]
        self.finals: dict[str, str] = {}
        self.eager: dict[str, str] | None = None
        self.sessions: list[tuple[Path, dict]] = []

    def _session(self, speedup: float, backend: str):
        out = self.bench.scratch("serve")
        service = FleetService(
            ServiceConfig(
                out_dir=out, window_s=WINDOW_S, speedup=speedup,
                backend=backend, jobs=WORKERS,
            ),
            self.cameras,
        )
        return out, service

    def references(self) -> dict:
        """Each stream's serial full-cell digest and, for the traced run, the
        window records of an untraced eager serial session."""
        finals = {}
        for cell in self.cameras:
            system = repro.core.build_system(
                cell.system, cell.pair, seed=cell.seed
            )
            result = run_on_scenario(
                system, cell.scenario, seed=cell.seed,
                duration_s=cell.duration_s,
            )
            finals[_stream_name(cell)] = run_digest(result)
        eager = None
        if self.bench.traced:
            out, service = self._session(0.0, "serial")
            service.run()
            eager = {
                _record_name(key): line
                for key, line in _window_records(out).items()
            }
            shutil.rmtree(out, ignore_errors=True)
        return {"finals": finals, "eager": eager}

    def prepare(self, references: dict) -> None:
        # No warm-up: the first window of every stream is served untimed.
        self.finals = references["finals"]
        self.eager = references["eager"]

    def measure(self, seconds: float) -> Measurement:
        """One session; its length was fixed by the streams' duration."""
        out, service = self._session(SPEEDUP, f"queue:{WORKERS}")
        durable: dict = {}
        stop = threading.Event()
        watcher = threading.Thread(
            target=_watch, args=(service, stop, durable), daemon=True
        )
        handlers = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        watcher.start()
        try:
            with self.bench.scope("op"):
                service.run()
        finally:
            stop.set()
            watcher.join()
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        records = _window_records(out)
        samples, windows, attempted, failed = [], {}, 0, 0
        for key, state in service.streams.items():
            cell = state.log.cell
            for index in range(state.log.total_windows):
                record = records.get((key, index))
                fresh = (
                    record is not None
                    and json.loads(record)["mode"] == "fresh"
                )
                attempted += 1
                failed += not fresh
                if index == 0:
                    # The first windows land while the queue workers start
                    # up: a resident service pays that once, not per
                    # window, so they are served and checked but not timed.
                    continue
                arrival = state.pacer.arrival(index)
                windows[(key, index)] = (
                    arrival,
                    (cell.scenario, cell.seed, state.pacer.span(index)[1]),
                )
                samples.append(
                    durable[(key, index)] - arrival if fresh else float("inf")
                )
        self.sessions.append((out, {
            key: state.log.cell for key, state in service.streams.items()
        }))
        return Measurement(
            samples, attempted=attempted, failed=failed, windows=windows,
            journal_bytes=(out / "session.jsonl").stat().st_size,
        )

    def check(self) -> None:
        """Check every fresh window; stale and shed ones are already counted
        as failed, with an infinite latency."""
        for out, streams in self.sessions:
            records = _window_records(out)
            for (key, index), line in records.items():
                record = json.loads(line)
                if record["mode"] != "fresh":
                    continue
                result = protocol.decode_result(record["result"])
                if run_digest(result) != record["digest"]:
                    raise Mismatch(
                        f"serve window {key}#{index}: journaled digest does "
                        "not match its journaled result"
                    )
                if (
                    self.eager is not None
                    and self.eager.get(_record_name((key, index))) != line
                ):
                    raise Mismatch(
                        f"serve window {key}#{index}: record differs from "
                        "the untraced eager session's"
                    )
            for key, cell in streams.items():
                final = records.get(
                    (key, round(cell.duration_s / WINDOW_S) - 1)
                )
                if final is None or json.loads(final)["mode"] != "fresh":
                    continue
                if json.loads(final)["digest"] != self.finals[
                    _stream_name(cell)
                ]:
                    raise Mismatch(
                        f"serve stream {key}: final window differs from a "
                        "serial full-cell run"
                    )
            shutil.rmtree(out, ignore_errors=True)


def _stream_name(cell) -> str:
    return f"{cell.scenario}|{cell.seed}"


def _record_name(key: tuple) -> str:
    return f"{key[0]}#{key[1]}"


def _window_records(out: Path) -> dict[tuple, str]:
    """Every window record of a session journal, ``(stream, index) -> line``."""
    records = {}
    with (out / "session.jsonl").open() as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "window":
                records[(record["stream"], record["index"])] = line
    return records


WORKLOADS = {
    workload.name: workload
    for workload in (Cell, SweepSubprocess, ServeQueue, FleetSharedBatched)
}
