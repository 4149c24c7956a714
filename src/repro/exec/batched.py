"""Lockstep batched execution: advance K co-sharded lanes per numpy call.

The serial executor runs one cell's phase loop at a time, so a worker
serving K same-geometry cameras makes K times the numpy dispatches it
needs to.  :func:`run_lane_jobs` runs each *lane* of a shard -- one cell
job, or one sharing cluster's jobs in order (see
:func:`repro.exec.shard.execute_shard`) -- on its own thread executing the
completely unmodified per-cell code, and intercepts only the two functions
where all lane-relevant numpy work funnels: ``MLPClassifier.forward`` and
``train_sgd`` (see :func:`repro.batching.current_lane`).  Each intercepted
call becomes a request to the :class:`BatchConductor`; when every live
lane has submitted its next request, the last-arriving lane executes the
whole *round* inline:

- requests agreeing on kind, model geometry, dtype, operand shapes, and
  hyperparameters are stacked and run through the batched kernels
  (:class:`~repro.learn.mlp.BatchedMLPBank`,
  :func:`~repro.learn.train.train_sgd_batched`) -- one numpy call for the
  whole group, each result slice bitwise the serial result;
- requests with no shape-mate run the original serial code, so
  divergence (a drifted cell retraining while its neighbors infer, ragged
  final windows) costs only the batching, never correctness.

Lanes therefore stay in lockstep at *request* granularity -- each cell's
``RunResult``, snapshot, cluster state, and journal contract is untouched
-- and every result is bit-identical to the serial path regardless of how
the OS schedules the lane threads: a round's composition is each live
lane's next request (deterministic), groups are ordered by lane index,
and every stacked kernel is per-slice exact.

Determinism also makes the barrier deadlock-free: a lane either submits
its next request or finishes its jobs and deregisters, and either event
re-checks the ``pending == live`` round condition.

Profiling composes (the satellite fix in :mod:`repro.profiling`): each
lane absorbs its barrier-wait time, keeping only its fair share of each
round's compute inside the phase scope that submitted the request, so
``--profile`` totals still measure work rather than synchronization.
"""

from __future__ import annotations

import contextvars
import threading
import time

import numpy as np

from repro import profiling
from repro.batching import lane_scope, suspend_lane
from repro.errors import ConfigurationError
from repro.learn.mlp import BatchedMLPBank
from repro.learn.train import train_sgd, train_sgd_batched

__all__ = ["BatchConductor", "run_lane_jobs"]


def _geometry(model) -> tuple:
    return tuple(w.shape for w in model.weights) + (str(model.dtype),)


class _Request:
    """One intercepted model call, parked at the barrier until its round."""

    __slots__ = (
        "lane",
        "kind",
        "key",
        "model",
        "args",
        "result",
        "error",
        "charge",
        "done",
    )

    def __init__(self, lane, kind: str, key: tuple, model, args) -> None:
        self.lane = lane
        self.kind = kind
        self.key = key
        self.model = model
        self.args = args
        self.result = None
        self.error: BaseException | None = None
        self.charge = 0.0
        self.done = False


class _Lane:
    """One lane's interception point (installed thread-locally)."""

    __slots__ = ("conductor", "index")

    def __init__(self, conductor: "BatchConductor", index: int) -> None:
        self.conductor = conductor
        self.index = index

    def forward(self, model, x, fmt, sensitivity):
        key = (
            "forward",
            _geometry(model),
            np.shape(x),
            fmt,
            sensitivity,
        )
        return self.conductor.submit(
            _Request(self, "forward", key, model, (x, fmt, sensitivity))
        )

    def train(self, model, x, y, config, rng):
        key = (
            "train",
            _geometry(model),
            np.shape(x),
            np.shape(y),
            config,
        )
        return self.conductor.submit(
            _Request(self, "train", key, model, (x, y, config, rng))
        )


class BatchConductor:
    """The lockstep barrier grouping live lanes' requests into rounds.

    All model compute is serialized through the conductor: the round
    executes on exactly one thread while every other lane is parked at
    the barrier, so the serial kernels' thread-unsafe caches (quantized
    weights, pretrained models) never race.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ConfigurationError("a conductor needs at least one lane")
        self._cond = threading.Condition()
        self._live = lanes
        self._pending: list[_Request] = []
        self._banks: dict[tuple, BatchedMLPBank] = {}
        #: Round/request accounting (tests and benchmarks read these).
        self.rounds = 0
        self.batched_requests = 0
        self.serial_requests = 0

    def submit(self, request: _Request):
        """Park a lane's request until its round; return its result."""
        started = time.perf_counter()
        with self._cond:
            self._pending.append(request)
            if len(self._pending) >= self._live:
                self._run_round()
            else:
                while not request.done:
                    self._cond.wait()
        waited = time.perf_counter() - started
        # Keep only this cell's fair share of the round inside the phase
        # scope that submitted the call; the rest was synchronization.
        profiling.absorb(max(0.0, waited - request.charge))
        if request.error is not None:
            raise request.error
        return request.result

    def deregister(self) -> None:
        """A lane finished its jobs; release the barrier it was holding."""
        with self._cond:
            self._live -= 1
            if self._pending and len(self._pending) >= self._live:
                self._run_round()

    # -- round execution (caller holds the lock) -------------------------

    def _run_round(self) -> None:
        requests, self._pending = self._pending, []
        self.rounds += 1
        groups: dict[tuple, list[_Request]] = {}
        for request in requests:
            groups.setdefault(request.key, []).append(request)
        with suspend_lane():
            for group in groups.values():
                group.sort(key=lambda request: request.lane.index)
                started = time.perf_counter()
                try:
                    if len(group) == 1:
                        self._run_serial(group[0])
                    else:
                        self._run_batched(group)
                except Exception as exc:
                    for request in group:
                        request.error = exc
                charge = (time.perf_counter() - started) / len(group)
                for request in group:
                    request.charge = charge
                    request.done = True
        self._cond.notify_all()

    def _run_serial(self, request: _Request) -> None:
        """A request with no shape-mate runs the exact serial code."""
        self.serial_requests += 1
        if request.kind == "forward":
            x, fmt, sensitivity = request.args
            request.result = request.model.forward(x, fmt, sensitivity)
        else:
            x, y, config, rng = request.args
            request.result = train_sgd(request.model, x, y, config, rng)

    def _run_batched(self, group: list[_Request]) -> None:
        self.batched_requests += len(group)
        models = [request.model for request in group]
        if group[0].kind == "forward":
            fmt, sensitivity = group[0].args[1], group[0].args[2]
            bank = self._bank(models)
            xs = np.stack(
                [
                    np.asarray(request.args[0], dtype=bank.dtype)
                    for request in group
                ]
            )
            logits = bank.forward(xs, fmt, sensitivity)
            for k, request in enumerate(group):
                request.result = logits[k]
        else:
            config = group[0].args[2]
            losses = train_sgd_batched(
                models,
                [request.args[0] for request in group],
                [request.args[1] for request in group],
                config,
                [request.args[3] for request in group],
            )
            for k, request in enumerate(group):
                request.result = losses[k]

    def _bank(self, models) -> BatchedMLPBank:
        # Banks (and their stacked-weight caches) persist across rounds
        # for recurring membership.  Keying by id() is safe because the
        # cached bank holds strong references: an id cannot be reused
        # while its object is alive.
        key = tuple(id(model) for model in models)
        bank = self._banks.get(key)
        if bank is None:
            bank = BatchedMLPBank(models)
            self._banks[key] = bank
        return bank


def run_lane_jobs(jobs: list) -> list:
    """Run zero-arg callables in lockstep lanes; results in job order.

    Where :func:`repro.exec.shard.execute_shard` runs a batched shard's
    lanes: each callable runs on its own thread with a lane installed, in
    a copy of the caller's context so numeric/sharing/batching policies
    apply unchanged.  The first lane error is re-raised after every lane
    has finished.
    """
    count = len(jobs)
    if count == 0:
        return []
    conductor = BatchConductor(count)
    results: list = [None] * count
    errors: list[BaseException | None] = [None] * count

    def lane_main(index: int, job) -> None:
        try:
            with lane_scope(_Lane(conductor, index)):
                results[index] = job()
        except BaseException as exc:
            errors[index] = exc
        finally:
            conductor.deregister()

    threads = []
    for index, job in enumerate(jobs):
        context = contextvars.copy_context()
        threads.append(
            threading.Thread(
                target=context.run,
                args=(lane_main, index, job),
                name=f"batch-lane-{index}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results
