"""The scheduler: backoff/quarantine retry, completion journal, merge.

Layered on any :class:`~repro.exec.backends.ExecutionBackend`:

- **Retry.**  A shard whose outcome is a retriable
  :class:`~repro.exec.shard.ShardFailure` is resubmitted (fresh pool /
  replacement worker) up to :data:`DEFAULT_MAX_ATTEMPTS` times; workers
  observed failing are excluded from later attempts.  Retries are paced
  by *per-shard exponential backoff with deterministic jitter*
  (:func:`backoff_delay`): each failed shard waits
  ``base * 2**(attempt-1)`` seconds scaled by a jitter derived from
  ``sha256(shard key, attempt)`` -- reproducible run to run, yet
  decorrelated across shards, so a fleet-wide hiccup does not resubmit
  every shard in lockstep.  Retrying is *safe* because shard execution is
  deterministic -- a retried shard reproduces the original results
  bit-identically -- and only when every attempt is spent does the typed
  failure propagate, naming the cells that are missing.
- **Quarantine.**  A *poison shard* -- one observed killing
  :data:`DEFAULT_QUARANTINE_AFTER` distinct workers -- is quarantined
  rather than retried to the attempts bound: its input reliably destroys
  whatever executes it, so feeding it more of the fleet converts one bad
  shard into a dead fleet.  The typed :class:`ShardQuarantined` failure
  names the shard's cells and the workers it took down.
- **Journal.**  :class:`SweepJournal` appends one JSON line per completed
  shard (cell keys + bit-exact encoded results) under the sweep's output
  directory.  ``repro sweep --resume`` reloads it, skips every finished
  cell, and re-merges the decoded results into the final document --
  identical to an uninterrupted run.  Entries are keyed per *cell* (pure
  content, no worker count), so a journal written at ``--jobs 8`` resumes
  correctly at ``--jobs 1``.  The file is a :class:`repro.journal.Journal`,
  shared with the fleet service's session journal: the header lands
  atomically, every record is fsynced -- with the directory entry --
  before the scheduler moves on, resume cuts the torn final line a kill
  leaves, and any other damaged line refuses the resume, naming the line.

Failure ordering: when a batch produces both successes and a fatal
(non-retriable) failure, every success is processed -- journaled,
``on_complete`` fired -- *before* the failure raises.  Anything less
silently discards finished work: a ``--resume`` would recompute shards
that had already completed.

:func:`execute_cells` is the one engine everything routes through:
``run_cells``, the figure experiments behind it, and ``run_sweep`` -- it
plans shards, dispatches through the scheduler, restores submission
order, and folds worker profile snapshots into the parent's profiler.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import profiling
from repro.cache import CACHE_ENV
from repro.core.results import RunResult
from repro.core.runner import SystemCell, warm_model_caches
from repro.errors import ConfigurationError
from repro.exec import faults, protocol
from repro.exec.backends import ExecutionBackend
from repro.exec.shard import (
    ShardFailure,
    ShardQuarantined,
    ShardResult,
    ShardSpec,
    cell_key,
    make_shard_specs,
    note_shard_observation,
)
from repro.journal import Journal

__all__ = [
    "DEFAULT_BACKOFF_BASE_S",
    "DEFAULT_BACKOFF_CAP_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_QUARANTINE_AFTER",
    "JOURNAL_VERSION",
    "Scheduler",
    "SweepJournal",
    "backoff_delay",
    "execute_cells",
]

#: Times a shard may be attempted before its failure propagates.
DEFAULT_MAX_ATTEMPTS = 3

#: First-retry backoff; doubles per subsequent attempt.
DEFAULT_BACKOFF_BASE_S = 0.25

#: Ceiling on any single backoff wait.
DEFAULT_BACKOFF_CAP_S = 30.0

#: Distinct workers a shard may kill before it is quarantined as poison.
#: Matches :data:`DEFAULT_MAX_ATTEMPTS` so the default contract -- a shard
#: may be attempted three times -- is unchanged; when all three failures
#: came from *distinct* workers the richer quarantine diagnosis replaces
#: the plain exhaustion error.  Lower it (e.g. with a larger attempts
#: budget) to cut off poison shards before they chew through the bound.
DEFAULT_QUARANTINE_AFTER = 3

#: Schema version of the journal file.
JOURNAL_VERSION = 1


def backoff_delay(
    shard_key: str,
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
) -> float:
    """Seconds to wait before retrying ``shard_key`` after ``attempt`` failures.

    Exponential (``base * 2**(attempt-1)``) with *deterministic* jitter:
    the multiplier in [1, 2) derives from ``sha256(shard_key, attempt)``,
    so two runs of the same plan pace identically (reproducible tests,
    comparable benchmarks) while different shards failing together fan
    their retries out instead of stampeding the fleet in lockstep.
    """
    if base_s <= 0:
        return 0.0
    digest = hashlib.sha256(f"{shard_key}|{attempt}".encode()).digest()
    jitter = 1.0 + int.from_bytes(digest[:8], "big") / 2**64
    return min(cap_s, base_s * (2 ** (attempt - 1)) * jitter)


@dataclass
class _PendingShard:
    """Book-keeping for one not-yet-completed shard."""

    index: int
    spec: ShardSpec
    attempts: int = 0
    not_before: float = 0.0
    killers: set = field(default_factory=set)


class Scheduler:
    """Run shard specs through a backend with backoff/quarantine retry.

    Args:
        backend: The transport executing shards.
        max_attempts: Attempts per shard before its failure propagates.
        on_complete: Called with ``(spec, shard_result)`` as each shard
            finishes (journaling hook); exceptions it raises abort the
            run immediately -- completed shards stay journaled.
        backoff_base_s: First-retry wait (doubles per attempt, seeded
            jitter; see :func:`backoff_delay`).  0 retries immediately --
            what in-process tests want.
        backoff_cap_s: Ceiling on any single backoff wait.
        quarantine_after: Distinct workers a shard may kill before it is
            quarantined as poison (:class:`ShardQuarantined`) instead of
            being fed more of the fleet.  Backends with anonymous workers
            (the process pool) never identify killers, so there the
            attempts bound governs alone.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        on_complete: Callable[[ShardSpec, ShardResult], None] | None = None,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.backend = backend
        self.max_attempts = max_attempts
        self.on_complete = on_complete
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.quarantine_after = quarantine_after

    def run(self, specs: Sequence[ShardSpec]) -> list[ShardResult]:
        """Execute every spec, retrying failures; outcomes align with input.

        Raises:
            ShardQuarantined: A poison shard killed ``quarantine_after``
                distinct workers; it is non-retriable by construction.
            ShardFailure: A shard still failed after ``max_attempts``
                attempts (the last failure, stamped with the count), or
                failed non-retriably (a deterministic in-cell error).
        """
        outcomes: list[ShardResult | None] = [None] * len(specs)
        pending = [
            _PendingShard(index, spec) for index, spec in enumerate(specs)
        ]
        excluded: set[str] = set()
        while pending:
            now = time.monotonic()
            ready = [entry for entry in pending if entry.not_before <= now]
            if not ready:
                # Every remaining shard is inside its backoff window.
                time.sleep(
                    min(entry.not_before for entry in pending) - now
                )
                continue
            waiting = [entry for entry in pending if entry.not_before > now]
            results = self.backend.run(
                [entry.spec for entry in ready],
                excluded=frozenset(excluded),
            )
            # A fatal outcome is *deferred* to the end of the batch:
            # successes that share the batch must reach on_complete (be
            # journaled) first, or a --resume recomputes finished work.
            fatal: ShardFailure | None = None
            retry: list[_PendingShard] = []
            for position, entry in enumerate(ready):
                spec = entry.spec
                # Never trust the backend's alignment: a short or
                # misfilled outcome list (e.g. a dispatch thread dying)
                # must not masquerade as completed shards.
                outcome = (
                    results[position] if position < len(results) else None
                )
                if not isinstance(outcome, (ShardResult, ShardFailure)):
                    outcome = ShardFailure(
                        "backend returned no outcome for the shard",
                        shard_key=spec.key,
                    )
                if isinstance(outcome, ShardResult):
                    outcomes[entry.index] = outcome
                    if self.on_complete is not None:
                        self.on_complete(spec, outcome)
                    continue
                entry.attempts += 1
                if not outcome.retriable:
                    # A cell raised deterministically inside a healthy
                    # worker: recomputing it would reproduce the
                    # exception, so it surfaces (after the batch's
                    # successes are journaled) -- as the original
                    # exception when it is available in-process, keeping
                    # the error contract identical to the serial path.
                    fatal = fatal or outcome
                    continue
                if outcome.worker:
                    excluded.add(outcome.worker)
                    entry.killers.add(outcome.worker)
                if len(entry.killers) >= self.quarantine_after:
                    fatal = fatal or ShardQuarantined(
                        f"poison shard: killed {len(entry.killers)} "
                        "distinct workers, quarantined as non-retriable",
                        shard_key=spec.key,
                        cells=outcome.cells,
                        worker=", ".join(sorted(entry.killers)),
                        attempts=entry.attempts,
                        cause=outcome.cause,
                    )
                    continue
                if entry.attempts >= self.max_attempts:
                    fatal = fatal or outcome.with_attempts(entry.attempts)
                    continue
                entry.not_before = time.monotonic() + backoff_delay(
                    spec.key,
                    entry.attempts,
                    self.backoff_base_s,
                    self.backoff_cap_s,
                )
                retry.append(entry)
            if fatal is not None:
                if (
                    not fatal.retriable
                    and fatal.cause_exception is not None
                ):
                    raise fatal.cause_exception from fatal
                raise fatal
            pending = waiting + retry
        return outcomes  # type: ignore[return-value]


class SweepJournal:
    """Append-only per-shard completion log backing ``sweep --resume``.

    One header line pins the journal to a specific compiled plan (via a
    content fingerprint); each subsequent line records one completed
    shard as ``{cell key -> bit-exact encoded RunResult}``; a record of
    any other kind, a shard record without its entries, or an entry
    whose key is not one of the plan's ``keys`` is damage.  The file
    half -- atomic header, fsynced append, cutting the torn final line a
    kill leaves, refusing any other damaged line or a journal whose
    fingerprint does not match the plan being resumed -- is
    :class:`repro.journal.Journal`.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        keys: Iterable[str],
        *,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self._keys = frozenset(keys)
        self._completed: dict[str, RunResult] = {}
        self._journal = Journal(
            self.path,
            "sweep",
            JOURNAL_VERSION,
            fingerprint,
            mismatch="belongs to a different sweep plan (spec, policies, "
            "or cells changed)",
            remedy="rerun without --resume or point --out elsewhere",
        )
        self._journal.open(self._replay, resume=resume)

    def _replay(self, record: dict) -> None:
        if record["kind"] != "shard":
            raise ValueError(f"unknown record kind {record['kind']!r}")
        for entry in record["entries"]:
            key = entry["key"]
            if key not in self._keys:
                raise ValueError(f"cell key {key!r} is not in the plan")
            self._completed[key] = protocol.decode_result(entry["result"])

    def __len__(self) -> int:
        return len(self._completed)

    def lookup(self, key: str) -> RunResult | None:
        """The journaled result for one cell key, if it completed."""
        return self._completed.get(key)

    def record(self, spec: ShardSpec, result: ShardResult) -> None:
        """Append one completed shard (fsynced -- file and directory --
        before returning), so a kill immediately after never loses it."""
        entries = [
            {
                "key": cell_key(spec.policies.numeric.name, cell),
                "result": protocol.encode_result(run),
            }
            for cell, run in zip(spec.cells, result.results)
        ]
        torn = faults.journal_fault(spec.key)
        self._journal.append(
            {"kind": "shard", "shard": spec.key, "entries": entries},
            torn=torn,
        )
        if torn is not None:
            # Injected kill mid-append: a prefix of the line is on disk,
            # exactly the torn tail the next --resume cuts.
            raise ShardFailure(
                "injected torn journal write "
                f"({faults.FAULT_PLAN_ENV} plan)",
                shard_key=spec.key,
            )
        for entry, run in zip(entries, result.results):
            self._completed[entry["key"]] = run


def execute_cells(
    cells: Sequence,
    *,
    backend: ExecutionBackend,
    workers: int,
    on_complete: Callable[[ShardSpec, ShardResult], None] | None = None,
) -> list[RunResult]:
    """Plan, dispatch, retry, and reassemble one grid of cells.

    The single engine behind ``run_cells`` and ``run_sweep``: shards the
    grid by stream signature for ``workers``, runs the shards through
    ``backend`` under a retrying :class:`Scheduler`, restores submission
    order from the carried indices, feeds each shard's wall time back to
    the planner's cost weights, and folds worker profile snapshots into
    the parent's active profiler.  Results are bit-identical across
    backends and worker counts.
    """
    cells = list(cells)
    for cell in cells:
        if not isinstance(cell, SystemCell):
            raise ConfigurationError(
                f"unknown grid cell type {type(cell)!r}"
            )
    if not cells:
        return []
    multiprocess = backend.name != "serial"
    if multiprocess:
        # Parent-side pretraining warms the in-process caches forked pool
        # workers inherit and the on-disk tier subprocess workers read.
        warm_model_caches(cells)
    profiler = profiling.active()
    specs = make_shard_specs(
        cells,
        workers if multiprocess else 1,
        # Serial shards run under the parent profiler directly; only
        # other-process shards profile themselves and ship snapshots.
        profile=multiprocess and profiler is not None,
        cache_root=os.environ.get(CACHE_ENV),
    )
    shard_results = Scheduler(backend, on_complete=on_complete).run(specs)
    results: list[RunResult | None] = [None] * len(cells)
    for spec, shard_result in zip(specs, shard_results):
        for index, run in zip(spec.indices, shard_result.results):
            results[index] = run
        # Feed the observed wall back into the planner's cost model: the
        # next plan_shards() balances by measured per-cell cost instead of
        # the uniform default.
        note_shard_observation(spec, shard_result.wall_s)
        if profiler is not None and shard_result.profile:
            # Worker phase seconds fold into the parent profile, so
            # --profile composes with every multi-process backend
            # (totals become CPU seconds across processes).
            profiler.merge(shard_result.profile)
    return results  # type: ignore[return-value]
