"""Pluggable execution: cell jobs, shards, transports, scheduling, resume.

:func:`~repro.exec.run.run_cells` and
:func:`~repro.exec.run.parallel_map` (:mod:`repro.exec.run`) are the entry
points: they select a backend from an explicit argument, a
:func:`use_backend` override, or ``$REPRO_BACKEND``.  Grids decompose
into stream- or cluster-sharing :class:`~repro.exec.shard.ShardSpec`\\ s
of :class:`~repro.exec.shard.CellJob`\\ s, and one worker-side call,
:func:`~repro.exec.shard.execute_shard`, turns a spec into a
:class:`~repro.exec.shard.ShardResult` of per-job
:class:`~repro.exec.shard.CellOutcome`\\ s -- the single place where
incremental snapshots, cross-camera sharing and lockstep batching
compose.  An :class:`~repro.exec.backends.ExecutionBackend` decides where
that call runs: in-process (:class:`SerialBackend`), on the historical
fork pool (:class:`ProcessPoolBackend`), over the versioned JSON-lines
stdio protocol to ``python -m repro.exec.worker`` children
(:class:`SubprocessWorkerBackend`, ssh-able via ``$REPRO_WORKER_CMD``),
or pulled from a file-system job queue with worker leases and heartbeats
(:class:`~repro.exec.queue.QueueBackend` -- the transport that survives
SIGKILLed workers and lets external ones attach mid-sweep).  The
:class:`~repro.exec.scheduler.Scheduler` adds bounded per-shard retry
with exponential backoff, failed-worker exclusion, poison-shard
quarantine (:class:`ShardQuarantined`), plus the :class:`SweepJournal`
that backs ``repro sweep --resume``.  The deterministic fault-injection
layer (:mod:`repro.exec.faults`) exercises every one of those paths in
tests and CI against the frozen reference digests.

Every backend is bit-identical at any worker count: cells seed their own
RNGs and shard payloads carry their :class:`~repro.exec.shard.PolicySet`
(numeric, sharing and batching policies) and the cache root explicitly,
so *where* a shard runs never changes
*what* it computes -- the frozen reference digests are checked across
every transport.
"""

from repro.core.runner import Fig2Cell, SystemCell, warm_model_caches
from repro.exec.backends import (
    BACKEND_ENV,
    BACKEND_KINDS,
    SHARD_TIMEOUT_ENV,
    WORKER_CMD_ENV,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SubprocessWorkerBackend,
    active_backend_spec,
    parse_backend,
    use_backend,
)
from repro.exec.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultEntry,
    FaultPlan,
    load_plan,
    save_plan,
)
from repro.exec.queue import DEFAULT_LEASE_TTL_S, LEASE_TTL_ENV, QueueBackend
from repro.exec.run import (
    JOBS_ENV,
    default_jobs,
    make_backend,
    parallel_map,
    resolve_backend,
    resolve_jobs,
    run_cells,
)
from repro.exec.scheduler import (
    DEFAULT_BACKOFF_BASE_S,
    DEFAULT_BACKOFF_CAP_S,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_QUARANTINE_AFTER,
    Scheduler,
    SweepJournal,
    backoff_delay,
    execute_cells,
)
from repro.exec.shard import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardFailure,
    ShardQuarantined,
    ShardResult,
    ShardSpec,
    batch_signature,
    cell_key,
    cell_label,
    execute_shard,
    make_shard_specs,
    note_shard_observation,
    observed_cost,
    plan_shards,
    reset_observed_costs,
    run_cell,
    run_job,
    stream_signature,
)

__all__ = [
    "BACKEND_ENV",
    "BACKEND_KINDS",
    "DEFAULT_BACKOFF_BASE_S",
    "DEFAULT_BACKOFF_CAP_S",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_QUARANTINE_AFTER",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "CellJob",
    "CellOutcome",
    "ExecutionBackend",
    "FaultEntry",
    "FaultPlan",
    "Fig2Cell",
    "JOBS_ENV",
    "LEASE_TTL_ENV",
    "PolicySet",
    "ProcessPoolBackend",
    "QueueBackend",
    "SHARD_TIMEOUT_ENV",
    "Scheduler",
    "SerialBackend",
    "ShardFailure",
    "ShardQuarantined",
    "ShardResult",
    "ShardSpec",
    "SubprocessWorkerBackend",
    "SweepJournal",
    "SystemCell",
    "WORKER_CMD_ENV",
    "active_backend_spec",
    "backoff_delay",
    "batch_signature",
    "cell_key",
    "cell_label",
    "default_jobs",
    "execute_cells",
    "execute_shard",
    "load_plan",
    "make_backend",
    "make_shard_specs",
    "note_shard_observation",
    "observed_cost",
    "parallel_map",
    "parse_backend",
    "plan_shards",
    "reset_observed_costs",
    "resolve_backend",
    "resolve_jobs",
    "run_cell",
    "run_cells",
    "run_job",
    "save_plan",
    "stream_signature",
    "use_backend",
    "warm_model_caches",
]
