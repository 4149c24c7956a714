"""Shards and cell jobs: the unit of work every execution backend dispatches.

A :class:`CellJob` is one grid cell plus the state it resumes from and
emits: a run-state snapshot (incremental service windows) and a cluster id
and weight state (cross-camera sharing).  A *shard* is a tuple of jobs --
the stream- or cluster-sharing groups :func:`plan_shards` produces --
packaged in a :class:`ShardSpec` with the parent context a worker cannot
inherit ambiently: its :class:`PolicySet` (the numeric, sharing and
batching policies) and the artifact-cache root.  That makes the unit
transport-agnostic: the same spec runs in-process
(:class:`~repro.exec.backends.SerialBackend`), in a forked pool worker,
or JSON-encoded over a pipe or a queue file to a ``python -m repro
worker`` child on another host.

:func:`execute_shard` is the one call every transport makes.  It runs a
spec's jobs in *lanes*: with sharing off each job is its own lane; with
sharing on, jobs group by the cluster id the planner (or the service)
stamped on them, and a lane runs its jobs in order through one
:class:`~repro.share.runtime.ClusterRuntime`.  With batching on and two or
more lanes, the lanes advance in lockstep (:mod:`repro.exec.batched`);
otherwise they run inline, in order, on the calling thread -- so one lane
*is* the serial code path.  Every job yields one :class:`CellOutcome`
(result, snapshot, cluster state), and the :class:`ShardResult` carries
them in job order.  Sharing, batching and snapshots therefore compose in
this one place.

Failure is typed: a worker death, a broken pool, or a protocol violation
surfaces as :class:`ShardFailure` naming the shard's cells, never as an
opaque ``BrokenProcessPool`` traceback.  Shard execution is deterministic
(every cell seeds its own RNGs), so retrying a failed shard on another
worker reproduces the original results bit-identically.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from repro import profiling
from repro.batching import BATCH, BatchPolicy, active_batching
from repro.core.results import RunResult
from repro.core.runner import SystemCell, build_system, warm_model_caches
from repro.core.snapshot import (
    decode_run_snapshot,
    encode_run_snapshot,
    stream_prefix_aligned,
)
from repro.core.system import RunExecution
from repro.data.scenarios import build_scenario
from repro.errors import ConfigurationError, ExecutionError, SnapshotError
from repro.exec.batched import run_lane_jobs
from repro.numeric import NUMERIC, NumericPolicy, active_policy
from repro.share.cluster import cluster_cells
from repro.share.policy import SHARING, SharingPolicy, active_sharing
from repro.share.runtime import (
    ClusterRuntime,
    decode_cluster_state,
    encode_cluster_state,
)

__all__ = [
    "CellJob",
    "CellOutcome",
    "POLICY_KNOBS",
    "PolicySet",
    "ShardFailure",
    "ShardQuarantined",
    "ShardResult",
    "ShardSpec",
    "batch_signature",
    "cell_key",
    "cell_label",
    "execute_shard",
    "make_shard_specs",
    "note_shard_observation",
    "observed_cost",
    "plan_shards",
    "reset_observed_costs",
    "run_cell",
    "run_job",
    "stream_signature",
]


@dataclass(frozen=True)
class CellJob:
    """One cell to run, with the state it resumes from and emits.

    Attributes:
        cell: The grid cell.
        cluster: Sharing cluster id, stamped by the planner (sweeps) or the
            service (windows); jobs with one id share a lane and its
            :class:`~repro.share.runtime.ClusterRuntime`.  Unused with
            sharing off.
        snapshot: Encoded run-state snapshot to resume from.  An
            incompatible snapshot degrades to a full prefix run.
        emit_snapshot: Return the run's final safe point, encoded.
        cluster_state: Encoded cluster weight state the lane's runtime
            starts from (a service window resuming its cluster's
            journaled learning).
        emit_cluster_state: Return the lane's cluster state after the job.
    """

    cell: SystemCell
    cluster: str | None = None
    snapshot: dict | None = None
    emit_snapshot: bool = False
    cluster_state: dict | None = None
    emit_cluster_state: bool = False


@dataclass(frozen=True)
class CellOutcome:
    """What one :class:`CellJob` produced.

    ``snapshot`` and ``cluster_state`` are set only when the job asked to
    emit them (and, for the snapshot, its duration is segment-aligned).
    """

    result: RunResult
    snapshot: dict | None = None
    cluster_state: dict | None = None


def _stream(cell):
    if cell.duration_s is None:
        return build_scenario(cell.scenario)
    return build_scenario(cell.scenario, duration_s=cell.duration_s)


def run_job(job: CellJob) -> CellOutcome:
    """Run one job's cell, resuming from / emitting a run-state snapshot.

    A job with neither is the plain monolithic run.  With a compatible
    ``job.snapshot`` (window ``i``'s encoded safe point), only the
    stream-seconds past the snapshot's clock are simulated; the result is
    bit-identical to a full prefix run.  An *incompatible* snapshot --
    wrong version, policy, cell identity, an origin not aligned to the
    stream's segment grid, or state that does not fit the system -- falls
    back to a full prefix run: slower, never wrong.

    With ``job.emit_snapshot``, the run's final safe point comes back
    encoded (None when the cell's duration is not segment-aligned, since
    such a prefix is not reproducible in a longer stream).  Cluster state
    is the lane's business (:func:`execute_shard`), not the cell's.
    """
    cell = job.cell
    system = build_system(cell.system, cell.pair, seed=cell.seed)
    stream = _stream(cell)
    policy = active_policy().name
    emit = job.emit_snapshot and stream_prefix_aligned(stream.duration_s)

    checkpoint = None
    if job.snapshot is not None:
        try:
            checkpoint = decode_run_snapshot(
                job.snapshot,
                policy=policy,
                system=system.name,
                scenario=stream.name,
                seed=cell.seed,
                duration_s=stream.duration_s,
            )
        except SnapshotError:
            checkpoint = None
    try:
        execution = RunExecution(
            system, stream, cell.seed, checkpoint=checkpoint, capture=emit
        )
    except SnapshotError:
        # A restore that fails partway may have touched the system's
        # weights/buffer; rebuild it fresh for the prefix fallback.
        system = build_system(cell.system, cell.pair, seed=cell.seed)
        execution = RunExecution(system, stream, cell.seed, capture=emit)
    execution.run_to_end()

    snapshot = None
    final = execution.checkpoint()
    if emit and final is not None:
        snapshot = encode_run_snapshot(
            final,
            policy=policy,
            system=system.name,
            scenario=stream.name,
            seed=cell.seed,
            origin_duration_s=stream.duration_s,
        )
    return CellOutcome(execution.result(), snapshot)


def run_cell(cell) -> RunResult:
    """Execute one cell from t=0 (the plain reference every path matches)."""
    return run_job(CellJob(cell)).result


def cell_label(cell) -> str:
    """Compact human-readable cell identity (for failure messages)."""
    duration = "def" if cell.duration_s is None else f"{cell.duration_s:g}s"
    return (
        f"{cell.system}/{cell.pair}/{cell.scenario}/s{cell.seed}/{duration}"
    )


def cell_key(policy_name: str, cell) -> str:
    """The stable journal/dedup key of one (policy, cell) pair.

    Purely content-derived -- no worker count, shard split, or submission
    order leaks in -- so a resume journal written at ``--jobs 8`` matches
    the same sweep re-run at ``--jobs 1``.  Unlike the human-facing
    :func:`cell_label`, the duration is keyed at full precision
    (``float.hex``): two cells differing past 6 significant digits must
    never collide in a journal or plan fingerprint.
    """
    duration = (
        "def" if cell.duration_s is None else float(cell.duration_s).hex()
    )
    return f"{policy_name}|system|{cell_label(cell)}|{duration}"


def stream_signature(cell) -> tuple:
    """The (scenario, seed, duration) key identifying a cell's stream.

    Cells sharing a signature consume the same materialized stream, so the
    signature is both the sharding key here and the dedup/cost unit the
    sweep planner (:mod:`repro.sweep.plan`) reports before running a fleet.
    """
    return (cell.scenario, cell.seed, cell.duration_s)


def batch_signature(cell) -> tuple:
    """The geometry key deciding which cells may share a batch group.

    Cells with one signature run the same model pair (hence identical
    weight geometry and stacked-kernel compatibility), so the batched
    planner co-shards them and the lockstep conductor can stack their
    identically-shaped requests.  The signature deliberately ignores
    system, scenario, seed, and duration: grouping is purely a
    performance decision -- the conductor only ever stacks requests whose
    shapes actually agree, so a coarse group can never change results,
    only how often stacking engages.
    """
    return ("system", cell.pair)


# -- observed shard costs (the learned-scheduling seed) --------------------
#
# ``execute_cells`` -- the one caller that plans -- reports each completed
# shard's wall time back here (:func:`note_shard_observation`); the
# planner's split loop then weighs shards by observed per-cell cost
# instead of cell count.  With no observations every cell weighs 1.0 and
# the split sequence is provably the historical one.  Per-process state,
# deliberately: each sweep's parent learns from its own completed shards.

_observed_costs: dict[str, float] = {}


def note_shard_observation(spec: "ShardSpec", wall_s: float | None) -> None:
    """Record a completed shard's wall seconds as per-cell cost weights."""
    if wall_s is None or wall_s <= 0.0 or not spec.cells:
        return
    per_cell = wall_s / len(spec.cells)
    for cell in spec.cells:
        _observed_costs[cell_key(spec.policies.numeric.name, cell)] = per_cell


def observed_cost(key: str) -> float:
    """The learned cost weight of one cell key (1.0 until observed)."""
    return _observed_costs.get(key, 1.0)


def reset_observed_costs() -> None:
    """Forget all observed costs (tests; a fresh sweep learns its own)."""
    _observed_costs.clear()


def _shard_weight(shard: list[tuple[int, CellJob]]) -> float:
    policy = active_policy().name
    return sum(observed_cost(cell_key(policy, job.cell)) for _, job in shard)


def plan_shards(
    cells: Sequence, jobs: int
) -> list[list[tuple[int, CellJob]]]:
    """Group cells into stream-sharing shards of ``(index, job)`` pairs.

    Shards are split (largest first) until there is one per worker or
    nothing splittable remains, so small grids with few distinct streams
    still use every core.  Splits interleave (evens/odds) rather than
    halve: grids typically order cells cheap-systems-first within a
    scenario, and contiguous halves would put every expensive system in
    one worker.  Result order is restored from the carried indices, so
    the split pattern never affects output.

    This is exactly the decomposition every backend executes; it is
    public so planners can estimate materialization counts and worker
    balance without running anything.

    Under an enabled sharing policy (:func:`repro.share.active_sharing`)
    the decomposition changes shape: cells group by *cluster* instead of
    stream signature, and clusters are never split -- a cluster's cells
    must co-locate on one shard so label/weight reuse happens in-process.
    Each job carries its cluster id, so workers never re-cluster.  The
    grouping is a pure function of the cell set and the policy, so it is
    identical at every ``jobs`` count.

    Under an enabled batching policy (:func:`repro.batching.active_batching`)
    cells group by :func:`batch_signature` instead of stream signature, so
    geometry-compatible cells land on one shard and the lockstep conductor
    can stack their numpy work; with sharing *also* on, same-geometry
    clusters merge onto one shard (cluster granularity preserved) so
    whole clusters batch against each other.  Either way results are
    bit-identical -- grouping only decides how often stacking engages.

    The split loop weighs shards by observed per-cell cost
    (:func:`note_shard_observation`); unobserved cells weigh 1.0, making
    the default split sequence exactly the historical count-based one.
    """
    sharing = active_sharing()
    batching = active_batching()
    if sharing.enabled:
        assignment = cluster_cells(cells)
        clustered: dict[str, list[tuple[int, CellJob]]] = {}
        for index, cell in enumerate(cells):
            cid = assignment.cluster_of(cell)
            clustered.setdefault(cid, []).append(
                (index, CellJob(cell, cluster=cid))
            )
        if not batching.enabled:
            return list(clustered.values())
        merged: dict[tuple, list[tuple[int, CellJob]]] = {}
        for cluster in clustered.values():
            merged.setdefault(
                batch_signature(cluster[0][1].cell), []
            ).extend(cluster)
        return list(merged.values())
    signature = batch_signature if batching.enabled else stream_signature
    groups: dict[tuple, list[tuple[int, CellJob]]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(signature(cell), []).append((index, CellJob(cell)))
    shards = list(groups.values())
    target = min(jobs, len(cells))
    while len(shards) < target:
        splittable = [i for i in range(len(shards)) if len(shards[i]) > 1]
        if not splittable:
            break
        largest = max(splittable, key=lambda i: _shard_weight(shards[i]))
        shard = shards.pop(largest)
        shards.extend([shard[::2], shard[1::2]])
    return shards


#: The knobs a :class:`PolicySet` carries, by field name.
POLICY_KNOBS = {"numeric": NUMERIC, "sharing": SHARING, "batch": BATCH}


@dataclass(frozen=True)
class PolicySet:
    """The policies a shard carries to its worker, as one value.

    Overrides do not survive spawn-started or remote workers, so a shard
    carries the policies it was planned under (:meth:`active`) and its
    worker installs them (:meth:`use`).  The backend is not carried:
    *where* a shard runs never changes *what* it computes.
    """

    numeric: NumericPolicy = NUMERIC.default
    sharing: SharingPolicy = SHARING.default
    batch: BatchPolicy = BATCH.default

    @classmethod
    def active(cls) -> "PolicySet":
        """The policies in effect here and now."""
        return cls(
            **{name: knob.active() for name, knob in POLICY_KNOBS.items()}
        )

    @contextmanager
    def use(self):
        """Install every policy for the dynamic extent of the block."""
        with ExitStack() as stack:
            for name, knob in POLICY_KNOBS.items():
                stack.enter_context(knob.use(getattr(self, name)))
            yield self

    def fingerprint(self) -> str:
        """What these policies add to a journal fingerprint.

        Only an enabled sharing policy: the dtype is in every cell key and
        batching never changes a bit.  The off path adds nothing, so its
        fingerprints stay the historical byte strings.
        """
        return f"|sharing={self.sharing.name}" if self.sharing.enabled else ""


@dataclass(frozen=True)
class ShardSpec:
    """One dispatchable unit of work, carrying its own execution context.

    Attributes:
        key: Content-derived shard identity (hash over policy + cell
            keys); what failure messages and journals reference.
        jobs: The :class:`CellJob`\\ s to run, in order.
        indices: Each job's position in the originating grid (restores
            submission order after unordered completion).
        policies: The policies the shard was planned under, installed by
            :func:`execute_shard`.
        profile: Whether the worker should profile its phases and ship
            the snapshot back for the parent to merge.
        cache_root: Artifact-cache root the worker should use, or None
            to let it fall back to its own default (remote hosts).
    """

    key: str
    jobs: tuple
    indices: tuple[int, ...]
    policies: PolicySet
    profile: bool = False
    cache_root: str | None = None

    @property
    def cells(self) -> tuple:
        """The jobs' cells, in order."""
        return tuple(job.cell for job in self.jobs)


@dataclass(frozen=True)
class ShardResult:
    """A completed shard: one :class:`CellOutcome` per job, plus context.

    ``profile`` is the worker's phase-profile snapshot (profiled specs
    only); ``wall_s`` is the shard's execution wall time, which
    :func:`~repro.exec.scheduler.execute_cells` feeds back into the
    planner's cost weights.
    """

    key: str
    outcomes: tuple
    profile: dict | None = None
    wall_s: float | None = None

    @property
    def results(self) -> tuple:
        """The outcomes' run results, in job order."""
        return tuple(outcome.result for outcome in self.outcomes)


class ShardFailure(ExecutionError):
    """A shard did not complete: worker death, broken pool, bad protocol.

    Raised (after the scheduler's bounded retries) instead of the opaque
    ``BrokenProcessPool``/``EOFError`` the transports produce, and always
    names the cells whose results are missing.

    Attributes:
        shard_key: The failing shard's :attr:`ShardSpec.key`.
        cells: Labels of the cells the shard was carrying.
        worker: Identity of the worker observed failing, if known.
        attempts: How many times the shard was attempted.
        cause: One-line description of the underlying error.
        retriable: Whether another attempt could plausibly succeed.
            Transport faults (worker death, broken pool, protocol
            violations) are; a *cell* raising inside a healthy worker is
            deterministic and is not -- the scheduler surfaces it
            immediately instead of recomputing the same exception.
        cause_exception: The original exception object, when the failure
            happened in-process (the pool transport); the scheduler
            re-raises it so callers see the same exception type at any
            worker count.  Remote transports cannot ship the object, so
            there the typed failure itself (carrying ``cause``) is what
            surfaces.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_key: str = "",
        cells: tuple[str, ...] = (),
        worker: str | None = None,
        attempts: int = 1,
        cause: str | None = None,
        retriable: bool = True,
        cause_exception: BaseException | None = None,
    ) -> None:
        detail = message
        if cells:
            detail += f" [cells: {', '.join(cells)}]"
        if worker:
            detail += f" [worker: {worker}]"
        if attempts > 1:
            detail += f" [attempts: {attempts}]"
        if cause:
            detail += f" [cause: {cause}]"
        super().__init__(detail)
        self.message = message
        self.shard_key = shard_key
        self.cells = cells
        self.worker = worker
        self.attempts = attempts
        self.cause = cause
        self.retriable = retriable
        self.cause_exception = cause_exception

    def with_attempts(self, attempts: int) -> "ShardFailure":
        """A copy reporting the scheduler's final attempt count."""
        return ShardFailure(
            self.message,
            shard_key=self.shard_key,
            cells=self.cells,
            worker=self.worker,
            attempts=attempts,
            cause=self.cause,
            retriable=self.retriable,
            cause_exception=self.cause_exception,
        )


class ShardQuarantined(ShardFailure):
    """A poison shard: it killed enough distinct workers to be quarantined.

    Raised by the :class:`~repro.exec.scheduler.Scheduler` when one shard
    is observed taking down ``quarantine_after`` different workers --
    the signature of an input that reliably destroys whatever executes
    it (a segfaulting corner case, an OOM-sized cell), as opposed to
    workers that happen to be flaky.  Retrying poison converts one bad
    shard into a dead fleet, so the failure is non-retriable by
    construction and names the cells (and the workers taken down) so the
    operator can reproduce the kill in isolation.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs["retriable"] = False
        super().__init__(message, **kwargs)


def shard_key(policy_name: str, cells: Sequence) -> str:
    """Content hash identifying a shard across processes and runs."""
    hasher = hashlib.sha256()
    for cell in cells:
        hasher.update(cell_key(policy_name, cell).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def make_shard_specs(
    cells: Sequence,
    jobs: int,
    *,
    profile: bool = False,
    cache_root: str | None = None,
) -> list[ShardSpec]:
    """Plan ``cells`` into :class:`ShardSpec`\\ s for ``jobs`` workers.

    The specs carry the ambient policies -- the ones :func:`plan_shards`
    grouped under -- explicitly to spawn-started and remote workers.
    """
    policies = PolicySet.active()
    specs = []
    for shard in plan_shards(cells, jobs):
        shard_jobs = tuple(job for _, job in shard)
        specs.append(
            ShardSpec(
                key=shard_key(
                    policies.numeric.name, [job.cell for job in shard_jobs]
                ),
                jobs=shard_jobs,
                indices=tuple(index for index, _ in shard),
                policies=policies,
                profile=profile,
                cache_root=cache_root,
            )
        )
    return specs


def _run_lane(jobs: Sequence[CellJob]) -> list[CellOutcome]:
    """Run one lane's jobs in order, through its cluster runtime if sharing.

    A job carrying cluster state restarts the lane's runtime from it;
    otherwise the lane's first job founds a fresh one.  Either way the
    runtime is named after the job's cluster, so emitted state always
    names the cluster it belongs to, whatever an incoming state said.
    """
    if not active_sharing().enabled:
        return [run_job(job) for job in jobs]
    runtime = None
    outcomes = []
    for job in jobs:
        if job.cluster_state is not None:
            runtime = decode_cluster_state(job.cluster_state)
            runtime.cluster_id = job.cluster
        elif runtime is None:
            runtime = ClusterRuntime(job.cluster)
        with runtime.activate(job.cell):
            outcome = run_job(job)
        if job.emit_cluster_state:
            outcome = replace(
                outcome, cluster_state=encode_cluster_state(runtime)
            )
        outcomes.append(outcome)
    return outcomes


def _run_jobs(spec: ShardSpec) -> list[CellOutcome]:
    """Group a spec's jobs into lanes and run them (policies installed)."""
    shared = spec.policies.sharing.enabled
    lanes: dict[object, list[int]] = {}
    for position, job in enumerate(spec.jobs):
        if shared and job.cluster is None:
            raise ConfigurationError(
                f"shard {spec.key} shares clusters but a job carries no "
                f"cluster id ({cell_label(job.cell)})"
            )
        lane = job.cluster if shared else position
        lanes.setdefault(lane, []).append(position)
    groups = [
        [spec.jobs[position] for position in positions]
        for positions in lanes.values()
    ]
    if spec.policies.batch.enabled and len(groups) > 1:
        # Fill the shared caches serially before the lanes race for them:
        # model pretrains, and each distinct stream materialized once.
        with profiling.scope(profiling.MATERIALIZE):
            warm_model_caches(spec.cells)
            streams = {stream_signature(cell): cell for cell in spec.cells}
            for cell in streams.values():
                _stream(cell).materialize(cell.seed)
        produced = run_lane_jobs(
            [partial(_run_lane, group) for group in groups]
        )
    else:
        produced = [_run_lane(group) for group in groups]
    outcomes: list = [None] * len(spec.jobs)
    for positions, lane in zip(lanes.values(), produced):
        for position, outcome in zip(positions, lane):
            outcomes[position] = outcome
    return outcomes


def execute_shard(spec: ShardSpec) -> ShardResult:
    """Run one spec: the single entry point of every transport.

    Installs the spec's policies, runs its jobs in lanes (see the module
    docstring), profiles when ``spec.profile`` is set, and measures its
    own ``wall_s``.
    """
    started = time.perf_counter()
    with spec.policies.use():
        if not spec.profile:
            outcomes, profile = _run_jobs(spec), None
        else:
            profiler = profiling.enable()
            try:
                outcomes = _run_jobs(spec)
                profile = profiler.snapshot()
            finally:
                profiling.disable()
    return ShardResult(
        key=spec.key,
        outcomes=tuple(outcomes),
        profile=profile,
        wall_s=time.perf_counter() - started,
    )
