"""Sweep execution: plan -> scheduled shards per policy -> rows, report, files.

Execution routes through the same :func:`repro.exec.execute_cells` engine
as ``run_cells`` and the figure experiments (under ``use_policy``, so the
policy-namespaced artifact keys, worker-side policy re-install, and
profile merging apply unchanged) -- a sweep of the Figure 9 grid therefore
produces bit-identical per-cell results to ``repro experiment fig9`` on
any backend at any worker count.

Two fleet-scale features layer on top:

- **Journal.**  With an output directory, every completed shard is
  appended to ``sweep_<name>.journal.jsonl`` (bit-exact encoded results,
  keyed per cell) as it finishes.
- **Resume.**  ``resume=True`` reloads that journal, skips every cell it
  already holds, runs only the remainder, and re-merges -- the final
  document is byte-identical to an uninterrupted run's.  The journal is
  fingerprinted against the compiled plan, so resuming a *different*
  sweep into the same directory is a :class:`ConfigurationError`, not a
  silent mix of results; so is a journal entry for a cell the plan does
  not hold.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.errors import ConfigurationError
from repro.exec import (
    PolicySet,
    ShardFailure,
    SweepJournal,
    cell_key,
    execute_cells,
    resolve_backend,
    resolve_jobs,
)
from repro.experiments.reporting import ExperimentResult, format_table
from repro.knobs import positive_int_env
from repro.numeric import use_policy
from repro.share.cluster import cluster_cells
from repro.share.policy import active_sharing
from repro.sweep.aggregate import (
    SWEEP_SCHEMA_VERSION,
    aggregate_rows,
    cell_row,
    write_csv,
    write_json,
)
from repro.sweep.plan import SweepPlan, compile_plan
from repro.sweep.spec import SweepSpec

__all__ = ["ABORT_ENV", "journal_path", "plan_fingerprint", "run_sweep",
           "write_outputs"]

#: Don't inline the per-cell table into the text report past this size.
_MAX_INLINE_CELL_ROWS = 36

#: Fault-injection hook for CI's kill-and-resume leg: abort the sweep
#: (exit path: ShardFailure -> CLI status 3) after this many shards have
#: been completed *and journaled*, deterministically simulating a
#: mid-sweep kill.
ABORT_ENV = "REPRO_SWEEP_ABORT_AFTER_SHARDS"


def plan_fingerprint(plan: SweepPlan) -> str:
    """Content hash pinning a journal to one compiled plan.

    Covers the spec name and every (policy, cell) in expansion order --
    but *not* jobs or backend, so a journal written at ``--jobs 8`` over
    subprocess workers resumes at ``--jobs 1`` serial.
    The active policies fold in through :meth:`PolicySet.fingerprint`, so
    a sharing journal can never resume an independent sweep or vice
    versa; the off-path fingerprint is the historical byte string.
    """
    hasher = hashlib.sha256()
    # ``|system`` once named the cell type; it stays so fingerprints keep
    # their bytes.
    hasher.update(
        f"{plan.spec.name}|system"
        f"{PolicySet.active().fingerprint()}".encode()
    )
    for key in _plan_keys(plan):
        hasher.update(key.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def _plan_keys(plan: SweepPlan) -> list[str]:
    """Every (policy, cell) of the plan as its journal key, in expansion
    order: the only keys a resumed journal may hold."""
    return [
        cell_key(group.policy.name, cell)
        for group in plan.groups
        for cell in group.cells
    ]


def journal_path(out_dir: str | Path, spec_name: str) -> Path:
    """Where a sweep's completion journal lives under its output dir."""
    return Path(out_dir) / f"sweep_{spec_name}.journal.jsonl"


def run_sweep(
    spec: SweepSpec | SweepPlan,
    jobs: int = 1,
    backend=None,
    out_dir: str | Path | None = None,
    resume: bool = False,
) -> ExperimentResult:
    """Execute a sweep spec (or precompiled plan) and aggregate the fleet.

    Args:
        spec: A validated :class:`~repro.sweep.spec.SweepSpec`, or the
            :class:`~repro.sweep.plan.SweepPlan` already compiled from one.
        jobs: Worker processes per policy group; 1 runs serially, 0 means
            "all cores".  Results are identical at any worker count.
        backend: Execution backend spec string (``serial`` /
            ``process[:N]`` / ``subprocess[:N]`` / ``queue[:N]``) or
            instance; None consults the ambient selection
            (``use_backend`` / ``$REPRO_BACKEND``) and falls back to the
            historical default.
        out_dir: Directory the completion journal is written under as
            shards finish (required for ``resume``).  The JSON/CSV
            artifacts still come from :func:`write_outputs`.  A
            spec-selected queue backend pins its queue directory at
            ``out_dir/queue``, so external ``repro worker --queue``
            processes can find it (without ``out_dir`` the queue lives in
            a private temp directory).
        resume: Reload the journal and skip cells it already holds; the
            resulting document is identical to an uninterrupted run's.

    Returns:
        An :class:`ExperimentResult` whose ``rows`` are the aggregate
        rows; ``extras`` carries the per-cell rows (``"cells"``), the raw
        ``(policy name, cell, RunResult)`` triples (``"results"``), the
        cost estimate, the serializable document (``"document"``), and
        ``"resumed_cells"`` (how many came from the journal).
    """
    plan = spec if isinstance(spec, SweepPlan) else compile_plan(spec)
    spec = plan.spec
    workers = resolve_jobs(jobs)
    queue_dir = (
        str(Path(out_dir) / "queue") if out_dir is not None else None
    )
    backend_obj, plan_workers, owned = resolve_backend(
        backend, workers, plan.num_cells, queue_dir=queue_dir
    )
    # Price the sweep at the worker count it will actually execute with
    # (a backend spec carrying its own :N overrides --jobs).
    estimate = plan.estimate(plan_workers)

    if resume and out_dir is None:
        raise ConfigurationError(
            "resume needs an output directory: the completion journal "
            "lives there (pass --out DIR)"
        )
    journal = None
    if out_dir is not None:
        journal = SweepJournal(
            journal_path(out_dir, spec.name),
            plan_fingerprint(plan),
            _plan_keys(plan),
            resume=resume,
        )

    abort_after = positive_int_env(ABORT_ENV)
    completed_shards = 0

    def on_complete(shard_spec, shard_result):
        nonlocal completed_shards
        if journal is not None:
            journal.record(shard_spec, shard_result)
        completed_shards += 1
        if abort_after is not None and completed_shards >= abort_after:
            raise ShardFailure(
                f"injected abort after {completed_shards} completed "
                f"shards ({ABORT_ENV})",
                shard_key=shard_spec.key,
            )

    triples = []
    resumed = 0
    try:
        shared = active_sharing().enabled
        for group in plan.groups:
            cells = list(group.cells)
            results: list = [None] * len(cells)
            remaining = []
            whole_clusters: set[str] | None = None
            if shared and journal is not None and resume:
                # Sharing makes a cluster's cells interdependent: a cell
                # journaled mid-cluster cannot be skipped alone, because
                # re-running only its neighbors would see different
                # cluster state.  Skip at cluster granularity -- partial
                # clusters recompute whole (deterministically identical,
                # so re-journaled records are bit-equal to the originals).
                assignment = cluster_cells(cells)
                whole_clusters = {
                    cid
                    for cid, members in assignment.cluster_cells_of(
                        cells
                    ).items()
                    if all(
                        journal.lookup(cell_key(group.policy.name, member))
                        is not None
                        for member in members
                    )
                }
            for index, cell in enumerate(cells):
                done = None
                if journal is not None and resume:
                    if whole_clusters is None or (
                        assignment.cluster_of(cell) in whole_clusters
                    ):
                        done = journal.lookup(
                            cell_key(group.policy.name, cell)
                        )
                if done is None:
                    remaining.append(index)
                else:
                    results[index] = done
            resumed += len(cells) - len(remaining)
            if remaining:
                with use_policy(group.policy):
                    fresh = execute_cells(
                        [cells[index] for index in remaining],
                        backend=backend_obj,
                        workers=plan_workers,
                        on_complete=on_complete,
                    )
                for index, run in zip(remaining, fresh):
                    results[index] = run
            triples.extend(
                (group.policy.name, cell, run)
                for cell, run in zip(cells, results)
            )
    finally:
        if owned:
            backend_obj.close()

    cells = [
        cell_row(policy_name, cell, result)
        for policy_name, cell, result in triples
    ]
    aggregate = aggregate_rows(
        cells, spec.group_by, spec.metrics, spec.percentiles
    )

    lines = [
        f"Sweep {spec.name!r}: {spec.title}",
        f"({estimate.cells} cells, {estimate.distinct_streams} distinct "
        f"streams, {estimate.distinct_stream_seconds:.0f} of "
        f"{estimate.stream_seconds:.0f} stream-seconds materialized)",
        "",
        f"Aggregate by ({', '.join(spec.group_by)}):",
        format_table(aggregate),
    ]
    if len(cells) <= _MAX_INLINE_CELL_ROWS:
        lines += ["Per-cell results:", format_table(cells)]
    else:
        lines.append(
            f"({len(cells)} per-cell rows; use --out to save them)"
        )
    report = "\n".join(lines)

    document = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "name": spec.name,
        "title": spec.title,
        "cell": "system",
        "policies": [group.policy.name for group in plan.groups],
        "group_by": list(spec.group_by),
        "metrics": list(spec.metrics),
        "percentiles": list(spec.percentiles),
        "estimate": estimate.as_dict(),
        "cells": cells,
        "aggregate": aggregate,
    }
    return ExperimentResult(
        name=f"sweep_{spec.name}",
        title=spec.title,
        rows=aggregate,
        report=report,
        extras={
            "cells": cells,
            "results": tuple(triples),
            "estimate": estimate.as_dict(),
            "document": document,
            "resumed_cells": resumed,
        },
    )


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write a sweep's machine-readable artifacts under ``out_dir``.

    Emits ``<name>.json`` (the self-describing document -- per-cell rows,
    aggregate rows, cost estimate), ``<name>_cells.csv`` and
    ``<name>_aggregate.csv`` (flat tables), and ``<name>.txt`` (the text
    report).  Returns the written paths.  (The completion journal is not
    an output: ``run_sweep`` streams it while executing.)
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    document = result.extras["document"]
    paths = [
        write_json(out_dir / f"{result.name}.json", document),
        write_csv(out_dir / f"{result.name}_cells.csv", document["cells"]),
        write_csv(
            out_dir / f"{result.name}_aggregate.csv", document["aggregate"]
        ),
    ]
    report_path = out_dir / f"{result.name}.txt"
    report_path.write_text(result.report)
    paths.append(report_path)
    return paths
