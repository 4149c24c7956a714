"""Sweep planner: compile a spec into per-policy cell lists plus a cost model.

Compilation walks the spec's axes in their documented order (see
:data:`repro.sweep.spec.AXIS_ORDER`), applying per-axis overrides to each
bound prefix, and emits one :class:`~repro.core.runner.SystemCell` per
grid point, grouped by numeric policy (a policy is ambient process state
-- ``use_policy`` -- so cells of different policies cannot share one
``run_cells`` invocation).

Because the expansion order matches the hand-coded figure experiments
(pairs outer, systems, then scenarios), a spec mirroring Figure 9 compiles
to *exactly* the cell list ``run_fig9`` builds, and therefore -- via
``run_cells``'s any-worker-count determinism -- to bit-identical
:class:`~repro.core.results.RunResult`\\ s.

The cost model reuses the exact decomposition the executor will use:
:func:`repro.exec.plan_shards` groups cells by stream signature,
so :meth:`SweepPlan.estimate` reports how many distinct streams a fleet
materializes, how many stream-seconds it simulates (shared vs. total), and
how balanced the worker shards are -- before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batching import active_batching
from repro.core.runner import SystemCell
from repro.data.stream import DEFAULT_DURATION_S
from repro.exec.shard import (
    batch_signature,
    cell_label,
    plan_shards,
    stream_signature,
)
from repro.numeric import NumericPolicy, POLICIES, active_policy
from repro.share.cluster import cluster_cells, describe_clusters
from repro.share.policy import THRESHOLD, active_sharing
from repro.sweep.spec import AXIS_ORDER, SweepSpec

__all__ = ["CostEstimate", "PolicyPlan", "SweepPlan", "compile_plan"]


@dataclass(frozen=True)
class PolicyPlan:
    """The cells one numeric policy runs, in execution order."""

    policy: NumericPolicy
    cells: tuple


@dataclass(frozen=True)
class CostEstimate:
    """What a sweep will cost, from the executor's own decomposition.

    Attributes:
        cells: Total grid cells across every policy.
        distinct_streams: Distinct (policy, scenario, seed, duration)
            streams the fleet materializes.
        stream_seconds: Simulated seconds summed over every cell (the
            work a sharing-free runner would do).
        distinct_stream_seconds: Simulated seconds summed over distinct
            streams only (what the artifact store actually materializes).
        pretrained_models: Distinct (policy, pair, model seed) pretrains.
        shards: Worker shards at the estimate's ``jobs``.
        largest_shard_cells: Cells in the heaviest shard (balance proxy).
        jobs: The worker count the shard plan was computed for.
        sharing: Cross-camera sharing estimate, present only when a
            sharing policy is active (so off-path reports keep their
            historical byte shape): cluster count and sizes plus the
            estimated *shared* label stream-seconds and pretrain count
            against the independent figures above.
        batching: Batched-execution estimate, present only when a batch
            policy is active (same off-path contract as ``sharing``):
            batch-group assignment at the estimate's ``jobs`` plus the
            estimated fraction of numpy dispatches saved -- per call in
            a K-cell group the batched executor advances all K members,
            so the dispatch bill drops from ~cells to ~groups.
    """

    cells: int
    distinct_streams: int
    stream_seconds: float
    distinct_stream_seconds: float
    pretrained_models: int
    shards: int
    largest_shard_cells: int
    jobs: int
    sharing: dict | None = None
    batching: dict | None = None

    def as_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        payload = {
            "cells": self.cells,
            "distinct_streams": self.distinct_streams,
            "stream_seconds": self.stream_seconds,
            "distinct_stream_seconds": self.distinct_stream_seconds,
            "pretrained_models": self.pretrained_models,
            "shards": self.shards,
            "largest_shard_cells": self.largest_shard_cells,
            "jobs": self.jobs,
        }
        if self.sharing is not None:
            payload["sharing"] = self.sharing
        if self.batching is not None:
            payload["batching"] = self.batching
        return payload


@dataclass(frozen=True)
class SweepPlan:
    """A compiled sweep: per-policy cell lists plus the originating spec."""

    spec: SweepSpec
    groups: tuple[PolicyPlan, ...]

    @property
    def num_cells(self) -> int:
        return sum(len(group.cells) for group in self.groups)

    def estimate(self, jobs: int = 1) -> CostEstimate:
        """Cost model at a worker count, via the executor's shard planner."""
        jobs = max(1, jobs)
        streams: dict[tuple, float] = {}
        pretrains: set[tuple] = set()
        total_seconds = 0.0
        shards = 0
        largest = 0
        for group in self.groups:
            for cell in group.cells:
                duration = cell.duration_s
                if duration is None:
                    duration = float(DEFAULT_DURATION_S)
                total_seconds += duration
                streams[(group.policy.name,) + stream_signature(cell)] = (
                    duration
                )
                pretrains.add((group.policy.name, cell.pair, cell.seed))
            group_shards = plan_shards(group.cells, jobs)
            shards += len(group_shards)
            largest = max(
                largest, max(len(shard) for shard in group_shards)
            )
        return CostEstimate(
            cells=self.num_cells,
            distinct_streams=len(streams),
            stream_seconds=total_seconds,
            distinct_stream_seconds=float(sum(streams.values())),
            pretrained_models=len(pretrains),
            shards=shards,
            largest_shard_cells=largest,
            jobs=jobs,
            sharing=self._sharing_estimate(),
            batching=self._batching_estimate(jobs),
        )

    def _sharing_estimate(self) -> dict | None:
        """Cluster counts and shared-work estimates (None when sharing off).

        Within a cluster, teacher labeling runs once per (domain, slot),
        so the shared label bill is one longest member per cluster; warm
        starts mean one pretrain per cluster instead of one per seed.
        Both are planner estimates -- the executor's counters report the
        realized reuse.
        """
        sharing = active_sharing()
        if not sharing.enabled:
            return None
        clusters = 0
        largest_cluster = 0
        shared_seconds = 0.0
        shared_pretrains = 0
        for group in self.groups:
            assignment = cluster_cells(group.cells)
            grouped = assignment.cluster_cells_of(group.cells)
            clusters += len(grouped)
            shared_pretrains += len(grouped)
            for members in grouped.values():
                largest_cluster = max(largest_cluster, len(members))
                shared_seconds += max(
                    (
                        float(DEFAULT_DURATION_S)
                        if cell.duration_s is None
                        else cell.duration_s
                    )
                    for cell in members
                )
        return {
            "policy": sharing.name,
            "threshold": THRESHOLD,
            "clusters": clusters,
            "largest_cluster_cells": largest_cluster,
            "label_stream_seconds_shared": shared_seconds,
            "pretrained_models_shared": shared_pretrains,
        }

    def _batching_estimate(self, jobs: int) -> dict | None:
        """Batch-group assignment and calls-saved (None when batching off).

        Uses the executor's own shard plan -- with a batch policy active,
        :func:`plan_shards` groups geometry-compatible cells -- so the
        reported groups are exactly the shards ``execute_shard`` will
        advance in lockstep.  Per numpy call a K-cell group serves all K
        members, so dispatches drop from ~cells to ~groups; the realized
        ratio is counted by ``tests/exec/test_batched.py``.
        """
        batching = active_batching()
        if not batching.enabled:
            return None
        jobs = max(1, jobs)
        groups_n = 0
        largest = 0
        batched_cells = 0
        singletons = 0
        for group in self.groups:
            for shard in plan_shards(group.cells, jobs):
                groups_n += 1
                largest = max(largest, len(shard))
                if len(shard) > 1:
                    batched_cells += len(shard)
                else:
                    singletons += 1
        total = self.num_cells
        saved = 1.0 - (groups_n / total) if total else 0.0
        return {
            "policy": batching.name,
            "batch_groups": groups_n,
            "largest_group_cells": largest,
            "batched_cells": batched_cells,
            "singleton_groups": singletons,
            "est_calls_saved_frac": saved,
        }

    def describe(self, jobs: int = 1) -> str:
        """Human-readable plan summary (the ``sweep --plan`` output)."""
        est = self.estimate(jobs)
        lines = [
            f"sweep {self.spec.name!r}: {self.spec.title}",
            "  policies           "
            + ", ".join(g.policy.name for g in self.groups),
            f"  cells              {est.cells}",
            f"  distinct streams   {est.distinct_streams}",
            "  stream seconds     "
            f"{est.stream_seconds:.0f} total / "
            f"{est.distinct_stream_seconds:.0f} materialized",
            f"  pretrained models  {est.pretrained_models}",
            f"  shards @ jobs={est.jobs:<4d} "
            f"{est.shards} (largest {est.largest_shard_cells} cells)",
        ]
        if est.sharing is not None:
            sh = est.sharing
            lines += [
                f"  sharing            {sh['policy']} "
                f"(threshold {sh['threshold']:g})",
                f"  clusters           {sh['clusters']} "
                f"(largest {sh['largest_cluster_cells']} cells)",
                "  label stream sec   "
                f"{sh['label_stream_seconds_shared']:.0f} shared / "
                f"{est.stream_seconds:.0f} independent",
                "  pretrained models  "
                f"{sh['pretrained_models_shared']} shared / "
                f"{est.pretrained_models} independent",
            ]
            for group in self.groups:
                assignment = cluster_cells(group.cells)
                for line in describe_clusters(assignment, group.cells):
                    lines.append(f"  [{group.policy.name}] {line}")
        if est.batching is not None:
            bt = est.batching
            lines += [
                f"  batching           {bt['policy']}",
                f"  batch groups       {bt['batch_groups']} "
                f"(largest {bt['largest_group_cells']} cells, "
                f"{bt['singleton_groups']} singleton)",
                "  est numpy calls    "
                f"{bt['est_calls_saved_frac']:.0%} saved vs per-cell "
                "dispatch",
            ]
            for group in self.groups:
                for shard in plan_shards(group.cells, est.jobs):
                    if len(shard) < 2:
                        continue
                    signature = "/".join(
                        str(part)
                        for part in batch_signature(shard[0][1].cell)
                    )
                    lines.append(
                        f"  [{group.policy.name}] batch {signature}: "
                        f"{len(shard)} cells"
                    )
        for group in self.groups:
            head = group.cells[: 3]
            preview = ", ".join(cell_label(cell) for cell in head)
            more = len(group.cells) - len(head)
            if more > 0:
                preview += f", ... (+{more})"
            lines.append(f"  [{group.policy.name}] {preview}")
        return "\n".join(lines) + "\n"


def _effective_values(spec: SweepSpec, axis: str, bound: dict) -> tuple:
    """The value list for ``axis`` given the bound prefix (overrides applied,
    file order, last match wins)."""
    values = spec.axes[axis]
    for override in spec.overrides:
        if not override.applies(bound):
            continue
        for ov_axis, ov_values in override.axes:
            if ov_axis == axis:
                values = ov_values
    return values


def _expand(spec: SweepSpec, policy_name: str) -> list:
    """All cells of one policy, in documented axis order."""
    order = [axis for axis in AXIS_ORDER if axis != "policy"]
    cells: list = []
    bound: dict = {"policy": policy_name}

    def walk(depth: int) -> None:
        if depth == len(order):
            cells.append(_make_cell(bound))
            return
        axis = order[depth]
        for value in _effective_values(spec, axis, bound):
            bound[axis] = value
            walk(depth + 1)
        del bound[axis]

    walk(0)
    return cells


def _make_cell(bound: dict) -> SystemCell:
    return SystemCell(
        system=bound["system"],
        pair=bound["pair"],
        scenario=bound["scenario"],
        seed=bound["seed"],
        duration_s=bound["duration"],
    )


def compile_plan(spec: SweepSpec) -> SweepPlan:
    """Compile a validated spec into per-policy cell lists.

    An empty ``policy`` axis resolves to the ambient policy *here* (not at
    load time), so a policy-agnostic spec honors ``REPRO_DTYPE`` and
    ``use_policy`` the same way every other experiment entry point does.
    """
    policy_names = spec.axes.get("policy") or (active_policy().name,)
    groups = tuple(
        PolicyPlan(
            policy=POLICIES[name],
            cells=tuple(_expand(spec, name)),
        )
        for name in policy_names
    )
    return SweepPlan(spec=spec, groups=groups)
