"""Threshold clustering of stream fingerprints into camera clusters.

Cells are first partitioned by *work profile* -- the (cell kind, system or
platform, model pair) tuple -- because labels and weights can only be
shared between cells running the same models.  Within a partition, the
distinct stream keys (scenario, duration) are fingerprinted and greedily
clustered: keys are visited in sorted order (so the result is independent
of camera order in the spec) and each joins the first existing cluster
whose representative fingerprint is within
:data:`~repro.share.policy.THRESHOLD`, else founds a new one.  Cluster ids
``c0, c1, ...`` are assigned over the sorted representatives, making the
whole assignment a pure function of the cell *set* -- stable across
processes, jobs counts, numeric policies, and permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.share.fingerprint import (
    StreamFingerprint,
    fingerprint_distance,
    schedule_fingerprint,
)
from repro.share.policy import THRESHOLD

__all__ = [
    "ClusterAssignment",
    "ClusterTracker",
    "cluster_cells",
    "describe_clusters",
]


def _partition_key(cell) -> tuple[str, ...]:
    """The work profile sharing is allowed to cross seeds within."""
    kind = type(cell).__name__
    engine = getattr(cell, "system", None)
    if engine is None:
        engine = f"{getattr(cell, 'kind', '?')}@{getattr(cell, 'platform', '?')}"
    return (kind, str(engine), str(cell.pair))


def _stream_key(cell) -> tuple[str, str]:
    """The distinct-stream key fingerprints are computed per."""
    duration = "def" if cell.duration_s is None else f"{cell.duration_s:g}"
    return (cell.scenario, duration)


@dataclass(frozen=True)
class ClusterAssignment:
    """The result of clustering a cell list.

    Attributes:
        clusters: Cluster id -> tuple of member keys, where a member key is
            ``partition_key + stream_key``.  Insertion order of the dict is
            the sorted-representative order the ids were assigned in.
        members: Member key -> cluster id (the inverse mapping).
        fingerprints: Member key -> fingerprint (for describe/debug).
    """

    clusters: dict[str, tuple[tuple, ...]]
    members: dict[tuple, str]
    fingerprints: dict[tuple, StreamFingerprint]

    def cluster_of(self, cell) -> str:
        """The cluster id a cell belongs to."""
        return self.members[_partition_key(cell) + _stream_key(cell)]

    def cluster_cells_of(self, cells) -> dict[str, list]:
        """Cells grouped by cluster id, preserving cell order within."""
        grouped: dict[str, list] = {}
        for cell in cells:
            grouped.setdefault(self.cluster_of(cell), []).append(cell)
        return grouped


def cluster_cells(cells) -> ClusterAssignment:
    """Cluster a cell list's distinct streams."""
    keys: dict[tuple, tuple[str, str]] = {}
    for cell in cells:
        member = _partition_key(cell) + _stream_key(cell)
        if member not in keys:
            keys[member] = (cell.scenario, cell.duration_s)
    fingerprints = {
        member: schedule_fingerprint(scenario, duration)
        for member, (scenario, duration) in sorted(keys.items())
    }
    # Greedy threshold pass over sorted keys: join the first cluster whose
    # representative (founder) is close enough, else found a new one.
    reps: list[tuple[tuple, StreamFingerprint]] = []
    groups: dict[tuple, list[tuple]] = {}
    for member in sorted(fingerprints):
        fp = fingerprints[member]
        home = None
        for rep_member, rep_fp in reps:
            if rep_member[:3] != member[:3]:  # different work profile
                continue
            if fingerprint_distance(fp, rep_fp) <= THRESHOLD:
                home = rep_member
                break
        if home is None:
            reps.append((member, fp))
            home = member
            groups[home] = []
        groups[home].append(member)
    clusters: dict[str, tuple[tuple, ...]] = {}
    members: dict[tuple, str] = {}
    for index, (rep_member, _) in enumerate(reps):
        cid = f"c{index}"
        clusters[cid] = tuple(groups[rep_member])
        for member in groups[rep_member]:
            members[member] = cid
    return ClusterAssignment(
        clusters=clusters,
        members=members,
        fingerprints=fingerprints,
    )


class ClusterTracker:
    """Incremental clustering for runtime-admitted streams.

    A resident service admits streams one by one, so the batch
    :func:`cluster_cells` pass (which needs the whole cell set up front)
    does not fit.  The tracker applies the same greedy threshold rule
    *in admission order*: each new stream joins the first existing
    cluster whose founder shares its work profile and is within the
    threshold, else founds cluster ``c<n>``.  Ids are therefore a
    pure function of the admission sequence -- and a resumed session
    replays admits in journal order, reproducing the same ids.
    """

    def __init__(self) -> None:
        self._reps: list[tuple[tuple, StreamFingerprint, str]] = []
        self._members: dict[tuple, str] = {}

    def assign(self, cell) -> str:
        """The cluster id for a cell, founding a new cluster if needed."""
        member = _partition_key(cell) + _stream_key(cell)
        known = self._members.get(member)
        if known is not None:
            return known
        fp = schedule_fingerprint(cell.scenario, cell.duration_s)
        for rep_member, rep_fp, cid in self._reps:
            if rep_member[:3] != member[:3]:  # different work profile
                continue
            if fingerprint_distance(fp, rep_fp) <= THRESHOLD:
                self._members[member] = cid
                return cid
        cid = f"c{len(self._reps)}"
        self._reps.append((member, fp, cid))
        self._members[member] = cid
        return cid


def describe_clusters(assignment: ClusterAssignment, cells) -> list[str]:
    """Human-readable cluster assignment lines (``--plan`` output)."""
    grouped = assignment.cluster_cells_of(cells)
    lines = []
    for cid in assignment.clusters:
        members = grouped.get(cid, [])
        if not members:
            continue
        streams = []
        for cell in members:
            duration = (
                "def" if cell.duration_s is None else f"{cell.duration_s:g}s"
            )
            streams.append(f"{cell.scenario}/s{cell.seed}/{duration}")
        fp = assignment.fingerprints[
            _partition_key(members[0]) + _stream_key(members[0])
        ]
        lines.append(
            f"{cid} [{len(members)} cells, fp {fp.digest()[:8]}]: "
            + " ".join(streams)
        )
    return lines
