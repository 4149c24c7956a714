"""Threshold clustering of stream fingerprints into camera clusters.

Cells are first partitioned by *work profile* -- the (system, model pair)
tuple -- because labels and weights can only be shared between cells
running the same models.  Within a partition, the distinct stream keys
(scenario, duration) are fingerprinted and greedily clustered by one rule,
:class:`ClusterTracker`: each new stream joins the first existing cluster
whose representative fingerprint is within
:data:`~repro.share.policy.THRESHOLD`, else founds cluster ``c<n>``.  A
resident service feeds the tracker in admission order; a sweep
(:func:`cluster_cells`) feeds it the distinct streams in sorted order, so
the assignment is a pure function of the cell *set* -- stable across
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


def _member_key(cell) -> tuple[str, ...]:
    """The work profile sharing may cross seeds within (system, pair),
    then the distinct-stream key fingerprints are computed per."""
    duration = "def" if cell.duration_s is None else f"{cell.duration_s:g}"
    return (cell.system, cell.pair, cell.scenario, duration)


@dataclass(frozen=True)
class ClusterAssignment:
    """The result of clustering a cell list.

    Attributes:
        clusters: Cluster id -> tuple of member keys, where a member key is
            ``(system, pair, scenario, duration)``.  Insertion order of the
            dict is the order the ids were assigned in.
        members: Member key -> cluster id (the inverse mapping).
        fingerprints: Member key -> fingerprint (for describe/debug).
    """

    clusters: dict[str, tuple[tuple, ...]]
    members: dict[tuple, str]
    fingerprints: dict[tuple, StreamFingerprint]

    def cluster_of(self, cell) -> str:
        """The cluster id a cell belongs to."""
        return self.members[_member_key(cell)]

    def cluster_cells_of(self, cells) -> dict[str, list]:
        """Cells grouped by cluster id, preserving cell order within."""
        grouped: dict[str, list] = {}
        for cell in cells:
            grouped.setdefault(self.cluster_of(cell), []).append(cell)
        return grouped


class ClusterTracker:
    """Incremental greedy clustering, one stream at a time.

    Each new stream joins the first existing cluster whose founder shares
    its work profile and is within the threshold, else founds cluster
    ``c<n>``.  Ids are therefore a pure function of the sequence of
    streams assigned -- and a resumed service session replays admits in
    journal order, reproducing the same ids.
    """

    def __init__(self) -> None:
        self._reps: list[tuple[tuple, StreamFingerprint, str]] = []
        #: Member key -> cluster id, in first-assignment order.
        self.members: dict[tuple, str] = {}
        #: Member key -> its stream's fingerprint.
        self.fingerprints: dict[tuple, StreamFingerprint] = {}

    def assign(self, cell) -> str:
        """The cluster id for a cell, founding a new cluster if needed."""
        member = _member_key(cell)
        known = self.members.get(member)
        if known is not None:
            return known
        fp = schedule_fingerprint(cell.scenario, cell.duration_s)
        cid = next(
            (
                rep_cid
                for rep_member, rep_fp, rep_cid in self._reps
                if rep_member[:2] == member[:2]  # same work profile
                and fingerprint_distance(fp, rep_fp) <= THRESHOLD
            ),
            None,
        )
        if cid is None:
            cid = f"c{len(self._reps)}"
            self._reps.append((member, fp, cid))
        self.members[member] = cid
        self.fingerprints[member] = fp
        return cid


def cluster_cells(cells) -> ClusterAssignment:
    """Cluster a cell list's distinct streams: a :class:`ClusterTracker`
    fed one cell per distinct member key, in sorted key order."""
    first: dict[tuple, object] = {}
    for cell in cells:
        first.setdefault(_member_key(cell), cell)
    tracker = ClusterTracker()
    for member in sorted(first):
        tracker.assign(first[member])
    clusters: dict[str, tuple[tuple, ...]] = {}
    for member, cid in tracker.members.items():
        clusters[cid] = clusters.get(cid, ()) + (member,)
    return ClusterAssignment(
        clusters=clusters,
        members=tracker.members,
        fingerprints=tracker.fingerprints,
    )


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
        fp = assignment.fingerprints[_member_key(members[0])]
        lines.append(
            f"{cid} [{len(members)} cells, fp {fp.digest()[:8]}]: "
            + " ".join(streams)
        )
    return lines
