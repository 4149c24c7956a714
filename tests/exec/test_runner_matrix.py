"""One matrix over the cell-job runner: sharing x batching x entry point.

Every combination of the sharing {off, cluster} and batching {off, on}
policies reaches the one worker-side call, ``execute_shard``, from two
entries, and every result must match its registry digest
(:func:`repro.reference.expected_digest`):

- a sweep: the cells planned into shards and executed in-process, and
  once more over ``subprocess:2`` so the version-2 codec carries every
  combination.  The correlated fleet is the ``sharing`` case, and the
  cells of other systems -- each founding a cluster of its own under
  sharing, so running exactly as independently -- are ``smoke`` cells.
  Batched in-process sweeps must actually run lockstep lanes;
- a chained service session on ``serial``: incremental windows resuming
  their predecessors' snapshots and, with sharing, their cluster's state.
  Its windows are the ``service`` case, or with sharing the
  ``service-shared`` case.  Shared sessions must also reproduce the
  shared unbatched session's window and cluster records byte for byte.
"""

import json
from pathlib import Path

import pytest

from repro.batching import BATCH
from repro.exec import (
    PolicySet,
    SerialBackend,
    SubprocessWorkerBackend,
    cell_key,
    execute_cells,
    shard,
)
from repro.reference import CASES, expected_digest, run_digest
from repro.service import FleetService, ServiceConfig
from repro.service.session import session_path
from repro.share.policy import CLUSTER, SHARING

POLICY = "float64"

FLEET = CASES["sharing"].cells
OTHERS = [
    cell
    for cell in CASES["smoke"].cells
    if cell.system in ("DaCapo-Ekya", "OrinHigh-EOMU")
]
SERVICE = CASES["service"]

MATRIX = [
    (entry, PolicySet(sharing=sharing, batch=batch))
    for entry in ("sweep-serial", "sweep-subprocess", "service-serial")
    for sharing in SHARING.values
    for batch in BATCH.values
]


def records(out: Path) -> tuple[dict, dict]:
    """A session's window records by (stream, index), and each cluster's
    state records in journal order, all as canonical JSON."""
    windows: dict = {}
    clusters: dict = {}
    for line in session_path(out).read_text().splitlines():
        record = json.loads(line)
        text = json.dumps(record, sort_keys=True)
        if record.get("kind") == "window":
            windows[(record["stream"], record["index"])] = text
        elif record.get("kind") == "cluster":
            clusters.setdefault(record["cluster"], []).append(text)
    return windows, clusters


def serve(out: Path, policies: PolicySet) -> tuple[dict, dict]:
    config = ServiceConfig(out_dir=out, window_s=SERVICE.window_s)
    with policies.use():
        assert FleetService(config, list(SERVICE.cells)).run() == 0
    return records(out)


@pytest.fixture(scope="module")
def subprocess_backend():
    backend = SubprocessWorkerBackend(2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def shared_session(tmp_path_factory):
    """The shared unbatched session: the other shared sessions match."""
    return serve(tmp_path_factory.mktemp("shared"), PolicySet(sharing=CLUSTER))


@pytest.mark.parametrize(
    "entry,policies",
    MATRIX,
    ids=[
        f"{entry}-{policies.sharing.name}-{policies.batch.name}"
        for entry, policies in MATRIX
    ],
)
def test_runner_matrix(entry, policies, request, tmp_path, monkeypatch):
    if entry == "service-serial":
        windows, clusters = serve(tmp_path, policies)
        case = "service-shared" if policies.sharing.enabled else "service"
        journaled = {key: json.loads(text) for key, text in windows.items()}
        assert {
            key: (record["mode"], record["digest"])
            for key, record in journaled.items()
        } == {
            (cell_key(POLICY, cell), index): (
                "fresh",
                expected_digest(case, cell, policies, window=index),
            )
            for cell, index in CASES[case].windows()
        }
        if policies.sharing.enabled:
            assert (windows, clusters) == request.getfixturevalue(
                "shared_session"
            )
        else:
            assert clusters == {}
        return

    lanes: list[int] = []
    if entry == "sweep-serial":
        backend, workers = SerialBackend(), 1
        run_lane_jobs = shard.run_lane_jobs

        def spy(jobs):
            lanes.append(len(jobs))
            return run_lane_jobs(jobs)

        monkeypatch.setattr(shard, "run_lane_jobs", spy)
    else:
        backend, workers = request.getfixturevalue("subprocess_backend"), 2
    with policies.use():
        results = execute_cells(
            list(FLEET) + OTHERS, backend=backend, workers=workers
        )
    assert [run_digest(result) for result in results] == [
        expected_digest("sharing", cell, policies) for cell in FLEET
    ] + [expected_digest("smoke", cell, policies) for cell in OTHERS]
    if entry == "sweep-serial":
        assert (min(lanes, default=0) >= 2) == policies.batch.enabled, lanes
