"""One matrix over the cell-job runner: sharing x batching x entry point.

Every combination of the sharing {off, cluster} and batching {off, on}
policies reaches the one worker-side call, ``execute_shard``, from two
entries:

- a sweep: the cells planned into shards and executed in-process, and
  once more over ``subprocess:2`` so the version-2 codec carries every
  combination.  Each cell must match its frozen digest: the correlated
  fleet its ``digests_sharing.json`` section (``independent`` or
  ``shared``), and the cells of other systems -- each founding a cluster
  of its own under sharing, so running exactly as independently -- their
  ``digests_float64.json`` (or, batched, ``digests_batched.json``) smoke
  entries.  Batched in-process sweeps must actually run lockstep lanes;
- a chained service session on ``serial``: incremental windows resuming
  their predecessors' snapshots and, with sharing, their cluster's state.
  Sharing-off sessions must match ``digests_service.json``; shared
  sessions, which have no frozen file, must reproduce the shared
  unbatched session's window and cluster records byte for byte.
"""

import json
from pathlib import Path

import pytest

from repro.batching import BATCH, use_batching
from repro.exec import (
    SerialBackend,
    SubprocessWorkerBackend,
    SystemCell,
    cell_key,
    execute_cells,
    shard,
)
from repro.numeric import use_policy
from repro.reference import reference_path, run_digest
from repro.service import FleetService, ServiceConfig
from repro.service.reference import (
    SERVICE_REFERENCE_WINDOW_S,
    service_reference_cells,
    service_reference_path,
)
from repro.service.session import session_path
from repro.share.policy import SHARING, use_sharing
from repro.share.reference import (
    sharing_reference_cells,
    sharing_reference_path,
)

POLICY = "float64"

FLEET = sharing_reference_cells()
OTHERS = [
    SystemCell(system, "resnet18_wrn50", "S4", 0, 300.0)
    for system in ("DaCapo-Ekya", "OrinHigh-EOMU")
]

CASES = [
    (entry, sharing.name, batch.name)
    for entry in ("sweep-serial", "sweep-subprocess", "service-serial")
    for sharing in SHARING.values
    for batch in BATCH.values
]


def frozen(name: str) -> dict:
    return json.loads(
        (Path(__file__).resolve().parents[1] / "reference" / name)
        .read_text()
    )


def expected_sweep_digests(sharing: str, batch: str) -> list[str]:
    fleet = json.loads(sharing_reference_path().read_text())["digests"]
    section = fleet["shared" if sharing == "cluster" else "independent"]
    smoke_file = (
        frozen("digests_batched.json")
        if batch == "on"
        else json.loads(reference_path(POLICY).read_text())
    )
    smoke = smoke_file["smoke"]
    return [section[cell_key(POLICY, cell)] for cell in FLEET] + [
        smoke[
            f"{cell.system}|{cell.pair}|{cell.scenario}"
            f"|seed{cell.seed}|{cell.duration_s:g}s"
        ]["digest"]
        for cell in OTHERS
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


def serve(out: Path, sharing: str, batch: str) -> tuple[dict, dict]:
    config = ServiceConfig(out_dir=out, window_s=SERVICE_REFERENCE_WINDOW_S)
    with use_policy(POLICY), use_sharing(sharing), use_batching(batch):
        assert FleetService(config, service_reference_cells()).run() == 0
    return records(out)


@pytest.fixture(scope="module")
def subprocess_backend():
    backend = SubprocessWorkerBackend(2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def shared_session(tmp_path_factory):
    """The shared unbatched session: the reference shared cases match."""
    return serve(tmp_path_factory.mktemp("shared"), "cluster", "off")


@pytest.mark.parametrize(
    "entry,sharing,batch", CASES, ids=["-".join(case) for case in CASES]
)
def test_runner_matrix(entry, sharing, batch, request, tmp_path, monkeypatch):
    if entry == "service-serial":
        windows, clusters = serve(tmp_path, sharing, batch)
        if sharing == "cluster":
            assert (windows, clusters) == request.getfixturevalue(
                "shared_session"
            )
            return
        expected = json.loads(service_reference_path().read_text())
        assert clusters == {}
        assert len(windows) == len(expected["windows"])
        for (stream, index), text in windows.items():
            record = json.loads(text)
            assert record["mode"] == "fresh"
            assert record["digest"] == expected["windows"][
                f"{stream}|w{index}"
            ]
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
    cells = FLEET + OTHERS
    with use_policy(POLICY), use_sharing(sharing), use_batching(batch):
        results = execute_cells(cells, backend=backend, workers=workers)
    assert [run_digest(result) for result in results] == (
        expected_sweep_digests(sharing, batch)
    )
    if entry == "sweep-serial":
        assert (min(lanes, default=0) >= 2) == (batch == "on"), lanes
