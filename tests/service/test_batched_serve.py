"""Service-side co-windowed batching: coalescing and bit-identity.

The daemon's batching leg has two halves with different testability:
``_coalesce`` is a pure function of the pulled dispatch batch, so its
merge/passthrough rules are pinned directly on constructed specs (and
driven once through the dispatcher with a stub backend, to show each
stream getting its own outcome back); the live coalescing in
``_dispatch_loop`` is opportunistic (it merges whatever happens to be
co-due in one pull), so the end-to-end test asserts the only thing that
must hold regardless of timing -- every journaled window digest is
bit-identical to an unbatched serve.
"""

import json
import queue

from repro.batching import OFF as BATCH_OFF
from repro.batching import ON as BATCH_ON
from repro.batching import use_batching
from repro.exec.shard import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardResult,
    ShardSpec,
    SystemCell,
    shard_key,
)
from repro.service import FleetService, ServiceConfig
from repro.share.policy import CLUSTER
from repro.share.policy import OFF as SHARE_OFF
from repro.service.session import session_path

POLICY = "float64"


def window_records(out):
    records = {}
    for line in session_path(out).read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "window":
            records[(record["stream"], record["index"])] = record
    return records

CELLS = [
    SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S1", 0, 30.0),
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0, 30.0),
    SystemCell("DaCapo-Spatial", "resnet18_wrn50", "S4", 1, 30.0),
]


def make_service(batching, sharing=SHARE_OFF):
    # _coalesce reads only policy knobs; no supervisor state is needed.
    service = FleetService.__new__(FleetService)
    service.policies = PolicySet(sharing=sharing, batch=batching)
    return service


def window_spec(cell, w, **job_fields):
    spec = ShardSpec(
        key=f"{shard_key(POLICY, [cell])}|w{w}",
        jobs=(CellJob(cell, **job_fields),),
        indices=(0,),
        policies=PolicySet(),
    )
    return (f"stream-{cell.scenario}-{cell.seed}", w, spec)


class StubBackend:
    """Answers each job with an outcome naming the job it answers."""

    name = "serial"
    workers = 1

    def __init__(self):
        self.specs = []

    def run(self, specs, excluded=frozenset()):
        self.specs.extend(specs)
        return [
            ShardResult(
                key=spec.key,
                outcomes=tuple(
                    CellOutcome(
                        result=job.cell,
                        snapshot={"for": job.cell.scenario},
                        cluster_state={"cluster": job.cluster},
                    )
                    for job in spec.jobs
                ),
            )
            for spec in specs
        ]


class TestCoalesce:
    def test_batching_off_passes_through(self):
        batch = [window_spec(cell, 0) for cell in CELLS]
        specs, members = make_service(BATCH_OFF)._coalesce(batch)
        assert [spec.key for spec in specs] == [
            spec.key for _, _, spec in batch
        ]
        for key, w, spec in batch:
            assert members[spec.key] == [(key, w)]

    def test_same_geometry_windows_merge(self):
        batch = [
            window_spec(CELLS[0], 2, snapshot={"origin_duration_s": 20.0}),
            window_spec(CELLS[1], 1, emit_snapshot=True),
            window_spec(CELLS[2], 1),
        ]
        specs, members = make_service(BATCH_ON)._coalesce(batch)
        assert len(specs) == 1
        merged = specs[0]
        assert merged.cells == (CELLS[0], CELLS[1], CELLS[2])
        assert merged.policies.batch is BATCH_ON
        assert merged.jobs == tuple(spec.jobs[0] for _, _, spec in batch)
        assert members[merged.key] == [(key, w) for key, w, _ in batch]

    def test_singletons_keep_their_original_spec(self):
        # A lone window must dispatch exactly as it would unbatched --
        # same spec object, nothing re-minted.
        lone = SystemCell("DaCapo-Ekya", "other_pair", "S1", 0, 30.0)
        batch = [
            window_spec(CELLS[0], 0),
            window_spec(CELLS[1], 0),
            window_spec(lone, 0),
        ]
        specs, members = make_service(BATCH_ON)._coalesce(batch)
        assert len(specs) == 2
        passthrough = [spec for spec in specs if len(spec.cells) == 1]
        assert passthrough == [batch[2][2]]
        assert members[passthrough[0].key] == [batch[2][:2]]

    def test_shared_windows_of_two_clusters_merge(self, tmp_path):
        # Co-due windows of two clusters merge into one shard whose jobs
        # keep each member's snapshot, cluster id and cluster state; the
        # dispatcher then hands each stream its own job's outcome.
        service = make_service(BATCH_ON, sharing=CLUSTER)
        service.config = ServiceConfig(out_dir=tmp_path)
        service._backend = StubBackend()
        service._workers = 1
        service._max_inflight = 4
        service._jobs = queue.Queue()
        service._results = queue.Queue()
        first = window_spec(
            CELLS[0], 1, cluster="c0",
            snapshot={"origin_duration_s": 10.0},
            cluster_state={"cluster": "c0", "n": 1},
            emit_cluster_state=True,
        )
        second = window_spec(
            CELLS[1], 0, cluster="c1", emit_cluster_state=True
        )
        for item in (first, second, None):
            service._jobs.put(item)
        service._dispatch_loop()

        (merged,) = service._backend.specs
        assert merged.jobs == (first[2].jobs[0], second[2].jobs[0])
        assert merged.policies == PolicySet(sharing=CLUSTER, batch=BATCH_ON)
        posted = []
        while not service._results.empty():
            posted.append(service._results.get())
        assert [(key, w) for key, w, _ in posted] == [
            first[:2], second[:2]
        ]
        for (_, _, outcome), (_, _, spec) in zip(posted, (first, second)):
            (job,) = spec.jobs
            assert outcome.result == job.cell
            assert outcome.cluster_state == {"cluster": job.cluster}


class TestLiveSession:
    def test_batched_serve_is_bit_identical(self, tmp_path):
        records = {}
        for name, policy in (("off", BATCH_OFF), ("on", BATCH_ON)):
            out = tmp_path / name
            config = ServiceConfig(out_dir=out, window_s=10.0)
            with use_batching(policy):
                assert FleetService(config, CELLS).run() == 0
            records[name] = window_records(out)
        assert sorted(records["on"]) == sorted(records["off"])
        for key in records["off"]:
            assert json.dumps(records["on"][key], sort_keys=True) == (
                json.dumps(records["off"][key], sort_keys=True)
            ), key

    def test_start_event_journals_batching(self, tmp_path):
        config = ServiceConfig(out_dir=tmp_path, window_s=10.0)
        with use_batching(BATCH_ON):
            assert FleetService(config, CELLS[:1]).run() == 0
        starts = [
            json.loads(line)
            for line in session_path(tmp_path).read_text().splitlines()
            if json.loads(line).get("kind") == "event"
            and json.loads(line).get("name") == "start"
        ]
        assert starts and starts[0]["detail"]["batching"] == "on"
