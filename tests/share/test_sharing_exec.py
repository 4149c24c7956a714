"""The sharing bit-identity contract, both paths, through the executor.

The registry's ``sharing`` case (:mod:`repro.reference`) freezes both:

- sharing off: the default off-path over the reference fleet must stay
  byte-identical to the historical executor -- sharing machinery is
  opt-in and its *absence* is digest-pinned.
- sharing on (``cluster``): the cluster path is deterministic too (a
  cluster's cells are co-located and run sequentially), so its digests
  are frozen with the same severity.

The saving itself is counted, not timed: the shared cluster's label and
retrain work against the same cameras each alone in a singleton runtime.
"""

import pytest

from repro.errors import ConfigurationError
from repro.exec import execute_cells, resolve_backend
from repro.exec.shard import (
    CellJob,
    PolicySet,
    ShardSpec,
    cell_key,
    execute_shard,
    make_shard_specs,
    run_cell,
    shard_key,
)
from repro.numeric import use_policy
from repro.reference import CASES, expected_digest, run_digest
from repro.share.cluster import cluster_cells
from repro.share.policy import CLUSTER, use_sharing
from repro.share.runtime import ClusterRuntime

POLICY = "float64"
OFF = PolicySet()
SHARED = PolicySet(sharing=CLUSTER)


def frozen(policies):
    """The fleet's registry digests under ``policies``, in fleet order."""
    return [
        expected_digest("sharing", cell, policies)
        for cell in CASES["sharing"].cells
    ]


@pytest.fixture(scope="module")
def fleet():
    return list(CASES["sharing"].cells)


@pytest.fixture(scope="module")
def shared_run(fleet):
    """``fleet`` through one in-process cluster shard, as every backend
    runs it: ``(results, {cluster id: ClusterRuntime})``."""
    assignment = cluster_cells(fleet)
    runtimes: dict[str, ClusterRuntime] = {}
    results = []
    with use_sharing(CLUSTER):
        for cell in fleet:
            cid = assignment.cluster_of(cell)
            runtime = runtimes.setdefault(cid, ClusterRuntime(cid))
            with runtime.activate(cell):
                results.append(run_cell(cell))
    return results, runtimes


class TestOffPath:
    def test_independent_digests_match_frozen(self, fleet):
        # The default path: no sharing context, plain executor.
        backend, workers, owned = resolve_backend("serial", 1, len(fleet))
        try:
            results = execute_cells(fleet, backend=backend, workers=workers)
        finally:
            if owned:
                backend.close()
        assert [run_digest(result) for result in results] == frozen(OFF)


class TestSharedPath:
    def test_shared_digests_match_frozen(self, shared_run):
        results, _ = shared_run
        assert [run_digest(result) for result in results] == frozen(SHARED)

    def test_founder_is_bit_identical_to_independent(self):
        # The cluster founder adopts nothing -- it publishes.  Its result
        # is therefore byte-equal to its independent run; only later
        # members diverge (they inherit the founder's learning).
        independent, shared = frozen(OFF), frozen(SHARED)
        assert shared[0] == independent[0]
        assert shared[1] != independent[1]

    def test_counters_show_realized_reuse(self, shared_run):
        _, runtimes = shared_run
        assert set(runtimes) == {"c0"}
        counters = runtimes["c0"].counters
        assert counters["labels_shared"] > 0
        assert counters["retrains_reused"] > 0
        assert counters["warm_starts"] == 3  # every member but the founder
        # Reuse must dominate: three of four cameras ride the founder.
        assert counters["labels_shared"] > counters["labels_computed"]

    def test_cluster_does_less_work_at_no_accuracy_cost(
        self, fleet, shared_run
    ):
        # Each camera alone in a singleton cluster runtime reproduces the
        # independent digests, so its counters are an honest count of
        # independent work.  The shared cluster must do at least 1.5x
        # less label + retrain work (5,632 against 22,528 samples), and no
        # camera may lose more than 0.01 accuracy to sharing.
        independent, runtimes = [], []
        with use_policy(POLICY), use_sharing(CLUSTER):
            for index, cell in enumerate(fleet):
                runtimes.append(ClusterRuntime(f"i{index}"))
                with runtimes[-1].activate(cell):
                    independent.append(run_cell(cell))
        assert [run_digest(result) for result in independent] == frozen(OFF)
        shared, shared_runtimes = shared_run

        def work(group):
            return sum(
                runtime.counters["labels_computed"]
                + runtime.counters["retrain_samples"]
                for runtime in group
            )

        assert work(shared_runtimes.values()) > 0
        assert work(runtimes) >= 1.5 * work(shared_runtimes.values())
        for cell, alone, together in zip(fleet, independent, shared):
            assert (
                together.average_accuracy()
                >= alone.average_accuracy() - 0.01
            ), cell_key(POLICY, cell)

    def test_shard_spec_path_matches(self, fleet):
        # The worker-side entry point (what every backend executes) must
        # produce the same frozen digests as the direct runtime path.
        with use_sharing(CLUSTER), use_policy(POLICY):
            (spec,) = make_shard_specs(fleet, 1)
        assert {job.cluster for job in spec.jobs} == {"c0"}
        assert [
            run_digest(result) for result in execute_shard(spec).results
        ] == frozen(SHARED)

    def test_unstamped_job_is_refused(self, fleet):
        # Workers never re-cluster: a shared shard must say which cluster
        # each job belongs to.
        spec = ShardSpec(
            key=shard_key(POLICY, fleet[:1]),
            jobs=(CellJob(fleet[0]),),
            indices=(0,),
            policies=PolicySet(sharing=CLUSTER),
        )
        with pytest.raises(ConfigurationError, match="no cluster id"):
            execute_shard(spec)

    def test_cluster_state_emitted_for_single_cell(self, fleet):
        spec = ShardSpec(
            key=shard_key(POLICY, fleet[:1]),
            jobs=(
                CellJob(fleet[0], cluster="c3", emit_cluster_state=True),
            ),
            indices=(0,),
            policies=PolicySet(sharing=CLUSTER),
        )
        (outcome,) = execute_shard(spec).outcomes
        cluster_state = outcome.cluster_state
        assert cluster_state is not None
        # The state names the cluster the job was stamped with.
        assert cluster_state["cluster"] == "c3"
        assert cluster_state["counters"]["retrains_run"] > 0
