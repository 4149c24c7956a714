"""Clustering stability: permutations, work-profile walls, the tracker."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.scenarios import SCENARIO_NAMES
from repro.exec.shard import SystemCell
from repro.share.cluster import ClusterTracker, cluster_cells


def correlated_fleet():
    return [
        SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", s, 240.0)
        for s in range(4)
    ]


class TestBatchClustering:
    def test_correlated_cameras_form_one_cluster(self):
        cells = correlated_fleet()
        assignment = cluster_cells(cells)
        assert len(assignment.clusters) == 1
        grouped = assignment.cluster_cells_of(cells)
        assert len(grouped["c0"]) == 4

    def test_permutation_stable(self):
        # Satellite contract: camera order in the spec must not change
        # cluster membership or ids.
        cells = correlated_fleet() + [
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0,
                       240.0),
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "ES1", 0,
                       180.0),
        ]
        baseline = cluster_cells(cells)
        base_map = {
            (c.scenario, c.seed): baseline.cluster_of(c) for c in cells
        }
        for perm in itertools.islice(itertools.permutations(cells), 0, 40, 7):
            shuffled = cluster_cells(list(perm))
            assert {
                (c.scenario, c.seed): shuffled.cluster_of(c) for c in perm
            } == base_map

    def test_work_profiles_never_merge(self):
        # Identical scenario/duration but different systems (or pairs)
        # must not share weights -- they run different models.
        cells = [
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0,
                       240.0),
            SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4", 0, 240.0),
            SystemCell("DaCapo-Spatiotemporal", "vit32_wrn50", "S4", 0,
                       240.0),
            SystemCell("RTX3090-Student", "resnet18_wrn50", "S4", 0, 240.0),
        ]
        assignment = cluster_cells(cells)
        ids = [assignment.cluster_of(cell) for cell in cells]
        assert len(set(ids)) == 4

    def test_distinct_scenarios_split(self):
        cells = [
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0,
                       240.0),
            SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "ES2", 0,
                       240.0),
        ]
        assignment = cluster_cells(cells)
        assert (
            assignment.cluster_of(cells[0])
            != assignment.cluster_of(cells[1])
        )


class TestTracker:
    def test_matches_batch_for_same_members(self):
        cells = correlated_fleet()
        tracker = ClusterTracker()
        ids = [tracker.assign(cell) for cell in cells]
        assert ids == ["c0"] * 4
        batch = cluster_cells(cells)
        assert batch.cluster_of(cells[0]) == "c0"

    def test_admission_order_ids(self):
        a = SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0,
                       240.0)
        b = SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "ES2", 0,
                       240.0)
        tracker = ClusterTracker()
        assert tracker.assign(a) == "c0"
        assert tracker.assign(b) == "c1"
        assert tracker.assign(a) == "c0"  # idempotent re-admit
        # A replay in the same order reproduces identical ids.
        replay = ClusterTracker()
        assert [replay.assign(a), replay.assign(b)] == ["c0", "c1"]

    def test_profile_wall_holds_incrementally(self):
        tracker = ClusterTracker()
        a = SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", 0,
                       240.0)
        b = SystemCell("DaCapo-Ekya", "resnet18_wrn50", "S4", 0, 240.0)
        assert tracker.assign(a) != tracker.assign(b)


cell_lists = st.lists(
    st.builds(
        SystemCell,
        st.sampled_from(["DaCapo-Spatiotemporal", "DaCapo-Ekya"]),
        st.sampled_from(["resnet18_wrn50", "vit_b32_b16"]),
        st.sampled_from(SCENARIO_NAMES),
        st.integers(0, 3),
        st.sampled_from([None, 120.0, 240.0]),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(cell_lists)
def test_batch_ids_are_a_tracker_fed_the_sorted_members(cells):
    # A member is a cell's (system, pair, scenario, duration): the batch
    # pass is the tracker's greedy rule over the distinct members, visited
    # in sorted order whatever order the cells came in.
    def member(cell):
        duration = "def" if cell.duration_s is None else f"{cell.duration_s:g}"
        return (cell.system, cell.pair, cell.scenario, duration)

    first = {}
    for cell in cells:
        first.setdefault(member(cell), cell)
    tracker = ClusterTracker()
    expected = {key: tracker.assign(first[key]) for key in sorted(first)}
    assignment = cluster_cells(cells)
    assert [assignment.cluster_of(cell) for cell in cells] == [
        expected[member(cell)] for cell in cells
    ]
