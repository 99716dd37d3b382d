"""Unit tests for the counting backends in :mod:`repro.index`.

Every backend must agree exactly with brute force on random point
sets — the audit's correctness rests on exact counts.
"""

import numpy as np
import pytest

from repro.geometry import (
    GridPartitioning,
    Rect,
    circle_region_set,
    partition_region_set,
    square_region_set,
)
from repro.index import (
    GridIndex,
    KDTree,
    RegionMembership,
    StackedMembership,
)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(42)
    # Clustered + uniform mix so buckets and tree nodes are uneven.
    uniform = rng.random((300, 2))
    cluster = 0.1 * rng.standard_normal((200, 2)) + [0.7, 0.3]
    return np.vstack([uniform, cluster])


@pytest.fixture(scope="module")
def query_rects():
    rng = np.random.default_rng(7)
    rects = []
    for _ in range(25):
        x0, y0 = rng.uniform(-0.2, 1.0, size=2)
        w, h = rng.uniform(0.01, 0.8, size=2)
        rects.append(Rect(x0, y0, x0 + w, y0 + h))
    # Degenerate and all-covering queries.
    rects.append(Rect(0.5, 0.5, 0.5, 0.5))
    rects.append(Rect(-1, -1, 2, 2))
    return rects


def brute_count(coords, rect):
    return int(rect.contains(coords).sum())


class TestKDTree:
    def test_count_equals_brute_force(self, points, query_rects):
        tree = KDTree(points)
        for rect in query_rects:
            assert tree.count(rect) == brute_count(points, rect)

    def test_small_leaves_force_deep_tree(self, points, query_rects):
        tree = KDTree(points, leaf_size=4)
        for rect in query_rects:
            assert tree.count(rect) == brute_count(points, rect)

    def test_query_indices_equal_brute_force(self, points, query_rects):
        tree = KDTree(points)
        for rect in query_rects:
            got = np.sort(tree.query_indices(rect))
            want = np.nonzero(rect.contains(points))[0]
            assert np.array_equal(got, want)

    def test_empty_point_set(self):
        tree = KDTree(np.empty((0, 2)))
        assert tree.count(Rect(0, 0, 1, 1)) == 0
        assert len(tree.query_indices(Rect(0, 0, 1, 1))) == 0

    def test_single_point(self):
        tree = KDTree(np.array([[0.5, 0.5]]))
        assert tree.count(Rect(0, 0, 1, 1)) == 1
        assert tree.count(Rect(0.6, 0.6, 1, 1)) == 0


class TestGridIndex:
    def test_count_equals_brute_force(self, points, query_rects):
        grid = GridIndex(points)
        for rect in query_rects:
            assert grid.count(rect) == brute_count(points, rect)

    def test_coarse_buckets(self, points, query_rects):
        grid = GridIndex(points, n_cells_hint=9)
        for rect in query_rects:
            assert grid.count(rect) == brute_count(points, rect)

    def test_max_coordinate_point_is_inside(self):
        # The bucket edges get a hair of margin so the max point lands
        # in the last bucket, not outside the grid.
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        grid = GridIndex(pts)
        assert grid.count(Rect(0, 0, 1, 1)) == 2


class TestRegionMembership:
    @pytest.fixture(scope="class")
    def regions(self, points):
        rng = np.random.default_rng(3)
        centers = rng.random((6, 2))
        squares = square_region_set(centers, [0.15, 0.4])
        circles = circle_region_set(centers, [0.1, 0.25])
        return type(squares)(list(squares) + list(circles))

    def test_counts_equal_brute_force(self, points, regions):
        member = RegionMembership(regions, points)
        want = [int(r.contains(points).sum()) for r in regions]
        assert list(member.counts) == want

    def test_len_is_region_count(self, points, regions):
        member = RegionMembership(regions, points)
        assert len(member) == len(regions)

    def test_row_sums_equal_region_counts(self, points, regions):
        # The matrix rows are exactly the membership indicators, so a
        # row sum over an all-ones vector is that region's count.
        member = RegionMembership(regions, points)
        ones = np.ones(len(points))
        assert np.array_equal(member.positive_counts(ones), member.counts)

    def test_positive_counts_equal_brute_force(self, points, regions):
        member = RegionMembership(regions, points)
        rng = np.random.default_rng(11)
        labels = (rng.random(len(points)) < 0.4).astype(np.float64)
        got = member.positive_counts(labels)
        want = [labels[r.contains(points)].sum() for r in regions]
        assert got == pytest.approx(want)

    def test_batch_matches_single_columns(self, points, regions):
        member = RegionMembership(regions, points)
        rng = np.random.default_rng(12)
        worlds = (rng.random((len(points), 5)) < 0.5).astype(np.float32)
        batch = member.positive_counts_batch(worlds)
        assert batch.shape == (len(regions), 5)
        for w in range(5):
            single = member.positive_counts(worlds[:, w].astype(np.float64))
            assert batch[:, w] == pytest.approx(single)

    def test_point_indices_match_contains(self, points, regions):
        member = RegionMembership(regions, points)
        for r_id in range(len(regions)):
            got = set(member.point_indices(r_id))
            want = set(np.nonzero(regions[r_id].contains(points))[0])
            assert got == want

    def test_reuses_prebuilt_kdtree(self, points, regions):
        tree = KDTree(points)
        member = RegionMembership(regions, points, kdtree=tree)
        want = [int(r.contains(points).sum()) for r in regions]
        assert list(member.counts) == want

    @pytest.mark.parametrize("layout", ["clustered", "empty"])
    def test_degenerate_point_sets_match_brute_force(self, regions, layout):
        if layout == "clustered":
            rng = np.random.default_rng(7)
            pts = rng.random((200, 2)) * 0.2  # all in one corner
            pts[0] = [0.95, 0.95]  # stretch the bbox
        else:
            pts = np.empty((0, 2))
        member = RegionMembership(regions, pts)
        want = [int(r.contains(pts).sum()) for r in regions]
        assert list(member.counts) == want
        assert 0 in want
        assert member._matrix.shape == (len(regions), len(pts))


class TestLargeCountExactness:
    """Batch recounts must stay exact past float32's 2**24 ceiling.

    Regression: the batch path used to run the sparse matmul in
    float32, whose integers stop being exact at 2**24 — a Poisson
    world carrying counts near that scale silently lost increments
    (``float32(2**24) + 1 == 2**24``).  float64 accumulation keeps
    every count exact up to 2**53.
    """

    #: 3 points inside one all-covering region.
    COORDS = np.array([[0.5, 0.5], [0.4, 0.4], [0.6, 0.6]])
    #: One world whose first point carries a count of 2**24; the exact
    #: region total 2**24 + 2 is not representable in float32.
    WORLD = np.array(
        [[2.0**24], [1.0], [1.0]], dtype=np.float32
    )

    def _member(self):
        regions = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 1, 1)
        )
        return RegionMembership(regions, self.COORDS)

    def test_region_membership_exact_above_2_24(self):
        out = self._member().positive_counts_batch(self.WORLD)
        assert out.dtype == np.float64
        assert out[0, 0] == 2.0**24 + 2.0

    def test_stacked_membership_exact_above_2_24(self):
        stacked = StackedMembership([self._member(), self._member()])
        out = stacked.positive_counts_batch(self.WORLD)
        assert out.dtype == np.float64
        assert np.array_equal(out[:, 0], [2.0**24 + 2.0] * 2)
