"""Nearest-neighbor queries and farthest point sampling vs. brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpointhop import ModelConfig
from rpointhop.bench import make_shape_corpus
from rpointhop.cloud import sample_indices
from rpointhop.spatial import KnnIndex, fps_indices

from conftest import PARTIAL_CONFIG, TINY_CONFIG, fps_einsum_oracle, fps_oracle, knn_oracle


# ---------------------------------------------------------------------------
# k nearest neighbors
# ---------------------------------------------------------------------------


class TestKnn:
    def test_trivial_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        idx, dist = KnnIndex(pts).query(np.array([0.1, 0.0, 0.0]), 2)
        assert idx.tolist() == [0, 1]
        assert np.allclose(dist, [0.1, 0.9])

    def test_single_query_returns_1d(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        idx, dist = KnnIndex(pts).query(pts[3], 4)
        assert idx.shape == (4,) and dist.shape == (4,)
        assert idx[0] == 3 and dist[0] == 0.0

    def test_batch_query_shape(self):
        pts = np.random.default_rng(1).normal(size=(20, 3))
        idx, dist = KnnIndex(pts).query(pts[:5], 6)
        assert idx.shape == (5, 6) and dist.shape == (5, 6)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(64, 3))
        queries = rng.normal(size=(10, 3))
        idx, dist = KnnIndex(pts).query(queries, 9)
        for qi in range(10):
            oi, od = knn_oracle(pts, queries[qi], 9)
            assert np.array_equal(idx[qi], oi), f"query {qi}"
            assert np.allclose(dist[qi], od, atol=1e-12)

    def test_tie_broken_by_lower_index(self):
        # duplicated point: both rows are at the same distance from the query
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        idx, _ = KnnIndex(pts).query(np.zeros(3), 3)
        assert idx.tolist() == [0, 1, 2]
        idx, dist = KnnIndex(pts).query(np.zeros((2, 3)), 1)
        assert idx.tolist() == [[0], [0]] and dist.tolist() == [[1.0], [1.0]]

    def test_duplicates_inserted_into_random_instance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        pts[17] = pts[4]  # exact duplicate at a higher index
        pts[31] = pts[4]
        idx, _ = KnnIndex(pts).query(pts[4], 5)
        assert idx[:3].tolist() == [4, 17, 31]

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 3))
        _, dist = KnnIndex(pts).query(rng.normal(size=(7, 3)), 12)
        assert (np.diff(dist, axis=1) >= 0).all()

    def test_k_out_of_range(self):
        index = KnnIndex(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="k"):
            index.query(np.zeros(3), 4)
        with pytest.raises(ValueError, match="k"):
            index.query(np.zeros(3), 0)

    def test_bad_query_shape(self):
        index = KnnIndex(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="queries"):
            index.query(np.zeros((2, 2)), 1)

    def test_non_finite_rejected(self):
        pts = np.zeros((4, 3))
        pts[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            KnnIndex(pts)
        with pytest.raises(ValueError, match="finite"):
            KnnIndex(np.eye(3)).query(np.array([np.nan, 0.0, 0.0]), 1)

    def test_chunking_boundary_consistency(self):
        # a large batch must match per-row queries exactly
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(128, 3))
        queries = rng.normal(size=(300, 3))
        index = KnnIndex(pts)
        idx_all, dist_all = index.query(queries, 5)
        for qi in (0, 255, 256, 299):
            oi, od = index.query(queries[qi], 5)
            assert np.array_equal(idx_all[qi], oi)
            assert np.array_equal(dist_all[qi], od)

    def test_index_accepts_cloud_and_array(self):
        from rpointhop import PointCloud

        pts = np.random.default_rng(6).normal(size=(12, 3))
        for index in (KnnIndex(pts), KnnIndex(PointCloud(pts))):
            idx, _ = index.query(pts[0], 3)
            assert idx[0] == 0
            assert len(index) == 12


class TestSelfNeighborTable:
    def test_each_point_is_own_first_neighbor(self):
        pts = np.random.default_rng(7).normal(size=(30, 3))
        table = KnnIndex(pts).query(pts, 6)[0]
        assert np.array_equal(table[:, 0], np.arange(30))
        assert table.shape == (30, 6)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 3))
        table = KnnIndex(pts).query(pts, 7)[0]
        for i in range(25):
            oi, _ = knn_oracle(pts, pts[i], 7)
            assert np.array_equal(table[i], oi)


def _lattice(side: int) -> np.ndarray:
    axis = np.arange(side, dtype=np.float64)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _assert_rows_match_oracle(pts, queries, k):
    idx, dist = KnnIndex(pts).query(queries, k)
    for qi in range(queries.shape[0]):
        oi, od = knn_oracle(pts, queries[qi], k)
        assert np.array_equal(idx[qi], oi), f"query {qi}, k={k}"
        assert np.allclose(dist[qi], od, rtol=0, atol=1e-12), f"query {qi}, k={k}"


class TestTiesAcrossTheKBoundary:
    """Equal distances that straddle the k-th and (k+1)-th neighbor."""

    def test_lattice_point_shells_cut_at_every_k(self):
        # around an inner lattice point the shells hold 6 points at distance
        # 1, 12 at sqrt(2), 8 at sqrt(3), ...: most k cut through a shell
        pts = _lattice(4)
        inner = int(np.flatnonzero((pts == [1.0, 1.0, 2.0]).all(axis=1))[0])
        for k in range(1, len(pts) + 1):
            _assert_rows_match_oracle(pts, pts[inner : inner + 1], k)

    def test_lattice_self_table(self):
        pts = _lattice(4)
        for k in (2, 4, 7, 11, 19, 27):
            _assert_rows_match_oracle(pts, pts, k)

    def test_off_lattice_query_equidistant_corners(self):
        # the cube centre is equidistant from its 8 corners
        pts = _lattice(3)
        centre = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 1.5]])
        for k in range(1, 12):
            _assert_rows_match_oracle(pts, centre, k)

    def test_duplicates_just_beyond_k(self):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(50, 3))
        query = np.zeros((1, 3))
        order, _ = knn_oracle(pts, query[0], 50)
        k = 6
        # copies of the (k+1)-th neighbor, one at a lower index than the
        # original and one higher: positions k+1..k+3 tie, none belongs in k
        boundary = int(order[k])
        low, high = int(order[20]), int(order[30])
        pts[low] = pts[boundary]
        pts[high] = pts[boundary]
        for kk in (k, k + 1, k + 2, k + 3):
            _assert_rows_match_oracle(pts, query, kk)

    @pytest.mark.parametrize("drop", [0, 1])
    def test_k_equal_n_and_n_minus_one(self, drop):
        pts = _lattice(3)
        pts[5] = pts[20]  # a duplicate on top of the lattice ties
        k = len(pts) - drop
        _assert_rows_match_oracle(pts, pts, k)
        _assert_rows_match_oracle(pts, np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]), k)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        coords=st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=30
        ),
        query=st.tuples(*[st.integers(-4, 4)] * 3),
        data=st.data(),
    )
    def test_small_integer_lattice_clouds(self, coords, query, data):
        pts = np.asarray(coords, dtype=np.float64)
        k = data.draw(st.integers(1, len(pts)), label="k")
        # half-integer queries sit equidistant between lattice points
        queries = np.vstack([np.asarray(query, dtype=np.float64) / 2.0, pts[:3]])
        _assert_rows_match_oracle(pts, queries, k)


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------


class TestFps:
    def test_unit_square_hand_example(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        )
        # start at 0; farthest is the opposite corner 3 (d2=2); then the tie
        # between 1 and 2 (both d2=1 from the chosen set) keeps the lower index.
        assert fps_indices(pts, 4, start=0).tolist() == [0, 3, 1, 2]
        assert fps_indices(pts, 2, start=0).tolist() == [0, 3]

    def test_start_index_respected(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        )
        assert fps_indices(pts, 2, start=3).tolist() == [3, 0]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            pts = rng.normal(size=(60, 3))
            m = int(rng.integers(1, 61))
            got = fps_indices(pts, m, start=0)
            assert np.array_equal(got, fps_oracle(pts, m, start=0)), f"trial {trial}"

    def test_with_duplicates_matches_oracle(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(32, 3))
        pts[20] = pts[3]
        pts[21] = pts[3]
        got = fps_indices(pts, 32, start=0)
        assert np.array_equal(got, fps_oracle(pts, 32, start=0))
        # 30 distinct positions: after they are exhausted the max-min distance
        # is 0 everywhere and the lowest unselected index is picked
        assert len(set(got.tolist())) == 32

    def test_duplicate_hand_example(self):
        # once the 3 distinct positions are taken, the copy of point 0 (index
        # 2) is the only unselected point; the start is never picked again
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert fps_indices(pts, 4, start=0).tolist() == [0, 1, 3, 2]
        assert fps_oracle(pts, 4, start=0).tolist() == [0, 1, 3, 2]

    def test_full_sample_is_permutation(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 3))
        got = fps_indices(pts, 40, start=0)
        assert sorted(got.tolist()) == list(range(40))

    def test_deterministic(self):
        pts = np.random.default_rng(12).normal(size=(50, 3))
        a = fps_indices(pts, 20, start=0)
        b = fps_indices(pts, 20, start=0)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        # a shorter sample is a prefix of a longer one (greedy construction)
        pts = np.random.default_rng(13).normal(size=(45, 3))
        long = fps_indices(pts, 30, start=0)
        short = fps_indices(pts, 10, start=0)
        assert np.array_equal(short, long[:10])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        coords=st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=30
        ),
        data=st.data(),
    )
    def test_nested_runs_are_prefixes_of_one_run(self, coords, data):
        # lattice points tie on distance everywhere; with copies drawn on
        # top, a budget can exceed the number of distinct positions
        pts = np.asarray(coords, dtype=np.float64)
        copies = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=8), label="copies")
        pts = np.vstack([pts, pts[copies]])
        budgets = data.draw(
            st.lists(st.integers(1, len(pts)), min_size=1, max_size=4), label="budgets"
        )
        budgets.sort(reverse=True)
        once = fps_indices(pts, budgets[0], start=0)
        kept = np.arange(len(pts))
        for m in budgets:  # each hop samples the previous hop's points
            kept = kept[fps_indices(pts[kept], m, start=0)]
            assert np.array_equal(kept, once[:m]), f"budgets {budgets}"

    def test_min_distance_monotonicity(self):
        # each newly selected point's distance-to-set never increases
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(50, 3))
        order = fps_indices(pts, 50, start=0)
        gaps = []
        chosen = [order[0]]
        for nxt in order[1:]:
            d2 = ((pts[chosen] - pts[nxt]) ** 2).sum(axis=1).min()
            gaps.append(d2)
            chosen.append(nxt)
        assert (np.diff(gaps) <= 1e-12).all()

    @pytest.mark.parametrize(
        "config", [ModelConfig(), PARTIAL_CONFIG, TINY_CONFIG], ids=["default", "partial", "tiny"]
    )
    def test_matches_einsum_loop_on_corpus_clouds(self, config):
        # the one sampling call per cloud: the hop-2 budget over the hop-1
        # sample, bit for bit the picks of the former einsum loop
        budget, picks = config.hops[0].num_points, config.hops[1].num_points
        for seed, cloud in enumerate(make_shape_corpus(3, 1400, seed=300)):
            pts = cloud.coords[sample_indices(len(cloud), budget, seed)]
            assert np.array_equal(fps_indices(pts, picks), fps_einsum_oracle(pts, picks)), seed

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 60),
        span=st.integers(0, 3),
        copies=st.integers(0, 40),
        step=st.sampled_from([1.0, 0.1, 1.0 / 3.0]),
        m_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_einsum_loop_on_lattices(self, n, span, copies, step, m_frac, seed):
        # lattice points tie on distance everywhere, duplicates repeat
        # them, and a budget can exceed the number of distinct positions;
        # a step of 0.1 or 1/3 makes the squares round
        rng = np.random.default_rng(seed)
        pts = rng.integers(-span, span + 1, size=(n, 3)) * step
        pts = np.vstack([pts, pts[rng.integers(0, n, size=copies)]])
        m = 1 + int(m_frac * (len(pts) - 1))
        start = int(rng.integers(len(pts)))
        assert np.array_equal(fps_indices(pts, m, start), fps_einsum_oracle(pts, m, start))

    def test_bad_arguments(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError, match="sample"):
            fps_indices(pts, 5, start=0)
        with pytest.raises(ValueError, match="sample"):
            fps_indices(pts, 0, start=0)
        with pytest.raises(ValueError, match="start"):
            fps_indices(pts, 2, start=4)

    def test_fps_accepts_cloud(self):
        from rpointhop import PointCloud

        pts = np.random.default_rng(15).normal(size=(16, 3))
        got = fps_indices(PointCloud(pts), 6)
        assert np.array_equal(got, fps_indices(pts, 6, start=0))
