"""Correspondence selection, rigid estimation, RANSAC, ICP, registration."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpointhop import (
    EstimationError,
    MatchingError,
    MatchParams,
    PointCloud,
    RansacParams,
    RigidTransform,
    apply_transform,
    estimate_transform,
    euler_xyz_to_matrix,
    extract_features,
    icp_refine,
    load_transform,
    match,
    matrix_to_euler_xyz,
    ransac_estimate,
    register,
    rotation_error,
    save_transform,
    translation_error,
)
from rpointhop.bench import add_noise, make_partial, make_shape_cloud
from rpointhop.pipeline import FeatureSet
from rpointhop import registration
from rpointhop.registration import (
    CorrespondenceSet,
    _coincident,
    _degenerate,
    _kabsch,
    _nearest_two,
    _seeded_groups,
    _wrap_degrees,
    format_report,
    register_features,
)

from conftest import (
    assert_same_icp,
    compose,
    feature_distance_matrix,
    icp_oracle,
    match_oracle,
    random_rotation,
    ransac_oracle,
)


def make_feature_set(features: np.ndarray, coords: np.ndarray | None = None) -> FeatureSet:
    n = features.shape[0]
    if coords is None:
        coords = np.zeros((n, 3))
    return FeatureSet(
        point_indices=np.arange(n),
        coords=np.asarray(coords, dtype=np.float64),
        features=np.asarray(features, dtype=np.float64),
        sign_margins=np.ones(n),
        eigen_gaps=np.ones(n),
        neighbor_table=np.arange(n)[:, None],  # self-only: d2 is the plain second-nearest
    )


def make_corr(f: np.ndarray, g: np.ndarray) -> CorrespondenceSet:
    m = f.shape[0]
    return CorrespondenceSet(
        pairs=np.stack([np.arange(m), np.arange(m)], axis=1),
        target_coords=np.asarray(f, dtype=np.float64),
        source_coords=np.asarray(g, dtype=np.float64),
        feature_distances=np.zeros(m),
        ratios=np.zeros(m),
    )


def rz(deg: float) -> np.ndarray:
    t = np.radians(deg)
    return np.array(
        [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


class TestParams:
    def test_match_params_count_mode(self):
        with pytest.raises(ValueError, match="positive"):
            MatchParams(m1=0)
        with pytest.raises(ValueError, match="m2 cannot exceed m1"):
            MatchParams(m1=4, m2=5)

    def test_ransac_params(self):
        with pytest.raises(ValueError, match="inlier_radius"):
            RansacParams(inlier_radius=0.0)
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="inlier_radius must be finite"):
                RansacParams(inlier_radius=radius)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


class TestMatch:
    # distance matrix [[0.1, 0.9], [0.8, 0.2]] realized by 2-D feature points
    T_FEATS = np.array([[0.0, 0.0], [0.875, np.sqrt(0.039375)]])
    S_FEATS = np.array([[0.1, 0.0], [0.9, 0.0]])

    def test_distance_matrix_hand_example(self):
        d = feature_distance_matrix(
            make_feature_set(self.T_FEATS), make_feature_set(self.S_FEATS)
        )
        assert np.allclose(d, [[0.1, 0.9], [0.8, 0.2]], atol=1e-12)

    def test_nearest_two_hand_example(self):
        first, d1, d2 = _nearest_two(np.array([[0.1, 0.9], [0.8, 0.2]]), np.arange(2)[:, None])
        assert first.tolist() == [0, 1]
        assert np.allclose(d1, [0.1, 0.2])
        assert np.allclose(d2, [0.9, 0.8])

    def test_count_mode_hand_example(self):
        # ratios: row 0 -> 1/9, row 1 -> 1/4; m2=1 keeps the unambiguous row 0
        target = make_feature_set(self.T_FEATS, coords=np.array([[0, 0, 0], [1, 1, 1.0]]))
        source = make_feature_set(self.S_FEATS, coords=np.array([[5, 5, 5], [6, 6, 6.0]]))
        corr = match(target, source, MatchParams(m1=2, m2=1))
        assert len(corr) == 1
        assert corr.pairs.tolist() == [[0, 0]]
        assert corr.feature_distances[0] == pytest.approx(0.1)
        assert corr.ratios[0] == pytest.approx(1.0 / 9.0)
        assert np.array_equal(corr.target_coords, [[0, 0, 0]])
        assert np.array_equal(corr.source_coords, [[5, 5, 5]])

    def test_no_ratio_test_selects_m2_by_distance(self):
        # distances: row 0 -> [0.1, 0.12] (d1=0.1, ratio 5/6), row 1 ->
        # [0.9, 1.12] (d1=0.9, ratio 0.9/1.12 ~ 0.804): the two criteria
        # disagree on which single pair to keep
        target = make_feature_set(np.array([[0.0, 0.0], [1.0, 0.0]]))
        source = make_feature_set(np.array([[0.1, 0.0], [-0.12, 0.0]]))
        with_ratio = match(target, source, MatchParams(m1=2, m2=1))
        assert with_ratio.pairs[:, 0].tolist() == [1]
        without = match(target, source, MatchParams(m1=2, m2=1, use_ratio_test=False))
        assert len(without) == 1  # same count either way: m2 pairs
        assert without.pairs[:, 0].tolist() == [0]

    def test_m1_exceeding_targets(self):
        target = make_feature_set(self.T_FEATS)
        source = make_feature_set(self.S_FEATS)
        with pytest.raises(MatchingError, match="exceeds"):
            match(target, source, MatchParams(m1=3, m2=1))
        # m1 == n_target is allowed
        corr = match(target, source, MatchParams(m1=2, m2=2))
        assert len(corr) == 2

    def test_distance_tie_takes_lower_source_index(self):
        target = make_feature_set(np.array([[0.0, 0.0]]))
        source = make_feature_set(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        corr = match(target, source, MatchParams(m1=1, m2=1))
        assert corr.pairs[0, 1] == 0  # first of the tied columns

    def test_second_neighbor_skips_adjacent_twin(self):
        # source 0 and 1 sit side by side with near-identical features,
        # source 2 is far away; the target matches source 0
        target_feats = np.array([[0.0, 0.1]])
        source_feats = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 0.0]])
        table = np.array([[0, 1], [1, 0], [2, 1]])
        dist = feature_distance_matrix(
            make_feature_set(target_feats), make_feature_set(source_feats)
        )
        first, d1, d2 = _nearest_two(dist, table)
        assert first.tolist() == [0]
        assert d1[0] == pytest.approx(0.1)
        assert d2[0] == pytest.approx(np.hypot(1.0, 0.1))  # source 2, not the twin
        # self-only rows keep the plain second-nearest distance: the twin
        _, _, d2_plain = _nearest_two(dist, np.arange(3)[:, None])
        assert d2_plain[0] == pytest.approx(np.hypot(0.01, 0.1))

        target = make_feature_set(target_feats)
        source = FeatureSet(
            point_indices=np.arange(3),
            coords=np.array([[0.0, 0, 0], [0.01, 0, 0], [1.0, 0, 0]]),
            features=source_feats,
            sign_margins=np.ones(3),
            eigen_gaps=np.ones(3),
            neighbor_table=table,
        )
        corr = match(target, source, MatchParams(m1=1, m2=1))
        assert corr.pairs.tolist() == [[0, 0]]
        assert corr.ratios[0] == pytest.approx(0.1 / np.hypot(1.0, 0.1))
        plain = match(target, make_feature_set(source_feats), MatchParams(m1=1, m2=1))
        assert plain.ratios[0] == pytest.approx(0.1 / np.hypot(0.01, 0.1))

    def test_neighborhood_covering_every_source_gives_ratio_one(self):
        dist = np.array([[0.1, 0.9], [0.8, 0.2]])
        _, _, d2 = _nearest_two(dist, np.array([[0, 1], [1, 0]]))
        assert d2.tolist() == [0.0, 0.0]

    def test_single_source_ratio_is_one(self):
        target = make_feature_set(np.array([[0.0, 0.0], [1.0, 0.0]]))
        source = make_feature_set(np.array([[0.5, 0.0]]))
        corr = match(target, source, MatchParams(m1=2, m2=2))
        assert np.allclose(corr.ratios, 1.0)

    def test_feature_width_mismatch(self):
        with pytest.raises(ValueError, match="widths differ"):
            match(
                make_feature_set(np.zeros((2, 3))), make_feature_set(np.zeros((2, 4))), MatchParams(m1=1, m2=1)
            )

    def test_exact_duplicate_features_match_exactly(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(30, 6))
        perm = rng.permutation(30)
        target = make_feature_set(feats, coords=rng.normal(size=(30, 3)))
        source = make_feature_set(feats[perm], coords=rng.normal(size=(30, 3)))
        corr = match(target, source, MatchParams(m1=30, m2=30))
        # each target row finds its permuted twin at distance 0
        inv = np.empty(30, dtype=np.intp)
        inv[perm] = np.arange(30)
        assert np.array_equal(corr.pairs[:, 1], inv[corr.pairs[:, 0]])
        assert np.abs(corr.feature_distances).max() == 0.0


MATCH_FIELDS = ("pairs", "target_coords", "source_coords", "feature_distances", "ratios")


@settings(max_examples=200, deadline=None)
@given(
    n_target=st.integers(1, 13),
    n_source=st.integers(1, 9),
    width=st.integers(1, 5),
    integer_valued=st.booleans(),
    table=st.sampled_from(["self", "random", "all"]),
    m1=st.integers(1, 14),
    m2=st.integers(1, 14),
    use_ratio_test=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_target=1, n_source=5, width=3, integer_valued=False, table="random", m1=1, m2=1,
         use_ratio_test=True, seed=0)
@example(n_target=7, n_source=1, width=2, integer_valued=False, table="self", m1=5, m2=3,
         use_ratio_test=True, seed=1)
@example(n_target=13, n_source=9, width=4, integer_valued=True, table="all", m1=13, m2=13,
         use_ratio_test=True, seed=2)
@example(n_target=11, n_source=9, width=2, integer_valued=True, table="random", m1=9, m2=4,
         use_ratio_test=False, seed=3)
def test_match_equals_serial_oracle(
    n_target, n_source, width, integer_valued, table, m1, m2, use_ratio_test, seed
):
    """``match`` splits the target rows across the two lanes; it must give
    the serial form's bytes on every field, including under feature ties
    and duplicates (integer-valued features) and tables that cover every
    source row (d2 = 0), or the same refusal."""
    rng = np.random.default_rng(seed)

    def features(n):
        if integer_valued:
            return rng.integers(-2, 3, size=(n, width)).astype(np.float64)
        return rng.normal(size=(n, width))

    target = make_feature_set(features(n_target), coords=rng.normal(size=(n_target, 3)))
    tables = {
        "self": np.arange(n_source)[:, None],
        "random": rng.integers(0, n_source, size=(n_source, 3)),
        "all": np.tile(np.arange(n_source), (n_source, 1)),
    }
    source = FeatureSet(
        point_indices=np.arange(n_source),
        coords=rng.normal(size=(n_source, 3)),
        features=features(n_source),
        sign_margins=np.ones(n_source),
        eigen_gaps=np.ones(n_source),
        neighbor_table=tables[table],
    )
    params = MatchParams(m1=m1, m2=min(m2, m1), use_ratio_test=use_ratio_test)
    if m1 > n_target:
        with pytest.raises(MatchingError) as expected:
            match_oracle(target, source, params)
        with pytest.raises(MatchingError) as got:
            match(target, source, params)
        assert str(got.value) == str(expected.value)
        return
    got, want = match(target, source, params), match_oracle(target, source, params)
    for name in MATCH_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# closed-form estimation
# ---------------------------------------------------------------------------


class TestCorrespondenceSet:
    def test_take_keeps_rows_in_order(self):
        rng = np.random.default_rng(20)
        corr = CorrespondenceSet(
            pairs=np.arange(10).reshape(5, 2),
            target_coords=rng.normal(size=(5, 3)),
            source_coords=rng.normal(size=(5, 3)),
            feature_distances=rng.uniform(size=5),
            ratios=rng.uniform(size=5),
        )
        rows = np.array([3, 0, 4])
        mask = np.array([True, False, False, True, True])
        for sub, expected in ((corr.take(rows), rows), (corr.take(mask), [0, 3, 4])):
            assert len(sub) == 3
            for name in ("pairs", "target_coords", "source_coords", "feature_distances", "ratios"):
                assert np.array_equal(getattr(sub, name), getattr(corr, name)[expected])


class TestEstimateTransform:
    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = rng.normal(size=(int(rng.integers(3, 50)), 3))
            r = random_rotation(rng)
            t = rng.normal(size=3)
            tf = estimate_transform(make_corr(f, f @ r.T + t))
            assert np.abs(tf.rotation - r).max() < 1e-10
            assert np.abs(tf.translation - t).max() < 1e-10

    def test_minimal_three_pairs(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 3))
        r = random_rotation(rng)
        t = rng.normal(size=3)
        tf = estimate_transform(make_corr(f, f @ r.T + t))
        assert np.abs(tf.rotation - r).max() < 1e-9

    def test_least_squares_under_noise(self):
        # with zero-mean noise the estimate stays near the truth and the
        # result is still a proper rotation
        rng = np.random.default_rng(3)
        f = rng.normal(size=(500, 3))
        r = random_rotation(rng)
        t = rng.normal(size=3)
        g = f @ r.T + t + rng.normal(size=(500, 3)) * 0.01
        tf = estimate_transform(make_corr(f, g))
        assert np.abs(tf.rotation - r).max() < 0.01
        assert np.abs(tf.translation - t).max() < 0.01

    def test_reflection_never_produced(self):
        # near-planar points with heavy noise exercise the det correction;
        # RigidTransform construction would reject any reflection
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = rng.normal(size=(10, 3)) * [1.0, 1.0, 1e-6]
            g = rng.normal(size=(10, 3)) * [1.0, 1.0, 1e-6]
            try:
                tf = estimate_transform(make_corr(f, g))
            except EstimationError:
                continue
            assert np.linalg.det(tf.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(EstimationError, match="3 pairs"):
            estimate_transform(make_corr(np.zeros((2, 3)), np.zeros((2, 3))))

    def test_collinear_targets(self):
        f = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(EstimationError, match="collinear"):
            estimate_transform(make_corr(f, f))

    def test_centroid_mapping(self):
        # t = gbar - R fbar exactly maps the target centroid to the source one
        rng = np.random.default_rng(5)
        f = rng.normal(size=(20, 3))
        g = rng.normal(size=(20, 3))
        tf = estimate_transform(make_corr(f, g))
        assert np.abs(tf.rotation @ f.mean(axis=0) + tf.translation - g.mean(axis=0)).max() < 1e-12


def outlier_pairs():
    """40 exact pairs under a random motion and 20 wild mismatches."""
    rng = np.random.default_rng(6)
    r = random_rotation(rng)
    t = rng.normal(size=3)
    f_in = rng.normal(size=(40, 3))
    g_in = f_in @ r.T + t
    f_out = rng.normal(size=(20, 3))
    g_out = rng.normal(size=(20, 3)) * 5.0  # wild mismatches
    return make_corr(np.vstack([f_in, f_out]), np.vstack([g_in, g_out])), r, t


def scarce_pairs():
    """8 exact pairs among 128: a uniform 4-pair draw is all-inlier with
    probability ~7e-6, so 512 uniform draws find none."""
    rng = np.random.default_rng(9)
    r = random_rotation(rng)
    t = rng.normal(size=3)
    f = rng.uniform(-1.0, 1.0, size=(128, 3))
    g = rng.uniform(-1.0, 1.0, size=(128, 3)) @ r.T + t
    inliers = rng.choice(128, size=8, replace=False)
    g[inliers] = f[inliers] @ r.T + t
    return make_corr(f, g), r, t


def noisy_pairs():
    """40 pairs with noise near the inlier radius and 40 mismatches: which
    pairs a hypothesis keeps depends on the sample it came from."""
    rng = np.random.default_rng(10)
    f = rng.uniform(-1.0, 1.0, size=(80, 3))
    g = f @ random_rotation(rng).T + rng.normal(size=3) + rng.normal(size=(80, 3)) * 0.02
    g[40:] = rng.uniform(-1.0, 1.0, size=(40, 3))
    return make_corr(f, g)


def repeated_pairs():
    """24 noisy pairs on 6 distinct target points: groups hold repeated
    points, and the copies of a point tie on support."""
    rng = np.random.default_rng(11)
    f = rng.normal(size=(6, 3))[rng.integers(0, 6, size=24)]
    g = f @ random_rotation(rng).T + 0.5 + rng.normal(size=(24, 3)) * 0.01
    return make_corr(f, g)


def collinear_pairs():
    """30 target points within 1e-14 of a line: every sample is degenerate."""
    rng = np.random.default_rng(12)
    f = rng.normal(size=(30, 1)) * np.array([1.0, 2.0, -0.5]) + rng.normal(size=(30, 3)) * 1e-14
    return make_corr(f, f @ random_rotation(rng).T)


def clique_pairs():
    """512 pairs: 4 non-coplanar pairs under one rigid motion, and 508 pairs
    on a line, stretched by 2 and shifted, that are length-consistent with
    no other pair. The 4 lead the seeds; each line pair's group is that
    pair alone, which is degenerate."""
    f = np.zeros((512, 3))
    g = np.zeros((512, 3))
    f[4:, 0] = np.arange(508.0)
    g[4:, 0] = 2.0 * f[4:, 0] + 50.0
    f[:4] = np.array([-100.0, 0.0, 0.0]) + np.vstack([np.zeros(3), np.eye(3)])
    g[:4] = f[:4] @ rz(30.0).T + np.array([0.0, 0.0, 5.0])
    return make_corr(f, g)


def assert_same_bits(a: RigidTransform, b: RigidTransform) -> None:
    assert a.rotation.tobytes() == b.rotation.tobytes()
    assert a.translation.tobytes() == b.translation.tobytes()


class TestKabsch:
    @pytest.mark.parametrize("n", [3, 4, 50])
    def test_stack_slices_equal_estimate_transform(self, n):
        rng = np.random.default_rng(20 + n)
        f = rng.normal(size=(5, n, 3))
        g = f @ random_rotation(rng).T + rng.normal(size=(5, n, 3)) * 0.1
        rotation, translation, s = _kabsch(f, g)
        assert rotation.shape == (5, 3, 3) and translation.shape == (5, 3) and s.shape == (5, 3)
        for i in range(5):
            one = estimate_transform(make_corr(f[i], g[i]))
            assert_same_bits(one, RigidTransform(rotation[i], translation[i]))
            assert np.array_equal(_kabsch(f[i], g[i])[2], s[i])

    def test_degenerate_slices_are_flagged_quietly(self):
        # coincident and collinear slices beside a regular one: no warning
        # (pytest turns warnings into errors), no NaN, and only they flagged
        rng = np.random.default_rng(23)
        f = np.stack([np.zeros((4, 3)), np.outer(np.arange(4.0), [1.0, 2.0, 3.0]), rng.normal(size=(4, 3))])
        rotation, translation, s = _kabsch(f, f + 1.0)
        assert np.isfinite(rotation).all() and np.isfinite(translation).all()
        assert _degenerate(s).tolist() == [True, True, False]


def permuted(corr: CorrespondenceSet, seed: int) -> CorrespondenceSet:
    """The pairs in a seeded order (seed 0 keeps them as built): pair order
    decides every tie of the consensus."""
    return corr.take(np.random.default_rng(seed).permutation(len(corr)) if seed else np.arange(len(corr)))


def consensus_groups(corr: CorrespondenceSet) -> tuple[np.ndarray, np.ndarray]:
    """(compatibility, groups) of ``ransac_estimate`` at the default radius."""
    f, g = corr.target_coords, corr.source_coords
    gap = np.linalg.norm(f[:, None] - f, axis=-1) - np.linalg.norm(g[:, None] - g, axis=-1)
    compatible = np.abs(gap) < 2.0 * RansacParams().inlier_radius
    c = compatible.astype(float)
    return compatible, _seeded_groups(compatible, (c @ c) * c)


class TestRansac:
    def test_recovers_under_outliers(self):
        corr, r, t = outlier_pairs()
        plain = estimate_transform(corr)
        robust = ransac_estimate(corr, RansacParams())
        assert np.abs(robust.rotation - r).max() < 1e-9
        assert np.abs(robust.translation - t).max() < 1e-9
        assert np.abs(plain.rotation - r).max() > 0.01  # contrast: LS is polluted

    def test_recovers_from_scarce_inliers(self):
        # second-order compatibility still finds the 8 inliers
        corr, r, t = scarce_pairs()
        robust = ransac_estimate(corr, RansacParams())
        assert np.abs(robust.rotation - r).max() < 1e-9
        assert np.abs(robust.translation - t).max() < 1e-9

    def test_recovers_a_four_pair_clique(self):
        # 4 pairs of 512 agree on one motion; the 508 others agree with none
        robust = ransac_estimate(clique_pairs())
        assert np.abs(robust.rotation - rz(30.0)).max() < 1e-9
        assert np.abs(robust.translation - [0.0, 0.0, 5.0]).max() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "pairs",
        [lambda: outlier_pairs()[0], lambda: scarce_pairs()[0], noisy_pairs, repeated_pairs, clique_pairs],
        ids=["outliers", "scarce", "noisy", "repeated", "clique"],
    )
    def test_matches_one_at_a_time_oracle(self, pairs, seed):
        corr = permuted(pairs(), seed)
        assert_same_bits(ransac_estimate(corr, RansacParams()), ransac_oracle(corr, RansacParams()))

    @pytest.mark.parametrize("seed", range(5))
    def test_refuses_like_the_oracle(self, seed):
        corr = permuted(collinear_pairs(), seed)
        with pytest.raises(EstimationError) as expected:
            ransac_oracle(corr, RansacParams())
        with pytest.raises(EstimationError) as got:
            ransac_estimate(corr, RansacParams())
        assert str(got.value) == str(expected.value) == "no RANSAC hypothesis produced 3 or more inliers"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(3, 200),
        inlier_frac=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        copies=st.integers(1, 20),
        lattice=st.booleans(),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(m=3, inlier_frac=1.0, copies=1, lattice=False, seed=0)
    @example(m=40, inlier_frac=0.0, copies=20, lattice=True, seed=0)
    def test_matches_the_oracle_with_ties_property(self, m, inlier_frac, copies, lattice, seed):
        # lattice points repeat separations, and each copied pair has its
        # original's compatibility row: both tie S row sums
        rng = np.random.default_rng(seed)
        f = rng.integers(-4, 5, size=(m, 3)) * 0.25 if lattice else rng.uniform(-1.0, 1.0, size=(m, 3))
        g = rng.uniform(-1.0, 1.0, size=(m, 3))
        inliers = rng.random(m) < inlier_frac
        noise = rng.normal(size=(inliers.sum(), 3)) * 0.01
        g[inliers] = f[inliers] @ random_rotation(rng).T + rng.normal(size=3) + noise
        copied = rng.integers(0, m, size=min(copies, m - 1))
        f[m - len(copied):], g[m - len(copied):] = f[copied], g[copied]
        corr = make_corr(f, g)
        try:
            expected = ransac_oracle(corr, RansacParams())
        except EstimationError as exc:
            with pytest.raises(EstimationError) as got:
                ransac_estimate(corr, RansacParams())
            assert str(got.value) == str(exc)
        else:
            assert_same_bits(ransac_estimate(corr, RansacParams()), expected)

    def test_groups_are_mutually_compatible(self):
        # each group holds distinct, mutually compatible pairs, then its
        # seed repeated
        for corr in (outlier_pairs()[0], scarce_pairs()[0], noisy_pairs(), repeated_pairs(), clique_pairs()):
            compatible, picks = consensus_groups(corr)
            assert picks.shape == (min(32, len(corr)), 11)
            for row in picks:
                distinct = row[: np.argmax(np.append(row[1:] == row[0], True)) + 1]
                assert (row[len(distinct):] == row[0]).all()
                assert len(set(distinct.tolist())) == len(distinct)
                assert compatible[np.ix_(distinct, distinct)].all()

    def test_line_pair_groups_are_degenerate(self):
        # the clique's 4 seeds give the motion; the 28 line pairs seeded
        # after them find no partner, so each group is one point 11 times
        corr = clique_pairs()
        _, picks = consensus_groups(corr)
        flags = _degenerate(_kabsch(corr.target_coords[picks], corr.source_coords[picks])[2])
        assert not flags[:4].any() and flags[4:].all()

    def test_nothing_compatible_ends_in_the_refusal(self):
        # a unit lattice, and source separations 10x the target's: every
        # separation gap is at least 9, far beyond 2 * inlier_radius
        f = np.stack(np.meshgrid(*[np.arange(3.0)] * 3), axis=-1).reshape(-1, 3)
        corr = make_corr(f, 10.0 * f)
        with pytest.raises(EstimationError, match="no RANSAC hypothesis produced 3 or more inliers"):
            ransac_estimate(corr, RansacParams())

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(30, 3))
        g = f @ random_rotation(rng).T + 1.0
        g[:10] += rng.normal(size=(10, 3))
        corr = make_corr(f, g)
        a = ransac_estimate(corr, RansacParams())
        b = ransac_estimate(corr, RansacParams())
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_no_inliers_raises(self):
        rng = np.random.default_rng(8)
        corr = make_corr(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        with pytest.raises(EstimationError, match="3 or more inliers"):
            ransac_estimate(corr, RansacParams(inlier_radius=1e-12))

    def test_too_few_pairs(self):
        # three pairs determine a rigid motion, as in estimate_transform
        corr = make_corr(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(EstimationError, match="need at least 3 pairs, got 2"):
            ransac_estimate(corr, RansacParams())
        f = np.eye(3)
        robust = ransac_estimate(make_corr(f, f @ rz(30.0).T + 1.0), RansacParams())
        assert np.abs(robust.rotation - rz(30.0)).max() < 1e-9


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


def refine_as_oracle(source: PointCloud, target: PointCloud, initial: RigidTransform):
    """``icp_refine``'s result, once it equals the full-search oracle's bit
    for bit (transform bytes, residuals, iterations, flag)."""
    result = icp_refine(source, target, initial)
    assert_same_icp(result, icp_oracle(source, target, initial))
    return result


class TestIcp:
    def test_exact_initial_converges_immediately(self):
        cloud = PointCloud(make_shape_cloud(256, seed=0).coords)
        rng = np.random.default_rng(9)
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        source = apply_transform(cloud, tf)
        result = refine_as_oracle(source, cloud, tf)
        assert result.converged
        assert result.iterations == 2  # initial residual + unchanged residual
        assert result.residuals[0] < 1e-12
        assert np.abs(result.transform.rotation - tf.rotation).max() < 1e-9

    def test_small_offset_recovered(self):
        cloud = PointCloud(make_shape_cloud(512, seed=1).coords)
        shift = np.array([0.02, -0.015, 0.01])
        source = apply_transform(cloud, RigidTransform(np.eye(3), shift))
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.converged
        assert np.abs(result.transform.translation - shift).max() < 1e-6
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-6

    def test_small_perturbation_residuals_decrease_monotonically(self):
        # for a 2-degree perturbation of an aligned pair the pairings are
        # essentially correct throughout and even the unsquared mean
        # residual decreases monotonically
        cloud = PointCloud(make_shape_cloud(256, seed=2).coords)
        source = apply_transform(cloud, RigidTransform(rz(2.0), np.zeros(3)))
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.converged
        assert (np.diff(result.residuals) <= 1e-12).all()
        assert result.residuals[-1] < 1e-9

    def test_large_motion_overall_improvement(self):
        # the estimator minimizes the squared loss, so the recorded mean
        # residual may wiggle at the 1e-5 level; the guarantees are overall
        # improvement and bounded wiggle, not strict per-step decrease
        cloud = PointCloud(make_shape_cloud(256, seed=2).coords)
        rng = np.random.default_rng(10)
        tf = RigidTransform(rz(25.0), rng.normal(size=3) * 0.1)
        source = apply_transform(cloud, tf)
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.residuals[-1] < result.residuals[0]
        assert (np.diff(result.residuals) <= 1e-4).all()

    def test_partial_overlap_holds_a_close_start(self):
        # both clouds keep 75% of one shape around different anchors; from
        # a start 2 degrees off, the points outside the overlap must not
        # pull the estimate away (all-pairs ICP drifts ~12 degrees here)
        cloud = PointCloud(make_shape_cloud(512, seed=0).coords)
        tf = RigidTransform(rz(30.0), np.array([0.1, -0.2, 0.05]))
        source = make_partial(apply_transform(cloud, tf), 0.75, 1)
        target = make_partial(cloud, 0.75, 2)
        start = compose(tf, RigidTransform(rz(2.0), np.zeros(3)))
        result = refine_as_oracle(source, target, start)
        assert result.converged
        assert np.abs(result.transform.rotation - tf.rotation).max() < 1e-6
        assert np.abs(result.transform.translation - tf.translation).max() < 1e-6

    def test_max_iters_respected(self, monkeypatch):
        monkeypatch.setattr("rpointhop.registration.ICP_MAX_ITERS", 3)
        cloud = PointCloud(make_shape_cloud(256, seed=3).coords)
        source = apply_transform(cloud, RigidTransform(rz(40.0), np.zeros(3)))
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.iterations <= 3

    def test_purely_local_stuck_in_symmetric_minimum(self):
        # a 4-fold symmetric set rotated by 90 degrees coincides with itself,
        # so from an identity initial guess ICP settles at identity rather
        # than finding the true 90-degree motion
        rng = np.random.default_rng(11)
        base = rng.normal(size=(25, 3))
        sym = np.vstack([base @ rz(a).T for a in (0.0, 90.0, 180.0, 270.0)])
        cloud = PointCloud(sym)
        source = apply_transform(cloud, RigidTransform(rz(90.0), np.zeros(3)))
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.converged
        assert result.residuals[-1] < 1e-9
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-6

    def test_duplicated_source_points(self):
        # exact copies tie at every distance, so the nearest point of a
        # row next to a copy can never be vouched for and is searched again
        cloud = PointCloud(make_shape_cloud(256, seed=4).coords)
        rng = np.random.default_rng(12)
        doubled = np.vstack([cloud.coords, cloud.coords[rng.integers(0, 256, size=96)]])
        shuffled = PointCloud(doubled[rng.permutation(len(doubled))])
        source = apply_transform(shuffled, RigidTransform(rz(8.0), np.zeros(3)))
        result = refine_as_oracle(source, cloud, RigidTransform.identity())
        assert result.residuals[-1] < result.residuals[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sources_of_one_to_three_points(self, n):
        # an index of one point has no second-nearest point to bound by
        target = PointCloud(make_shape_cloud(64, seed=5).coords)
        source = PointCloud(make_shape_cloud(64, seed=6).coords[:n])
        refine_as_oracle(source, target, RigidTransform.identity())

    @pytest.mark.parametrize("start", ["ransac", "identity", "rotated_20"])
    def test_partial_crops_from_each_start(self, tiny_model, tiny_corpus, start):
        # 75% crops around independent anchors, as the register_refine
        # workload draws them, refined from the seeded consensus's estimate
        # and from two starts far from it
        rng = np.random.default_rng(21)
        tf_gt = RigidTransform(rz(30.0), rng.normal(size=3) * 0.2)
        source = add_noise(make_partial(apply_transform(tiny_corpus[2], tf_gt), 0.75, 3), 0.01, seed=5)
        target = make_partial(tiny_corpus[2], 0.75, 4)
        if start == "ransac":
            target_fs = extract_features(tiny_model, target, seed=9)
            source_fs = extract_features(tiny_model, source, seed=9)
            params = MatchParams(m1=96, m2=48, use_ransac=True)
            initial = register_features(target_fs, source_fs, source, target, params)[0]
        elif start == "identity":
            initial = RigidTransform.identity()
        else:
            initial = compose(tf_gt, RigidTransform(rz(20.0), np.full(3, 0.05)))
        result = refine_as_oracle(source, target, initial)
        assert result.iterations >= 2


def degenerate_point_sets(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(target, source) 64-pair point sets that leave the rotation
    undetermined. With one source or target point repeated, the
    cross-covariance is rounding noise whose singular value ratios pass the
    collinearity test; two distinct points repeated are collinear."""
    shape = make_shape_cloud(64, seed=5).coords
    other = make_shape_cloud(64, seed=6).coords
    if kind == "coincident source":
        return shape, np.repeat(other[:1], 64, axis=0)
    if kind == "coincident target":
        return np.repeat(other[:1], 64, axis=0), shape
    return shape, other[np.arange(64) % 2]


DEGENERATE_KINDS = ["coincident source", "coincident target", "two points repeated"]

# the property test's kinds of point set, and whether each is made coincident
COINCIDENT_KINDS = {
    "spread": False, "near": True, "apart": False, "one point": True, "zeros": True, "line": False,
}


class TestDegeneratePairings:
    def test_coincident_sets_pass_the_singular_value_test(self):
        # what the spread test adds: these sets' singular values alone
        # read as well-posed
        for kind in DEGENERATE_KINDS[:2]:
            f, g = degenerate_point_sets(kind)
            s = _kabsch(f, g)[2]
            assert not _degenerate(s) and _degenerate(s, f, g), kind

    def test_coincident_is_relative_to_the_coordinates(self):
        # spreads at 1e-14 of the coordinates coincide, at 1e-9 they do not;
        # an all-zero set coincides
        base = np.array([[3.0, -4.0, 12.0]])
        rng = np.random.default_rng(30)
        near = base * (1.0 + rng.normal(size=(8, 3)) * 1e-14)
        apart = base * (1.0 + rng.normal(size=(8, 3)) * 1e-9)
        f = np.stack([near, apart, np.zeros((8, 3)), rng.normal(size=(8, 3))])
        s = _kabsch(f, rng.normal(size=(4, 8, 3)))[2]
        assert _degenerate(s, f).tolist() == [True, False, True, False]

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_estimate_refuses(self, kind):
        with pytest.raises(EstimationError, match="rotation is undetermined"):
            estimate_transform(make_corr(*degenerate_point_sets(kind)))

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_ransac_refuses(self, kind):
        with pytest.raises(EstimationError, match="3 or more inliers"):
            ransac_estimate(make_corr(*degenerate_point_sets(kind)), RansacParams())

    @pytest.mark.parametrize("seed", range(5))
    def test_near_coincident_groups_never_win(self, seed):
        # 12 pairs of a tight target cluster on one source point (up to
        # rounding-sized offsets) agree with any rotation about it, so their
        # groups would outvote the 6 pairs of the true motion
        rng = np.random.default_rng(seed)
        f = rng.uniform(-1.0, 1.0, size=(12, 3)) * 0.004 + 0.3
        g = rng.normal(size=3) * (1.0 + rng.normal(size=(12, 3)) * 1e-14)
        with pytest.raises(EstimationError, match="rotation is undetermined"):
            estimate_transform(make_corr(f, g))
        with pytest.raises(EstimationError, match="3 or more inliers"):
            ransac_estimate(make_corr(f, g), RansacParams())
        f_true = rng.normal(size=(6, 3))
        g_true = f_true @ rz(30.0).T + 1.0
        got = ransac_estimate(make_corr(np.vstack([f, f_true]), np.vstack([g, g_true])), RansacParams())
        assert np.abs(got.rotation - rz(30.0)).max() < 1e-9

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_icp_keeps_the_initial_transform(self, kind):
        # the first pairing is degenerate, so ICP stops unconverged where it
        # started, as the full-search oracle does
        f, g = degenerate_point_sets(kind)
        initial = RigidTransform(rz(10.0), np.array([0.01, 0.0, -0.02]))
        result = refine_as_oracle(PointCloud(g), PointCloud(f), initial)
        assert not result.converged and result.iterations == 1
        assert_same_bits(result.transform, initial)

    def test_icp_onto_one_source_point(self):
        # every pair shares the one source point: no rotation is determined
        target = PointCloud(make_shape_cloud(64, seed=5).coords)
        source = PointCloud(make_shape_cloud(64, seed=6).coords[:1])
        result = refine_as_oracle(source, target, RigidTransform.identity())
        assert not result.converged and result.iterations == 1
        assert_same_bits(result.transform, RigidTransform.identity())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        stack=st.integers(1, 4),
        n=st.integers(3, 40),
        kinds=st.lists(st.sampled_from(sorted(COINCIDENT_KINDS)), min_size=2, max_size=2),
        scales=st.lists(st.floats(-12, 12), min_size=2, max_size=2),
        spread=st.floats(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coincident_flags_follow_the_generators_labels_property(self, stack, n, kinds, scales, spread, seed):
        # each set is made coincident or not by its kind, at scales
        # 1e-12..1e12; a near-coincident set's spread, relative to its
        # largest coordinate, is below 4.1e-14 or above 4.9e-11, at least
        # 10x from the 1e-12 tolerance on either side
        rng = np.random.default_rng(seed)
        sets = []
        for kind, scale in zip(kinds, scales):
            # components of magnitude 1..2, so the largest coordinate is 1..2
            centre = rng.choice([-1.0, 1.0], size=(stack, 1, 3)) * rng.uniform(1.0, 2.0, size=(stack, 1, 3))
            # offsets in [-1, 1], reaching both ends along x
            u = rng.uniform(-1.0, 1.0, size=(stack, n, 3))
            u[:, :2, 0] = [1.0, -1.0]
            x = {
                "spread": rng.normal(size=(stack, n, 3)),
                "near": centre * (1.0 + u * 10.0 ** -(14 + spread)),
                "apart": centre * (1.0 + u * 10.0 ** -(10 - 2 * spread)),
                "one point": np.repeat(centre, n, axis=1),
                "zeros": np.zeros((stack, n, 3)),
                "line": centre * rng.normal(size=(stack, n, 1)),
            }[kind]
            sets.append(x * 10.0**scale)
        f, g = sets
        coincident = [np.full(stack, COINCIDENT_KINDS[kind]) for kind in kinds]
        assert _coincident(f).tolist() == coincident[0].tolist()
        assert _coincident(g).tolist() == coincident[1].tolist()
        s = _kabsch(f, g)[2]
        flags = _degenerate(s, f, g)
        assert flags[coincident[0] | coincident[1]].all()
        # sets that do not coincide leave the singular value test alone
        apart = ~(coincident[0] | coincident[1])
        assert flags[apart].tolist() == _degenerate(s)[apart].tolist()

    @pytest.mark.parametrize("n", [8, 64, 700])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_aligned_offsets_reach_the_test(self, n, scale):
        # f coincides at 0.9e-12 of its coordinates and its offsets line up
        # with g's points, mostly along one diagonal: the singular values
        # alone read as well-posed, and the coincidence test flags the pair
        # either way round
        w = np.where(np.arange(n) % 2, 1.0, -1.0)[:, None]
        u = w * np.where((np.arange(n) % 8 >= 6)[:, None], [1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        f = scale * (1.0 + 0.9e-12 * u)
        g = 3.0 * u
        s = _kabsch(f, g)[2]
        assert _coincident(f) and not _degenerate(s)
        assert _degenerate(s, f, g) and _degenerate(_kabsch(g, f)[2], g, f)

    def test_icp_tests_coincidence_on_a_coincident_pairing(self, monkeypatch):
        # a coincident pairing reaches the test, and ICP stops where it started
        calls = []
        real = registration._coincident
        monkeypatch.setattr(registration, "_coincident", lambda points: calls.append(len(points)) or real(points))
        f, g = degenerate_point_sets("coincident source")
        result = icp_refine(PointCloud(g), PointCloud(f), RigidTransform.identity())
        assert not result.converged and result.iterations == 1 and calls


# ---------------------------------------------------------------------------
# end-to-end registration
# ---------------------------------------------------------------------------

SMALL_MATCH = MatchParams(m1=96, m2=48)


class TestRegister:
    def test_clean_full_overlap_recovery(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(12)
        target = tiny_corpus[0]
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.3)
        source = apply_transform(target, tf_gt)
        tf, aligned, report = register(tiny_model, source, target, SMALL_MATCH, seed=0)
        assert np.abs(rotation_error(tf.rotation, tf_gt.rotation)).max() < 1e-6
        assert np.abs(translation_error(tf.translation, tf_gt.translation)).max() < 1e-8
        assert np.abs(aligned.coords - target.coords).max() < 1e-8
        assert report["matched_pairs"] == 48
        assert report["candidate_pairs"] == 128
        assert report["inlier_pairs"] == 48
        assert report["mean_residual"] < 1e-8
        assert report["used_ransac"] is False
        assert report["used_ratio_test"] is True
        assert report["icp_iterations"] == 0
        assert report["runtime_s"] > 0.0

    def test_coordinates_below_the_overflow_bound_register(self, tiny_model):
        # at 1e150 the squared extent times the point count is still finite,
        # so the cloud is accepted and the motion is recovered as at scale 1
        rng = np.random.default_rng(12)
        target = PointCloud(make_shape_cloud(1024, 7).coords * 1e150)
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.3e150)
        tf, _, _ = register(tiny_model, apply_transform(target, tf_gt), target, SMALL_MATCH, seed=0)
        assert np.abs(rotation_error(tf.rotation, tf_gt.rotation)).max() < 1e-6
        assert np.abs(translation_error(tf.translation, tf_gt.translation)).max() < 1e-8 * 1e150

    def test_euler_report_consistent(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(13)
        target = tiny_corpus[1]
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        source = apply_transform(target, tf_gt)
        tf, _, report = register(tiny_model, source, target, SMALL_MATCH, seed=1)
        if not report["gimbal_lock"]:
            rebuilt = euler_xyz_to_matrix(report["euler_deg"])
            assert np.abs(rebuilt - tf.rotation).max() < 1e-9

    def test_with_ransac(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(14)
        target = tiny_corpus[2]
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        source = apply_transform(target, tf_gt)
        params = MatchParams(m1=96, m2=48, use_ransac=True)
        tf, _, report = register(tiny_model, source, target, params, seed=2)
        assert report["used_ransac"] is True
        assert np.abs(rotation_error(tf.rotation, tf_gt.rotation)).max() < 1e-5

    def test_with_icp_refinement(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(15)
        target = tiny_corpus[3]
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        source = apply_transform(target, tf_gt)
        tf, _, report = register(tiny_model, source, target, SMALL_MATCH, seed=3, icp=True)
        assert report["icp_iterations"] >= 1
        assert np.abs(rotation_error(tf.rotation, tf_gt.rotation)).max() < 1e-5

    def test_negative_seed_is_refused_by_name(self, tiny_model, tiny_corpus):
        cloud = tiny_corpus[4]
        with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
            register(tiny_model, cloud, cloud, SMALL_MATCH, seed=-1)

    def test_deterministic(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(16)
        target = tiny_corpus[4]
        source = apply_transform(
            target, RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        )
        tf1, _, _ = register(tiny_model, source, target, SMALL_MATCH, seed=5)
        tf2, _, _ = register(tiny_model, source, target, SMALL_MATCH, seed=5)
        assert np.array_equal(tf1.rotation, tf2.rotation)
        assert np.array_equal(tf1.translation, tf2.translation)

    def test_register_features_is_the_core(self, tiny_model, tiny_corpus):
        # register() is extraction plus register_features on the same sets
        rng = np.random.default_rng(18)
        target = make_partial(tiny_corpus[6], 0.9, seed=1)
        source = apply_transform(
            tiny_corpus[6], RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        )
        params = MatchParams(m1=96, m2=48, use_ransac=True)
        tf, _, report = register(tiny_model, source, target, params, seed=7, icp=True)
        extract_seed = int(np.random.Generator(np.random.PCG64(7)).integers(2**63))
        target_fs = extract_features(tiny_model, target, seed=extract_seed)
        source_fs = extract_features(tiny_model, source, seed=extract_seed)
        core_tf, corr, refined = register_features(
            target_fs, source_fs, source, target, params, icp=True
        )
        assert np.array_equal(core_tf.rotation, tf.rotation)
        assert np.array_equal(core_tf.translation, tf.translation)
        assert len(corr) == report["matched_pairs"]
        assert refined.iterations == report["icp_iterations"] >= 1
        assert refined.transform is core_tf

    @pytest.mark.parametrize("icp", [False, True])
    def test_report_carries_icp_converged(self, tiny_model, tiny_corpus, icp):
        # ICP's converged flag, False when ICP did not run; the report file
        # leaves it out
        rng = np.random.default_rng(22)
        target = tiny_corpus[3]
        source = apply_transform(target, RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2))
        _, _, report = register(tiny_model, source, target, SMALL_MATCH, seed=4, icp=icp)
        assert report["icp_converged"] is icp
        assert (report["icp_iterations"] >= 2) is icp
        assert "icp_converged" not in format_report(report)

    def test_report_counts_inlier_pairs(self, tiny_model, tiny_corpus):
        # pairs within the RANSAC radius under the final transform, with or
        # without RANSAC; the count stays out of the report file
        rng = np.random.default_rng(19)
        target = tiny_corpus[7]
        tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        source = add_noise(apply_transform(target, tf_gt), 0.01, seed=4)
        extract_seed = int(np.random.Generator(np.random.PCG64(8)).integers(2**63))
        target_fs = extract_features(tiny_model, target, seed=extract_seed)
        source_fs = extract_features(tiny_model, source, seed=extract_seed)
        counts = []
        for use_ransac in (False, True):
            params = MatchParams(m1=96, m2=48, use_ransac=use_ransac)
            tf, _, report = register(tiny_model, source, target, params, seed=8)
            corr = match(target_fs, source_fs, params)
            pred = corr.target_coords @ tf.rotation.T + tf.translation
            res = np.linalg.norm(pred - corr.source_coords, axis=1)
            assert report["inlier_pairs"] == np.count_nonzero(res < params.ransac.inlier_radius)
            assert "inlier_pairs" not in format_report(report)
            counts.append(report["inlier_pairs"])
        assert counts[0] < counts[1] < 48  # RANSAC keeps more pairs within the radius

    def test_format_report_loadable(self, tiny_model, tiny_corpus, tmp_path):
        rng = np.random.default_rng(17)
        target = tiny_corpus[5]
        source = apply_transform(
            target, RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
        )
        tf, _, report = register(tiny_model, source, target, SMALL_MATCH, seed=6)
        path = tmp_path / "report.txt"
        path.write_text(format_report(report))
        back = load_transform(path)
        assert np.abs(back.rotation - tf.rotation).max() < 1e-15
        assert np.abs(back.translation - tf.translation).max() < 1e-15

    FIXED_REPORT = {
        "convention": "transform maps target onto source: p_source ~ R @ p_target + t",
        "rotation": np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]),
        "translation": np.array([0.1, -2.5, 3e-7]),
        "euler_deg": np.array([0.0, -0.0, 53.13010235415598]),
        "gimbal_lock": False,
        "candidate_pairs": 384,
        "matched_pairs": 128,
        "inlier_pairs": 97,
        "mean_residual": 0.0123,
        "used_ransac": True,
        "used_ratio_test": False,
        "icp_iterations": 7,
        "runtime_s": 0.25,
    }

    def test_format_report_fixed_text(self):
        assert format_report(self.FIXED_REPORT) == (
            "# transform maps target onto source: p_source ~ R @ p_target + t\n"
            "rotation 0.59999999999999998 -0.80000000000000004 0 0.80000000000000004 0.59999999999999998 0 0 0 1\n"
            "translation 0.10000000000000001 -2.5 2.9999999999999999e-07\n"
            "euler_deg 0 -0 53.13010235415598\n"
            "gimbal_lock 0\n"
            "candidate_pairs 384\n"
            "matched_pairs 128\n"
            "mean_residual 0.0123\n"
            "used_ransac 1\n"
            "used_ratio_test 0\n"
            "icp_iterations 7\n"
            "runtime_s 0.250000\n"
        )

    def test_format_report_transform_lines_are_a_transform_file(self, tmp_path):
        # the report's rotation and translation lines are save_transform's
        # bytes, so a report loads as a transform by construction
        tf = RigidTransform(self.FIXED_REPORT["rotation"], self.FIXED_REPORT["translation"])
        path = tmp_path / "tf.txt"
        save_transform(tf, path)
        lines = format_report({**self.FIXED_REPORT, "rotation": tf.rotation, "translation": tf.translation})
        assert "".join(lines.splitlines(keepends=True)[1:3]).encode() == path.read_bytes()


# ---------------------------------------------------------------------------
# rotation metrics
# ---------------------------------------------------------------------------


class TestEulerAngles:
    def test_round_trip(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            angles = rng.uniform(-179, 179, size=3)
            angles[1] = rng.uniform(-89, 89)  # stay away from gimbal lock
            r = euler_xyz_to_matrix(angles)
            back, gimbal = matrix_to_euler_xyz(r)
            assert not gimbal
            assert np.abs(euler_xyz_to_matrix(back) - r).max() < 1e-12

    def test_synthesis_order(self):
        # R = Rz @ Ry @ Rx: a pure-x rotation leaves x axis fixed
        r = euler_xyz_to_matrix([30.0, 0.0, 0.0])
        assert np.allclose(r @ [1, 0, 0], [1, 0, 0])
        r = euler_xyz_to_matrix([0.0, 0.0, 90.0])
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_gimbal_lock_flagged_and_consistent(self):
        r = euler_xyz_to_matrix([30.0, 90.0, 40.0])
        angles, gimbal = matrix_to_euler_xyz(r)
        assert gimbal
        assert angles[0] == 0.0  # tx forced to zero in lock
        assert angles[1] == pytest.approx(90.0)
        # in lock only tz - tx is determined; the returned angles still
        # reproduce the matrix
        assert np.abs(euler_xyz_to_matrix(angles) - r).max() < 1e-12

    def test_wrap_degrees(self):
        assert _wrap_degrees(np.array([190.0])) == pytest.approx(-170.0)
        assert _wrap_degrees(np.array([-190.0])) == pytest.approx(170.0)
        assert _wrap_degrees(np.array([0.0])) == pytest.approx(0.0)
        assert _wrap_degrees(np.array([179.0])) == pytest.approx(179.0)

    def test_rotation_error_hand_example(self):
        err = rotation_error(np.eye(3), rz(30.0))
        assert np.allclose(err, [0.0, 0.0, -30.0], atol=1e-12)
        assert np.abs(err).mean() == pytest.approx(10.0)

    def test_rotation_error_zero_on_equal(self):
        rng = np.random.default_rng(19)
        r = random_rotation(rng)
        assert np.abs(rotation_error(r, r)).max() < 1e-12

    def test_translation_error_hand_example(self):
        err = translation_error(np.zeros(3), np.array([0.3, -0.3, 0.0]))
        assert np.allclose(err, [-0.3, 0.3, 0.0])
        assert np.abs(err).mean() == pytest.approx(0.2)
