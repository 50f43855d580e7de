"""Correspondence selection, rigid estimation, RANSAC, ICP, registration."""

import numpy as np
import pytest

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
    translation_error,
)
from rpointhop.bench import make_partial, make_shape_cloud
from rpointhop.pipeline import FeatureSet
from rpointhop.registration import (
    CorrespondenceSet,
    _nearest_two,
    _wrap_degrees,
    feature_distance_matrix,
    format_report,
    register_features,
)

from conftest import random_rotation


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
            feature_distance_matrix(
                make_feature_set(np.zeros((2, 3))), make_feature_set(np.zeros((2, 4)))
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


class TestRansac:
    def test_recovers_under_outliers(self):
        rng = np.random.default_rng(6)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        f_in = rng.normal(size=(40, 3))
        g_in = f_in @ r.T + t
        f_out = rng.normal(size=(20, 3))
        g_out = rng.normal(size=(20, 3)) * 5.0  # wild mismatches
        corr = make_corr(np.vstack([f_in, f_out]), np.vstack([g_in, g_out]))

        plain = estimate_transform(corr)
        robust = ransac_estimate(corr, RansacParams(seed=0))
        assert np.abs(robust.rotation - r).max() < 1e-9
        assert np.abs(robust.translation - t).max() < 1e-9
        assert np.abs(plain.rotation - r).max() > 0.01  # contrast: LS is polluted

    def test_recovers_from_scarce_inliers(self):
        # 8 inliers among 128 pairs: a uniform 4-pair draw is all-inlier
        # with probability ~7e-6, so 512 uniform draws find none; drawing
        # only length-consistent samples still does
        rng = np.random.default_rng(9)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        f = rng.uniform(-1.0, 1.0, size=(128, 3))
        g = rng.uniform(-1.0, 1.0, size=(128, 3)) @ r.T + t
        inliers = rng.choice(128, size=8, replace=False)
        g[inliers] = f[inliers] @ r.T + t
        robust = ransac_estimate(make_corr(f, g), RansacParams(seed=0))
        assert np.abs(robust.rotation - r).max() < 1e-9
        assert np.abs(robust.translation - t).max() < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(30, 3))
        g = f @ random_rotation(rng).T + 1.0
        g[:10] += rng.normal(size=(10, 3))
        corr = make_corr(f, g)
        a = ransac_estimate(corr, RansacParams(seed=3))
        b = ransac_estimate(corr, RansacParams(seed=3))
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_no_inliers_raises(self):
        rng = np.random.default_rng(8)
        corr = make_corr(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        with pytest.raises(EstimationError, match="3 or more inliers"):
            ransac_estimate(corr, RansacParams(inlier_radius=1e-12))

    def test_too_few_pairs(self):
        corr = make_corr(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(EstimationError, match="sample_size"):
            ransac_estimate(corr, RansacParams())


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


class TestIcp:
    def test_exact_initial_converges_immediately(self):
        cloud = PointCloud(make_shape_cloud(256, seed=0).coords)
        rng = np.random.default_rng(9)
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        source = apply_transform(cloud, tf)
        result = icp_refine(source, cloud, tf)
        assert result.converged
        assert result.iterations == 2  # initial residual + unchanged residual
        assert result.residuals[0] < 1e-12
        assert np.abs(result.transform.rotation - tf.rotation).max() < 1e-9

    def test_small_offset_recovered(self):
        cloud = PointCloud(make_shape_cloud(512, seed=1).coords)
        shift = np.array([0.02, -0.015, 0.01])
        source = apply_transform(cloud, RigidTransform(np.eye(3), shift))
        result = icp_refine(source, cloud, RigidTransform.identity())
        assert result.converged
        assert np.abs(result.transform.translation - shift).max() < 1e-6
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-6

    def test_small_perturbation_residuals_decrease_monotonically(self):
        # for a 2-degree perturbation of an aligned pair the pairings are
        # essentially correct throughout and even the unsquared mean
        # residual decreases monotonically
        cloud = PointCloud(make_shape_cloud(256, seed=2).coords)
        source = apply_transform(cloud, RigidTransform(rz(2.0), np.zeros(3)))
        result = icp_refine(source, cloud, RigidTransform.identity())
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
        result = icp_refine(source, cloud, RigidTransform.identity())
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
        start = RigidTransform(rz(2.0), np.zeros(3)).compose(tf)
        result = icp_refine(source, target, start)
        assert result.converged
        assert np.abs(result.transform.rotation - tf.rotation).max() < 1e-6
        assert np.abs(result.transform.translation - tf.translation).max() < 1e-6

    def test_max_iters_respected(self, monkeypatch):
        monkeypatch.setattr("rpointhop.registration.ICP_MAX_ITERS", 3)
        cloud = PointCloud(make_shape_cloud(256, seed=3).coords)
        source = apply_transform(cloud, RigidTransform(rz(40.0), np.zeros(3)))
        result = icp_refine(source, cloud, RigidTransform.identity())
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
        result = icp_refine(source, cloud, RigidTransform.identity())
        assert result.converged
        assert result.residuals[-1] < 1e-9
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-6


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
        assert report["mean_residual"] < 1e-8
        assert report["used_ransac"] is False
        assert report["used_ratio_test"] is True
        assert report["icp_iterations"] == 0
        assert report["runtime_s"] > 0.0

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
        core_tf, corr, icp_iterations = register_features(
            target_fs, source_fs, source, target, params, icp=True
        )
        assert np.array_equal(core_tf.rotation, tf.rotation)
        assert np.array_equal(core_tf.translation, tf.translation)
        assert len(corr) == report["matched_pairs"]
        assert icp_iterations == report["icp_iterations"] >= 1

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
