"""Benchmark harness: trial synthesis, error pooling, deterministic reports."""

import re
import threading

import numpy as np
import pytest

from rpointhop import PointCloud, RigidTransform, euler_xyz_to_matrix, registration
from rpointhop.bench import (
    BenchReport,
    ExperimentSpec,
    TrialResult,
    _error_aggregates,
    _score,
    _Trial,
    add_noise,
    make_partial,
    make_shape_cloud,
    make_shape_corpus,
    render_report,
    run_benchmark,
    run_ratio_ablation,
    sample_rigid_transform,
)

from conftest import knn_oracle


# ---------------------------------------------------------------------------
# spec and trial ingredients
# ---------------------------------------------------------------------------


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.max_angle_deg == 45.0
        assert spec.translation_range == 0.5
        assert spec.noise_std == 0.0
        assert spec.partial_fraction == 1.0
        assert spec.trials == 20
        assert spec.use_ratio_test is True

    def test_validation(self):
        with pytest.raises(ValueError, match="max_angle_deg"):
            ExperimentSpec(max_angle_deg=181.0)
        with pytest.raises(ValueError, match="max_angle_deg"):
            ExperimentSpec(max_angle_deg=-1.0)
        with pytest.raises(ValueError, match="translation_range"):
            ExperimentSpec(translation_range=-0.1)
        with pytest.raises(ValueError, match="noise_std"):
            ExperimentSpec(noise_std=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="translation_range must be finite"):
                ExperimentSpec(translation_range=value)
            with pytest.raises(ValueError, match="noise_std must be finite"):
                ExperimentSpec(noise_std=value)
        with pytest.raises(ValueError, match="partial_fraction"):
            ExperimentSpec(partial_fraction=0.0)
        with pytest.raises(ValueError, match="partial_fraction"):
            ExperimentSpec(partial_fraction=1.1)
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec(trials=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ExperimentSpec(seed=-1)


class TestSampleRigidTransform:
    def test_deterministic(self):
        spec = ExperimentSpec(max_angle_deg=90.0)
        a, ang_a = sample_rigid_transform(spec, 7)
        b, ang_b = sample_rigid_transform(spec, 7)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(ang_a, ang_b)

    def test_bounds_and_consistency(self):
        spec = ExperimentSpec(max_angle_deg=60.0, translation_range=0.25)
        for seed in range(50):
            tf, angles = sample_rigid_transform(spec, seed)
            assert (0.0 <= angles).all() and (angles <= 60.0).all()
            assert (np.abs(tf.translation) <= 0.25).all()
            assert np.abs(euler_xyz_to_matrix(angles) - tf.rotation).max() < 1e-12

    def test_prng_stream_contract(self):
        # angles are the first uniform(0, max, 3) draw, translation the next
        # uniform(-r, r, 3) draw, on a fresh PCG64(trial_seed) stream
        spec = ExperimentSpec(max_angle_deg=45.0, translation_range=0.5)
        tf, angles = sample_rigid_transform(spec, 1234)
        rng = np.random.Generator(np.random.PCG64(1234))
        exp_angles = rng.uniform(0.0, 45.0, size=3)
        exp_trans = rng.uniform(-0.5, 0.5, size=3)
        assert np.array_equal(angles, exp_angles)
        assert np.array_equal(tf.translation, exp_trans)

    def test_zero_angle_spec(self):
        tf, angles = sample_rigid_transform(ExperimentSpec(max_angle_deg=0.0), 5)
        assert np.abs(angles).max() == 0.0
        assert np.abs(tf.rotation - np.eye(3)).max() < 1e-15


class TestMakePartial:
    def test_size_and_order(self):
        cloud = make_shape_cloud(200, seed=0)
        part = make_partial(cloud, 0.75, seed=3)
        assert len(part) == 150  # floor(0.75 * 200)
        # original point order is kept: coords appear in ascending index order
        orig = cloud.coords.tolist()
        positions = [orig.index(row) for row in part.coords.tolist()]
        assert positions == sorted(positions)

    def test_matches_anchor_knn_oracle(self):
        cloud = make_shape_cloud(120, seed=1)
        for seed in (0, 5, 9):
            part = make_partial(cloud, 0.5, seed=seed)
            anchor = int(np.random.Generator(np.random.PCG64(seed)).integers(120))
            exp_idx, _ = knn_oracle(cloud.coords, cloud.coords[anchor], 60)
            expected = cloud.coords[np.sort(exp_idx)]
            assert np.array_equal(part.coords, expected)

    def test_contiguous_patch(self):
        # every selected point is closer to the anchor than every dropped one
        cloud = make_shape_cloud(100, seed=2)
        seed = 4
        part = make_partial(cloud, 0.6, seed=seed)
        anchor = int(np.random.Generator(np.random.PCG64(seed)).integers(100))
        d_all = np.linalg.norm(cloud.coords - cloud.coords[anchor], axis=1)
        sel = {tuple(row) for row in part.coords}
        d_sel = [d for d, row in zip(d_all, cloud.coords) if tuple(row) in sel]
        d_drop = [d for d, row in zip(d_all, cloud.coords) if tuple(row) not in sel]
        assert max(d_sel) <= min(d_drop) + 1e-12

    def test_fraction_keeping_nothing(self):
        cloud = make_shape_cloud(50, seed=3)
        with pytest.raises(ValueError, match="keeps no points"):
            make_partial(cloud, 0.001, seed=0)

    def test_full_fraction_is_identity_set(self):
        cloud = make_shape_cloud(64, seed=4)
        part = make_partial(cloud, 1.0, seed=0)
        assert np.array_equal(part.coords, cloud.coords)


class TestNegativeSeeds:
    # PCG64's own refusal names no argument
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: make_shape_corpus(1, 64, -1), "seed"),
            (lambda: make_shape_cloud(64, -1), "seed"),
            (lambda: add_noise(make_shape_cloud(64, 0), 0.01, -1), "seed"),
            (lambda: make_partial(make_shape_cloud(64, 0), 0.5, -1), "seed"),
            (lambda: sample_rigid_transform(ExperimentSpec(), -1), "trial_seed"),
        ],
        ids=["make_shape_corpus", "make_shape_cloud", "add_noise", "make_partial", "sample_rigid_transform"],
    )
    def test_refused_by_name(self, call, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be non-negative, got -1")):
            call()


class TestAddNoise:
    def test_zero_std_noop(self):
        cloud = make_shape_cloud(64, seed=5)
        out = add_noise(cloud, 0.0, seed=1)
        assert np.array_equal(out.coords, cloud.coords)

    def test_deterministic_and_scaled(self):
        cloud = make_shape_cloud(4096, seed=6)
        a = add_noise(cloud, 0.01, seed=2)
        b = add_noise(cloud, 0.01, seed=2)
        assert np.array_equal(a.coords, b.coords)
        delta = a.coords - cloud.coords
        assert abs(delta.std() - 0.01) < 0.001
        assert np.abs(delta.mean()) < 0.001

    def test_negative_std(self):
        with pytest.raises(ValueError, match="non-negative"):
            add_noise(make_shape_cloud(10, seed=7), -0.1, seed=0)

    @pytest.mark.parametrize("std", [float("nan"), float("inf")])
    def test_non_finite_std(self, std):
        with pytest.raises(ValueError, match="std must be finite"):
            add_noise(make_shape_cloud(10, seed=7), std, seed=0)


class TestErrorAggregates:
    def test_hand_example(self):
        agg = _error_aggregates(
            [np.array([3.0, 4.0, 0.0])], [np.array([0.3, -0.3, 0.0])], [5.0]
        )
        rot = agg["rotation_deg"]
        assert rot["mse"] == pytest.approx(25.0 / 3.0)
        assert rot["rmse"] == pytest.approx(np.sqrt(25.0 / 3.0))
        assert rot["mae"] == pytest.approx(7.0 / 3.0)
        tr = agg["translation"]
        assert tr["mse"] == pytest.approx(0.06)
        assert tr["mae"] == pytest.approx(0.2)
        assert agg["geodesic_deg"] == {"median": 5.0, "max": 5.0}

    def test_pools_across_trials(self):
        agg = _error_aggregates(
            [np.array([1.0, 1.0, 1.0]), np.array([3.0, 3.0, 3.0])], [], [1.0, 4.0, 2.0, 9.0]
        )
        assert agg["rotation_deg"]["mse"] == pytest.approx(5.0)  # (1+9)/2
        assert np.isnan(agg["translation"]["mse"])
        assert agg["geodesic_deg"] == {"median": 3.0, "max": 9.0}

    def test_empty_is_nan(self):
        agg = _error_aggregates([], [], [])
        assert all(np.isnan(v) for v in agg["rotation_deg"].values())
        assert all(np.isnan(v) for v in agg["translation"].values())
        assert all(np.isnan(v) for v in agg["geodesic_deg"].values())


class TestScore:
    @staticmethod
    def _trial(angles_deg) -> _Trial:
        cloud = PointCloud(np.zeros((1, 3)))
        truth = RigidTransform(euler_xyz_to_matrix(angles_deg), np.array([0.1, 0.2, 0.3]))
        return _Trial(4, 2, cloud, cloud, truth, extract_seed=0)

    def test_gimbal_lock_of_ground_truth_at_ty_90(self):
        result = _score(self._trial([10.0, 90.0, 20.0]), RigidTransform.identity())
        assert result.status == "ok"
        assert result.gimbal_lock is True
        assert _score(self._trial([10.0, 20.0, 30.0]), RigidTransform.identity()).gimbal_lock is False

    def test_gimbal_lock_of_prediction(self):
        pred = RigidTransform(euler_xyz_to_matrix([0.0, -90.0, 0.0]), np.zeros(3))
        assert _score(self._trial([10.0, 20.0, 30.0]), pred).gimbal_lock is True

    def test_geodesic_error_of_a_quarter_turn(self):
        for axis in range(3):
            angles = np.zeros(3)
            angles[axis] = 90.0
            result = _score(self._trial(angles), RigidTransform.identity())
            assert result.geodesic_error_deg == pytest.approx(90.0, rel=1e-12)

    def test_geodesic_error_is_well_conditioned_at_ty_90(self):
        # a 0.5 degree turn about x on top of a truth at ty = 90 moves the
        # per-axis Euler angles by 80 degrees, the geodesic angle by 0.5
        truth = self._trial([10.0, 90.0, 20.0]).truth
        pred = RigidTransform(euler_xyz_to_matrix([0.5, 0.0, 0.0]) @ truth.rotation, truth.translation)
        result = _score(self._trial([10.0, 90.0, 20.0]), pred)
        assert result.geodesic_error_deg == pytest.approx(0.5, rel=1e-12)
        assert np.abs(result.rotation_error_deg).max() > 45.0

    def test_failed_trial_has_no_geodesic_error(self):
        result = _score(self._trial([10.0, 20.0, 30.0]), ValueError("no pairs"))
        assert result.status == "failed" and result.geodesic_error_deg is None


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


class TestShapes:
    def test_shape_cloud_basic(self):
        cloud = make_shape_cloud(256, seed=8)
        assert len(cloud) == 256
        assert np.abs(cloud.coords.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(cloud.coords, axis=1).max() - 1.0) < 1e-9

    def test_deterministic_per_seed(self):
        a = make_shape_cloud(128, seed=9)
        b = make_shape_cloud(128, seed=9)
        c = make_shape_cloud(128, seed=10)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_corpus_uses_consecutive_seeds(self):
        corpus = make_shape_corpus(3, 64, seed=20)
        assert len(corpus) == 3
        for i, cloud in enumerate(corpus):
            assert np.array_equal(cloud.coords, make_shape_cloud(64, seed=20 + i).coords)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="positive"):
            make_shape_cloud(0, seed=0)


# ---------------------------------------------------------------------------
# benchmark runs (use the CLI-scale model: default match params need >= 256
# final-hop points)
# ---------------------------------------------------------------------------

CLEAN_SPEC = ExperimentSpec(max_angle_deg=30.0, translation_range=0.3, trials=3, seed=0)


class TestRunBenchmark:
    def test_clean_trials_recover_motion(self, cli_model, cli_corpus):
        report = run_benchmark(cli_model, cli_corpus, CLEAN_SPEC, label="clean")
        assert report.n_failed == 0
        assert len(report.trials) == 3
        assert report.label == "clean"
        assert report.aggregates["rotation_deg"]["mae"] < 1e-4
        assert report.aggregates["translation"]["mae"] < 1e-6
        assert report.aggregates["geodesic_deg"]["max"] < 1e-4
        assert report.runtime_s > 0.0

    def test_deterministic_report_text(self, cli_model, cli_corpus):
        a = run_benchmark(cli_model, cli_corpus, CLEAN_SPEC)
        b = run_benchmark(cli_model, cli_corpus, CLEAN_SPEC)
        assert render_report(a) == render_report(b)

    def test_failures_recorded_not_raised(self, cli_model, cli_corpus):
        # cropping 512-point clouds in half leaves fewer points than the
        # hop-1 budget (384), so every trial fails and is recorded as such
        spec = ExperimentSpec(trials=2, partial_fraction=0.5, seed=1)
        report = run_benchmark(cli_model, cli_corpus, spec)
        assert report.n_failed == 2
        for t in report.trials:
            assert t.status == "failed"
            assert "hop 1 needs" in t.message
            assert t.rotation_error_deg is None
            assert t.geodesic_error_deg is None
        assert np.isnan(report.aggregates["rotation_deg"]["mae"])
        assert np.isnan(report.aggregates["geodesic_deg"]["median"])

    def test_faults_propagate(self, cli_model, cli_corpus, monkeypatch):
        # only typed refusals are recorded as failed trials; an IndexError in
        # the worker lane's half of matching is a fault and must surface
        nearest_two = registration._nearest_two

        def broken(dist, table):
            if threading.current_thread() is not threading.main_thread():
                raise IndexError("injected")
            return nearest_two(dist, table)

        monkeypatch.setattr(registration, "_nearest_two", broken)
        with pytest.raises(IndexError, match="injected"):
            run_benchmark(cli_model, cli_corpus, CLEAN_SPEC)

    def test_icp_only_needs_no_model(self, cli_corpus):
        spec = ExperimentSpec(
            max_angle_deg=5.0, translation_range=0.05, trials=2, seed=2, icp_only=True
        )
        report = run_benchmark(None, cli_corpus, spec)
        assert report.n_failed == 0
        assert report.aggregates["rotation_deg"]["mae"] < 0.5

    def test_model_required_otherwise(self, cli_corpus):
        with pytest.raises(ValueError, match="model is required"):
            run_benchmark(None, cli_corpus, CLEAN_SPEC)

    def test_empty_clouds(self, cli_model):
        with pytest.raises(ValueError, match="no test clouds"):
            run_benchmark(cli_model, [], CLEAN_SPEC)


class TestRatioAblation:
    def test_paired_structure(self, cli_model, cli_corpus):
        spec = ExperimentSpec(max_angle_deg=30.0, trials=3, seed=3)
        with_ratio, without_ratio = run_ratio_ablation(cli_model, cli_corpus, spec)
        assert with_ratio.label == "with ratio test"
        assert without_ratio.label == "without ratio test"
        assert with_ratio.spec.use_ratio_test is True
        assert without_ratio.spec.use_ratio_test is False
        assert len(with_ratio.trials) == len(without_ratio.trials) == 3
        # paired: the same clouds and ground truths per trial
        for a, b in zip(with_ratio.trials, without_ratio.trials):
            assert a.trial == b.trial
            assert a.cloud_index == b.cloud_index

    def test_with_ratio_matches_plain_benchmark(self, cli_model, cli_corpus):
        # one trial loop: the ablation's ratio-test arm is the plain run
        spec = ExperimentSpec(max_angle_deg=30.0, trials=3, seed=3)
        with_ratio, _ = run_ratio_ablation(cli_model, cli_corpus, spec)
        plain = run_benchmark(cli_model, cli_corpus, spec, label="with ratio test")
        assert render_report(with_ratio) == render_report(plain)

    def test_empty_clouds(self, cli_model):
        with pytest.raises(ValueError, match="no test clouds"):
            run_ratio_ablation(cli_model, [], ExperimentSpec(trials=1))


class TestRenderReport:
    def _tiny_report(self) -> BenchReport:
        spec = ExperimentSpec(trials=2, seed=0)
        trials = (
            TrialResult(0, 1, "ok", np.array([0.5, -0.25, 0.125]),
                        np.array([0.01, -0.02, 0.03]), False, geodesic_error_deg=0.6),
            TrialResult(1, 0, "failed", None, None, False, "synthetic failure"),
        )
        agg = _error_aggregates(
            [trials[0].rotation_error_deg], [trials[0].translation_error], [trials[0].geodesic_error_deg]
        )
        return BenchReport(spec=spec, label="demo", trials=trials, aggregates=agg, runtime_s=1.5)

    def test_layout(self):
        text = render_report(self._tiny_report())
        lines = text.splitlines()
        assert lines[0] == "# demo"
        assert lines[1].startswith("trial\tcloud\tstatus")
        assert lines[2].startswith("0\t1\tok\t0.5\t-0.25\t0.125\t0.01\t-0.02\t0.03")
        assert "failed" in lines[3] and "synthetic failure" in lines[3]
        assert lines[4] == ""
        assert lines[5].startswith("metric\tMSE(R)")
        assert lines[6].startswith("aggregate\t")

    def test_no_wall_clock_values(self):
        text = render_report(self._tiny_report())
        assert "runtime" not in text
        assert "1.5" not in text

    def test_aggregate_row_parses_back(self):
        report = self._tiny_report()
        row = render_report(report).splitlines()[6].split("\t")[1:]
        vals = [float(v) for v in row]
        rot, tr = report.aggregates["rotation_deg"], report.aggregates["translation"]
        expected = [rot["mse"], rot["rmse"], rot["mae"], tr["mse"], tr["rmse"], tr["mae"]]
        assert vals == pytest.approx(expected, rel=1e-9)
