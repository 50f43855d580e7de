"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for one PASSED/FAILED line
per criterion. The heavyweight fixtures (a default-config model trained on
50 clouds, plus a partial-overlap variant) are module-scoped and shared, so
the whole gate runs in a few minutes on one CPU.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rpointhop import (
    ModelConfig,
    apply_transform,
    estimate_transform,
    extract_features,
    save_model,
    train,
)
from rpointhop.bench import (
    ExperimentSpec,
    make_shape_corpus,
    run_benchmark,
    run_ratio_ablation,
    sample_rigid_transform,
)
from rpointhop.cli import main
from rpointhop.registration import CorrespondenceSet
from rpointhop.saab import cw_saab_fit, saab_apply, saab_fit
from rpointhop.spatial import KnnIndex, fps_indices

from conftest import PARTIAL_CONFIG, fps_oracle, knn_oracle, random_rotation

DEGENERACY_CUTOFF = 1e-6  # sign margin / eigenvalue gap below this = unstable frame


# ---------------------------------------------------------------------------
# heavyweight shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def train_corpus():
    return make_shape_corpus(50, 1024, seed=0)


@pytest.fixture(scope="module")
def held_out():
    return make_shape_corpus(20, 1024, seed=100)


@pytest.fixture(scope="module")
def default_model(train_corpus):
    return train(train_corpus, ModelConfig())


@pytest.fixture(scope="module")
def partial_model(train_corpus):
    return train(train_corpus, PARTIAL_CONFIG)


def trial_rotation_maes(report) -> dict[int, float]:
    """Per-trial mean absolute rotation error, keyed by trial number."""
    return {
        t.trial: float(np.abs(t.rotation_error_deg).mean())
        for t in report.trials
        if t.status == "ok"
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_closed_form_estimation_exact_and_fast():
    """100 noiseless correspondence sets (10-500 pairs, rotations up to
    180 degrees): R and t recovered within max-element 1e-9, in < 1 s."""
    rng = np.random.default_rng(1001)
    cases = []
    for _ in range(100):
        n = int(rng.integers(10, 501))
        f = rng.normal(size=(n, 3))
        r = random_rotation(rng)
        t = rng.uniform(-1.0, 1.0, size=3)
        cases.append((f, f @ r.T + t, r, t))

    worst_r = worst_t = 0.0
    t0 = time.perf_counter()
    for f, g, r, t in cases:
        m = f.shape[0]
        corr = CorrespondenceSet(
            pairs=np.stack([np.arange(m), np.arange(m)], axis=1),
            target_coords=f,
            source_coords=g,
            feature_distances=np.zeros(m),
            ratios=np.zeros(m),
        )
        tf = estimate_transform(corr)
        worst_r = max(worst_r, float(np.abs(tf.rotation - r).max()))
        worst_t = max(worst_t, float(np.abs(tf.translation - t).max()))
    elapsed = time.perf_counter() - t0

    print(f"criterion 1: worst |dR|={worst_r:.3e}, worst |dt|={worst_t:.3e}, {elapsed:.3f}s")
    assert worst_r < 1e-9, f"rotation error {worst_r:.3e} >= 1e-9"
    assert worst_t < 1e-9, f"translation error {worst_t:.3e} >= 1e-9"
    assert elapsed < 1.0, f"took {elapsed:.2f}s (limit 1s)"


def test_c02_feature_invariance_on_held_out_clouds(default_model, held_out):
    """20 held-out clouds under random motions (angles <= 45 deg,
    translations <= 0.5): matched-point feature distance < 1e-4 x median
    inter-point feature distance for >= 95% of non-degenerate points."""
    rng = np.random.default_rng(1002)
    spec = ExperimentSpec(max_angle_deg=45.0, translation_range=0.5)
    total = passed = 0
    for i, cloud in enumerate(held_out):
        tf_gt, _ = sample_rigid_transform(spec, int(rng.integers(2**63)))
        moved = apply_transform(cloud, tf_gt)
        seed = int(rng.integers(2**63))
        fs_a = extract_features(default_model, cloud, seed=seed)
        fs_b = extract_features(default_model, moved, seed=seed)
        # same extraction seed on same-size clouds: row i of both feature
        # sets is the same physical point, so rows are ground-truth matches
        assert np.array_equal(fs_a.point_indices, fs_b.point_indices)
        matched_dist = np.linalg.norm(fs_a.features - fs_b.features, axis=1)
        threshold = 1e-4 * float(np.median(pdist(fs_a.features)))
        stable = (
            (fs_a.sign_margins > DEGENERACY_CUTOFF)
            & (fs_b.sign_margins > DEGENERACY_CUTOFF)
            & (fs_a.eigen_gaps > DEGENERACY_CUTOFF)
        )
        total += int(stable.sum())
        passed += int((matched_dist[stable] < threshold).sum())
    fraction = passed / total
    print(f"criterion 2: {passed}/{total} non-degenerate points invariant ({fraction:.2%})")
    assert fraction >= 0.95, f"only {fraction:.2%} of non-degenerate points pass"


def test_c03_registration_error_bounds(default_model, held_out):
    """Full overlap, no noise, 50 trials: MAE(R) < 1.0 deg, MAE(t) < 0.005."""
    spec = ExperimentSpec(
        max_angle_deg=45.0, translation_range=0.5, trials=50, seed=1003
    )
    report = run_benchmark(default_model, held_out, spec, label="clean-50")
    mae_r = report.aggregates["rotation_deg"]["mae"]
    mae_t = report.aggregates["translation"]["mae"]
    print(
        f"criterion 3: MAE(R)={mae_r:.3e} deg, MAE(t)={mae_t:.3e}, "
        f"failed={report.n_failed}/50"
    )
    assert report.n_failed == 0, f"{report.n_failed} trials failed"
    assert mae_r < 1.0, f"MAE(R)={mae_r:.4f} deg >= 1.0"
    assert mae_t < 0.005, f"MAE(t)={mae_t:.6f} >= 0.005"


def test_c04_ratio_test_helps_under_partial_overlap(partial_model, held_out):
    """50 paired partial-to-partial trials (both clouds keep their 75% around
    independent anchors, so 512-768 points overlap): rotation error with the
    ratio test <= without it in >= 80% of 1000 bootstrap resamples."""
    spec = ExperimentSpec(
        max_angle_deg=45.0,
        translation_range=0.5,
        partial_fraction=0.75,
        partial_both=True,
        trials=50,
        seed=1004,
    )
    rep_with, rep_without = run_ratio_ablation(partial_model, held_out, spec)
    with_maes = trial_rotation_maes(rep_with)
    without_maes = trial_rotation_maes(rep_without)
    shared = sorted(set(with_maes) & set(without_maes))
    assert len(shared) >= 40, f"only {len(shared)} usable paired trials"
    a = np.array([with_maes[t] for t in shared])
    b = np.array([without_maes[t] for t in shared])

    rng = np.random.Generator(np.random.PCG64(0))
    wins = 0
    n_boot = 1000
    for _ in range(n_boot):
        pick = rng.integers(len(shared), size=len(shared))
        if a[pick].mean() <= b[pick].mean():
            wins += 1
    print(
        f"criterion 4: with={a.mean():.3e} deg, without={b.mean():.3e} deg, "
        f"bootstrap wins {wins}/{n_boot} over {len(shared)} paired trials"
    )
    assert wins >= 0.80 * n_boot, f"ratio test better in only {wins}/{n_boot} resamples"


def test_c05_icp_refinement_reduces_noisy_error(default_model, held_out):
    """Noise std 0.01, 30 paired trials: MAE(R) with ICP refinement <=
    MAE(R) without."""
    base = ExperimentSpec(
        max_angle_deg=45.0,
        translation_range=0.5,
        noise_std=0.01,
        trials=30,
        seed=1005,
    )
    plain = run_benchmark(default_model, held_out, base, label="noisy")
    refined = run_benchmark(
        default_model,
        held_out,
        dataclasses.replace(base, icp_refine=True),
        label="noisy+icp",
    )
    mae_plain = plain.aggregates["rotation_deg"]["mae"]
    mae_refined = refined.aggregates["rotation_deg"]["mae"]
    print(
        f"criterion 5: MAE(R) without ICP={mae_plain:.4f} deg, "
        f"with ICP={mae_refined:.4f} deg"
    )
    assert plain.n_failed == 0 and refined.n_failed == 0
    assert mae_refined <= mae_plain, (
        f"ICP made it worse: {mae_refined:.4f} > {mae_plain:.4f}"
    )


def test_c06_angle_sweep_flat_for_features_steep_for_icp(default_model, held_out):
    """Sweep max angle over {10, 45, 90, 135, 180} degrees: feature-based
    MAE(R) at 180 < 3x its value at 10, ICP-only MAE(R) at 180 > 10x its
    value at 10.

    The sweep runs at noise std 0.01 so both methods sit on a stable,
    physically meaningful error floor; on perfectly clean data the
    feature-based errors are ~1e-7 degrees of numerical noise and a ratio
    between two such values is meaningless.
    """
    angles = (10.0, 45.0, 90.0, 135.0, 180.0)
    feature_mae = {}
    icp_mae = {}
    for angle in angles:
        spec = ExperimentSpec(
            max_angle_deg=angle,
            translation_range=0.5,
            noise_std=0.01,
            trials=15,
            seed=1006 + int(angle),
        )
        rep = run_benchmark(default_model, held_out, spec, label=f"feat@{angle:g}")
        assert rep.n_failed == 0
        feature_mae[angle] = rep.aggregates["rotation_deg"]["mae"]
        icp_spec = dataclasses.replace(spec, icp_only=True)
        rep = run_benchmark(None, held_out, icp_spec, label=f"icp@{angle:g}")
        assert rep.n_failed == 0
        icp_mae[angle] = rep.aggregates["rotation_deg"]["mae"]

    feat_ratio = feature_mae[180.0] / feature_mae[10.0]
    icp_ratio = icp_mae[180.0] / icp_mae[10.0]
    print(
        "criterion 6: feature MAE(R) "
        + ", ".join(f"{a:g}°={feature_mae[a]:.3f}" for a in angles)
        + f" (ratio {feat_ratio:.2f}); ICP-only "
        + ", ".join(f"{a:g}°={icp_mae[a]:.2f}" for a in angles)
        + f" (ratio {icp_ratio:.1f})"
    )
    assert feat_ratio < 3.0, f"feature-based error grew {feat_ratio:.2f}x (limit 3x)"
    assert icp_ratio > 10.0, f"ICP-only error grew only {icp_ratio:.2f}x (need >10x)"


def test_c07_saab_property_suite(default_model):
    """Filter orthonormality < 1e-9; energies sum to 1 within 1e-9; output
    non-negativity on 1e4 in-hull samples; channel-wise parameter count
    below the joint fit for K > 1."""
    layers = [default_model.hop1_layer]
    for hop_layers in default_model.later_hops:
        layers.extend(hop_layers.values())

    worst_ortho = worst_energy = 0.0
    for layer in layers:
        f = layer.filters
        worst_ortho = max(worst_ortho, float(np.abs(f @ f.T - np.eye(f.shape[0])).max()))
        worst_energy = max(worst_energy, abs(float(layer.energies.sum()) - 1.0))
        assert (layer.energies >= 0.0).all()

    # inputs inside the training norm ball (superset of the training hull)
    # must map to non-negative outputs
    rng = np.random.default_rng(1007)
    layer = default_model.hop1_layer
    dirs = rng.normal(size=(10_000, layer.input_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = layer.bias * rng.uniform(0.0, 1.0, size=(10_000, 1))
    min_out = float(saab_apply(layer, dirs * radii).min())

    # channel-wise fits store fewer parameters than one joint fit over the
    # concatenated channels
    param_ratios = []
    for k in (2, 4, 8):
        blocks = {c: rng.normal(size=(300, 8)) for c in range(k)}
        cw = sum(l.param_count() for l in cw_saab_fit(blocks).values())
        joint = saab_fit(np.hstack([blocks[c] for c in range(k)])).param_count()
        param_ratios.append((k, cw, joint))
        assert cw < joint, f"K={k}: channel-wise {cw} >= joint {joint}"

    print(
        f"criterion 7: {len(layers)} layers, worst orthonormality "
        f"{worst_ortho:.2e}, worst energy-sum gap {worst_energy:.2e}, "
        f"min output {min_out:.2e}, params c/w vs joint "
        + ", ".join(f"K={k}: {c}<{j}" for k, c, j in param_ratios)
    )
    assert worst_ortho < 1e-9
    assert worst_energy < 1e-9
    assert min_out >= -1e-12, f"negative output {min_out:.3e} inside the norm ball"


def test_c08_cli_train_and_benchmark_byte_identical(tmp_path, capsys):
    """cmd_train and cmd_benchmark with fixed seeds produce byte-identical
    outputs across two runs."""
    clouds_dir = tmp_path / "clouds"
    clouds_dir.mkdir()
    from rpointhop import save_cloud

    for i, cloud in enumerate(make_shape_corpus(6, 512, seed=900)):
        save_cloud(cloud, clouds_dir / f"{i:03d}.xyz")
    config = tmp_path / "cfg"
    config.write_text(
        "num_points = 384 256\nk_neighbors = 24 16\nk_lrf = 24\nseed = 0\n"
    )

    train_stdout = []
    model_bytes = []
    for run in range(2):
        model_path = tmp_path / f"model{run}.rph"
        rc = main([
            "train", "--input-dir", str(clouds_dir),
            "--config", str(config), "--output", str(model_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # the echoed path differs by file name; compare everything after it
        train_stdout.append(out.split("\n", 1)[1])
        model_bytes.append(model_path.read_bytes())

    bench_stdout = []
    for run in range(2):
        rc = main([
            "benchmark", "--model", str(tmp_path / "model0.rph"),
            "--test-dir", str(clouds_dir),
            "--max-angle", "30", "--trials", "3", "--seed", "5",
        ])
        assert rc == 0
        bench_stdout.append(capsys.readouterr().out)

    print(
        f"criterion 8: model files {len(model_bytes[0])} bytes identical: "
        f"{model_bytes[0] == model_bytes[1]}; benchmark stdout identical: "
        f"{bench_stdout[0] == bench_stdout[1]}"
    )
    assert model_bytes[0] == model_bytes[1], "trained model files differ between runs"
    assert train_stdout[0] == train_stdout[1], "train stdout differs between runs"
    assert bench_stdout[0] == bench_stdout[1], "benchmark stdout differs between runs"


def test_c09_default_model_file_under_one_megabyte(default_model, tmp_path):
    """Default-config model file < 1 MB."""
    path = tmp_path / "default.rph"
    save_model(default_model, path)
    size = path.stat().st_size
    print(f"criterion 9: default model file {size} bytes ({size / 1024:.1f} KiB)")
    assert size < 1_000_000, f"model file is {size} bytes"


def test_c10_knn_and_fps_match_oracles_on_200_instances():
    """knn and FPS match brute-force references exactly, 200 instances each."""
    rng = np.random.default_rng(1010)
    for case in range(200):
        n = int(rng.integers(5, 61))
        pts = rng.normal(size=(n, 3))
        if case % 3 == 0 and n >= 8:  # exact duplicates exercise tie rules
            pts[int(rng.integers(n))] = pts[int(rng.integers(n))]
        k = int(rng.integers(1, n + 1))
        query = rng.normal(size=3)
        idx, dist = KnnIndex(pts).query(query, k)
        oidx, odist = knn_oracle(pts, query, k)
        assert np.array_equal(idx, oidx), f"knn case {case}: indices differ"
        assert np.allclose(dist, odist, rtol=0, atol=1e-12), f"knn case {case}"

    for case in range(200):
        n = int(rng.integers(2, 61))
        pts = rng.normal(size=(n, 3))
        m = int(rng.integers(1, n + 1))
        start = int(rng.integers(n))
        got = fps_indices(pts, m, start=start)
        exp = fps_oracle(pts, m, start=start)
        assert np.array_equal(got, exp), f"fps case {case}: selections differ"
    print("criterion 10: 200 knn + 200 FPS instances, all exact matches")
