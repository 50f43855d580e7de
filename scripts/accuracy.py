"""Accuracy record: matching and estimation errors on five trial sets.

    python scripts/accuracy.py

Trains the default 4-hop model and the 2-hop partial-overlap model once
each on ``make_shape_corpus(50, 1024, 0)``, saves and reloads them as a
``register`` caller gets them, and runs five trial sets built with
perfbench's ``make_trials`` (perfbench is imported, not changed):

* ``full180_panel``: perfbench's ``register`` panel, 10 trials on
  ``make_shape_corpus(10, 1024, 50)`` with entropy ``[0, 0]``, default model;
* ``full180_drawn``: 40 trials on ``make_shape_corpus(40, 1024, 300)`` with
  entropy ``[7, 7]``, default model;
* ``part45_panel`` and ``part45_drawn``: the same clouds under
  ``PARTIAL_45``, 2-hop model;
* ``part45_drawn96``: 96 trials on ``make_shape_corpus(96, 1024, 5000)``
  with entropy ``[9, 9]``, 2-hop model.

Each trial is extracted once, with the extraction seed ``register()`` draws
from the trial's seed, and matched with the default ``MatchParams()``. Per
set the record holds the inlier share (the fraction of matched pairs whose
residual under the true motion is below the consensus radius, 0.05) and,
for the least-squares estimate, the consensus (``ransac_estimate``) and the
consensus refined by ICP, the geodesic rotation error's p50 and p90, the
count of trials over 5 degrees and the count of refusals. A refused trial
scores as the identity, as in perfbench. ``extract_sha256`` is the SHA-256
of every array of every ``FeatureSet`` the set extracted (dtype, shape and
bytes, in trial and field order), so whether a change keeps extraction's
bits is one run of this script on each side. Errors use perfbench's
``rotation_error_deg`` and its median and 90th percentile, so the
``full180_panel`` least-squares p50 is perfbench ``register``'s
``rot_err_p50_deg`` and the ``part45_panel`` consensus+ICP p50 is
``register_refine``'s.

It also reruns three acceptance criteria on their own code paths, held-out
clouds ``make_shape_corpus(20, 1024, 100)`` and seeds, so disjoint seeds
can be read beside the gate's own:

* ``c04_wins``: c04's bootstrap wins (of 1000 ``PCG64(0)`` resamples of
  the paired per-trial Euler MAEs) for ``run_ratio_ablation`` on the 2-hop
  model, at c04's seed 1004 and at the disjoint seeds 7004-7007;
* ``c06``: c06's feature sweep on the default model, per angle the Euler
  MAE and the geodesic error's p50 and max, the Euler MAE ratio of 180 to
  10 degrees, and that ratio once each angle drops its trial of largest
  Euler MAE;
* ``c02``: c02's count of invariant and of non-degenerate points, and
  their fraction.

``green`` holds each model's ``train()`` seconds, its stored parameter
count (``SaabLayer.param_count`` summed over its layers) and its model file
bytes.

Prints one JSON line with these, both models' hashes (the first 8 hex
digits of the SHA-256 of the ``save_model`` bytes), the core count and the
Python, numpy and scipy versions. BLAS threads are as the environment sets
them; the outputs other than the train seconds do not depend on them.
"""

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
import scipy
from scipy.spatial.distance import pdist

import rpointhop
from rpointhop.bench import ExperimentSpec, make_shape_corpus, run_benchmark, run_ratio_ablation, sample_rigid_transform
from rpointhop.cloud import seeded_rng
from rpointhop.pipeline import extract_pair
from rpointhop.registration import (
    EstimationError,
    MatchingError,
    MatchParams,
    estimate_transform,
    icp_refine,
    match,
    ransac_estimate,
)

from workloads import FULL_180, PARTIAL_45, PARTIAL_CONFIG, make_trials, rotation_error_deg, tail

OVER_DEG = 5.0
# name: (model, recipe, clouds, cloud seed, make_trials entropy)
SETS = {
    "full180_panel": ("default", FULL_180, 10, 50, [0, 0]),
    "full180_drawn": ("default", FULL_180, 40, 300, [7, 7]),
    "part45_panel": ("partial", PARTIAL_45, 10, 50, [0, 0]),
    "part45_drawn": ("partial", PARTIAL_45, 40, 300, [7, 7]),
    "part45_drawn96": ("partial", PARTIAL_45, 96, 5000, [9, 9]),
}
ESTIMATES = ("least_squares", "consensus", "consensus_icp")
C04_SEEDS = (1004, 7004, 7005, 7006, 7007)
C06_ANGLES = (10.0, 45.0, 90.0, 135.0, 180.0)
DEGENERACY_CUTOFF = 1e-6  # c02's cut on sign margins and eigenvalue gaps


def trained(corpus, config, tmp: Path):
    """The model trained on ``corpus``, saved and loaded back, its hash and
    its "green" figures."""
    path = tmp / "model.rph"
    start = time.perf_counter()
    model = rpointhop.train(corpus, config)
    seconds = time.perf_counter() - start
    rpointhop.save_model(model, path)
    layers = [model.hop1_layer, *(layer for hop in model.later_hops for layer in hop.values())]
    green = {
        "train_s": round(seconds, 3),
        "param_count": sum(layer.param_count() for layer in layers),
        "file_bytes": path.stat().st_size,
    }
    return rpointhop.load_model(path), hashlib.sha256(path.read_bytes()).hexdigest()[:8], green


def trial_outcome(model, trial, params: MatchParams, digest):
    """(inlier pairs, matched pairs, {estimate: rotation or None when refused});
    every extracted array is fed to ``digest``: its dtype, shape and bytes."""
    seed = int(seeded_rng(trial.seed).integers(2**63))
    target_fs, source_fs = extract_pair(model, trial.target, trial.source, seed)
    for fs in (target_fs, source_fs):
        for f in dataclasses.fields(fs):
            a = getattr(fs, f.name)
            digest.update(f"{a.dtype.str} {a.shape}".encode())
            digest.update(a.tobytes())
    corr = match(target_fs, source_fs, params)
    moved = corr.target_coords @ trial.rotation.T + trial.translation
    inliers = int(np.count_nonzero(np.linalg.norm(moved - corr.source_coords, axis=1) < params.ransac.inlier_radius))
    rotations = dict.fromkeys(ESTIMATES)
    try:
        rotations["least_squares"] = estimate_transform(corr).rotation
    except EstimationError:
        pass
    try:
        consensus = ransac_estimate(corr, params.ransac)
        rotations["consensus"] = consensus.rotation
        rotations["consensus_icp"] = icp_refine(trial.source, trial.target, consensus).transform.rotation
    except EstimationError:
        pass
    return inliers, len(corr), rotations


def summary(errors: list[float], refused: int) -> dict:
    return {
        "p50": statistics.median(errors),
        "p90": tail(errors),
        "over_5deg": sum(e > OVER_DEG for e in errors),
        "refused": refused,
    }


def run_set(model, trials, params: MatchParams) -> dict:
    inliers = pairs = 0
    errors = {name: [] for name in ESTIMATES}
    refused = dict.fromkeys(ESTIMATES, 0)
    digest = hashlib.sha256()
    for trial in trials:
        try:
            kept, matched, rotations = trial_outcome(model, trial, params, digest)
        except MatchingError:
            kept, matched, rotations = 0, 0, dict.fromkeys(ESTIMATES)
        inliers, pairs = inliers + kept, pairs + matched
        for name, rotation in rotations.items():
            refused[name] += rotation is None
            errors[name].append(rotation_error_deg(np.eye(3) if rotation is None else rotation, trial.rotation))
    record = {"trials": len(trials), "inlier_share": inliers / pairs if pairs else 0.0}
    record.update({name: summary(errors[name], refused[name]) for name in ESTIMATES})
    record["extract_sha256"] = digest.hexdigest()
    return record


def trial_maes(report) -> dict[int, float]:
    """Each successful trial's mean absolute Euler error, by trial number."""
    return {t.trial: float(np.abs(t.rotation_error_deg).mean()) for t in report.trials if t.status == "ok"}


def c04_wins(model, held_out, seed: int) -> int:
    """c04's bootstrap wins at ``seed``: resamples of the paired trials in
    which the mean error with the ratio test is at most the one without."""
    spec = ExperimentSpec(
        max_angle_deg=45.0, translation_range=0.5, partial_fraction=0.75, partial_both=True, trials=50, seed=seed
    )
    with_maes, without_maes = (trial_maes(report) for report in run_ratio_ablation(model, held_out, spec))
    shared = sorted(set(with_maes) & set(without_maes))
    a = np.array([with_maes[t] for t in shared])
    b = np.array([without_maes[t] for t in shared])
    rng = np.random.Generator(np.random.PCG64(0))
    wins = 0
    for _ in range(1000):
        pick = rng.integers(len(shared), size=len(shared))
        wins += bool(a[pick].mean() <= b[pick].mean())
    return wins


def c06_sweep(model, held_out) -> dict:
    """c06's feature-based sweep at its noise, trial count and seeds."""
    euler, without_worst, p50, worst = {}, {}, {}, {}
    for angle in C06_ANGLES:
        spec = ExperimentSpec(
            max_angle_deg=angle, translation_range=0.5, noise_std=0.01, trials=15, seed=1006 + int(angle)
        )
        report = run_benchmark(model, held_out, spec, label=f"feat@{angle:g}")
        key = f"{angle:g}"
        euler[key] = report.aggregates["rotation_deg"]["mae"]
        maes = sorted(trial_maes(report).values())
        without_worst[key] = statistics.fmean(maes[:-1])
        p50[key] = report.aggregates["geodesic_deg"]["median"]
        worst[key] = report.aggregates["geodesic_deg"]["max"]
    return {
        "euler_mae": euler,
        "ratio": euler["180"] / euler["10"],
        "ratio_without_worst": without_worst["180"] / without_worst["10"],
        "geodesic_p50": p50,
        "geodesic_max": worst,
    }


def c02_invariance(model, held_out) -> dict:
    """c02's invariant points among the non-degenerate ones, at its seed."""
    rng = np.random.default_rng(1002)
    spec = ExperimentSpec(max_angle_deg=45.0, translation_range=0.5)
    total = passed = 0
    for cloud in held_out:
        truth, _ = sample_rigid_transform(spec, int(rng.integers(2**63)))
        seed = int(rng.integers(2**63))
        fs_a = rpointhop.extract_features(model, cloud, seed=seed)
        fs_b = rpointhop.extract_features(model, rpointhop.apply_transform(cloud, truth), seed=seed)
        distance = np.linalg.norm(fs_a.features - fs_b.features, axis=1)
        threshold = 1e-4 * float(np.median(pdist(fs_a.features)))
        stable = (
            (fs_a.sign_margins > DEGENERACY_CUTOFF)
            & (fs_b.sign_margins > DEGENERACY_CUTOFF)
            & (fs_a.eigen_gaps > DEGENERACY_CUTOFF)
        )
        total += int(stable.sum())
        passed += int((distance[stable] < threshold).sum())
    return {"invariant": passed, "stable": total, "fraction": passed / total}


def main() -> None:
    corpus = make_shape_corpus(50, 1024, 0)
    models, hashes, green = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in (("default", rpointhop.ModelConfig()), ("partial", PARTIAL_CONFIG)):
            models[name], hashes[name], green[name] = trained(corpus, config, Path(tmp))
    params = MatchParams()
    sets = {}
    for name, (model, recipe, count, cloud_seed, entropy) in SETS.items():
        trials = make_trials(make_shape_corpus(count, 1024, cloud_seed), recipe, entropy)
        sets[name] = {"model": model, **run_set(models[model], trials, params)}
    held_out = make_shape_corpus(20, 1024, 100)
    print(
        json.dumps(
            {
                "sets": sets,
                "c04_wins": {str(seed): c04_wins(models["partial"], held_out, seed) for seed in C04_SEEDS},
                "c06": c06_sweep(models["default"], held_out),
                "c02": c02_invariance(models["default"], held_out),
                "green": green,
                "model_sha256": hashes,
                "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            }
        )
    )


if __name__ == "__main__":
    main()
