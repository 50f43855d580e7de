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
scores as the identity, as in perfbench. Errors use perfbench's
``rotation_error_deg`` and its median and 90th percentile, so the
``full180_panel`` least-squares p50 is perfbench ``register``'s
``rot_err_p50_deg`` and the ``part45_panel`` consensus+ICP p50 is
``register_refine``'s.

Prints one JSON line with the sets, both models' hashes (the first 8 hex
digits of the SHA-256 of the ``save_model`` bytes), the core count and the
Python, numpy and scipy versions. BLAS threads are as the environment sets
them; the outputs do not depend on them.
"""

import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
import scipy

import rpointhop
from rpointhop.bench import make_shape_corpus
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


def trained(corpus, config, tmp: Path):
    """The model trained on ``corpus``, saved and loaded back, and its hash."""
    path = tmp / "model.rph"
    rpointhop.save_model(rpointhop.train(corpus, config), path)
    return rpointhop.load_model(path), hashlib.sha256(path.read_bytes()).hexdigest()[:8]


def trial_outcome(model, trial, params: MatchParams):
    """(inlier pairs, matched pairs, {estimate: rotation or None when refused})."""
    seed = int(seeded_rng(trial.seed).integers(2**63))
    target_fs, source_fs = extract_pair(model, trial.target, trial.source, seed)
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
    for trial in trials:
        try:
            kept, matched, rotations = trial_outcome(model, trial, params)
        except MatchingError:
            kept, matched, rotations = 0, 0, dict.fromkeys(ESTIMATES)
        inliers, pairs = inliers + kept, pairs + matched
        for name, rotation in rotations.items():
            refused[name] += rotation is None
            errors[name].append(rotation_error_deg(np.eye(3) if rotation is None else rotation, trial.rotation))
    record = {"trials": len(trials), "inlier_share": inliers / pairs if pairs else 0.0}
    record.update({name: summary(errors[name], refused[name]) for name in ESTIMATES})
    return record


def main() -> None:
    corpus = make_shape_corpus(50, 1024, 0)
    models, hashes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in (("default", rpointhop.ModelConfig()), ("partial", PARTIAL_CONFIG)):
            models[name], hashes[name] = trained(corpus, config, Path(tmp))
    params = MatchParams()
    sets = {}
    for name, (model, recipe, count, cloud_seed, entropy) in SETS.items():
        trials = make_trials(make_shape_corpus(count, 1024, cloud_seed), recipe, entropy)
        sets[name] = {"model": model, **run_set(models[model], trials, params)}
    print(
        json.dumps(
            {
                "sets": sets,
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
