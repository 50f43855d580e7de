"""Synthetic registration experiments and error scoring.

A trial takes one test cloud as the target, applies a random rigid motion
to make the source, optionally crops the source (and, on request, the
target) to a contiguous partial view and perturbs it with Gaussian noise,
then registers and scores the recovered transform against the ground
truth. Rotations are synthesized as R = Rz(tz) @ Ry(ty) @ Rx(tx) and
errors are per-axis angle differences in that convention, pooled over axes
and trials into MSE / RMSE / MAE (degrees for rotation, input units for
translation).

Everything is seed-driven and the rendered report contains no wall-clock
values, so a benchmark rerun with the same seed is byte-identical.
Wall-clock totals stay on the in-memory report and the log.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .cloud import PointCloud, RigidTransform, apply_transform, normalize_unit_sphere
from .pipeline import FeatureSet, RPointHopModel, extract_features
from .registration import (
    MatchParams,
    RansacParams,
    euler_xyz_to_matrix,
    icp_refine,
    matrix_to_euler_xyz,
    register_features,
    rotation_error,
    translation_error,
)
from .spatial import KnnIndex

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration (angles in degrees)."""

    max_angle_deg: float = 45.0
    translation_range: float = 0.5
    noise_std: float = 0.0
    partial_fraction: float = 1.0
    partial_both: bool = False
    trials: int = 20
    seed: int = 0
    use_ratio_test: bool = True
    use_ransac: bool = False
    icp_refine: bool = False
    icp_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_angle_deg <= 180.0:
            raise ValueError("max_angle_deg must lie in [0, 180]")
        # NaN fails every range test below
        if not 0.0 <= self.translation_range < np.inf:
            raise ValueError("translation_range must be finite and non-negative")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and non-negative")
        if not 0.0 < self.partial_fraction <= 1.0:
            raise ValueError("partial_fraction must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    cloud_index: int
    status: str  # "ok" or "failed"
    rotation_error_deg: np.ndarray | None
    translation_error: np.ndarray | None
    gimbal_lock: bool
    message: str = ""


@dataclass(frozen=True)
class BenchReport:
    spec: ExperimentSpec
    label: str
    trials: tuple[TrialResult, ...]
    aggregates: dict  # six values: {mse,rmse,mae} x {rotation_deg,translation}
    runtime_s: float

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.trials if t.status != "ok")


def sample_rigid_transform(spec: ExperimentSpec, trial_seed: int) -> tuple[RigidTransform, np.ndarray]:
    """Random motion: per-axis angles uniform on [0, max_angle_deg] (drawn
    in x, y, z order), translation uniform on the cube. Returns the
    transform and the synthesized angles in degrees."""
    rng = np.random.Generator(np.random.PCG64(trial_seed))
    angles = rng.uniform(0.0, spec.max_angle_deg, size=3)
    r = spec.translation_range
    translation = rng.uniform(-r, r, size=3)
    return RigidTransform(euler_xyz_to_matrix(angles), translation), angles


def make_partial(cloud: PointCloud, fraction: float, seed: int) -> PointCloud:
    """Contiguous partial view: a random anchor point plus its
    floor(fraction * N) - 1 nearest neighbors, original point order kept."""
    n = len(cloud)
    m = int(np.floor(fraction * n))
    if m < 1:
        raise ValueError(f"fraction {fraction} keeps no points of {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    anchor = int(rng.integers(n))
    idx, _ = KnnIndex(cloud.coords).query(cloud.coords[anchor], m)
    return cloud.take(np.sort(idx))


def add_noise(cloud: PointCloud, std: float, seed: int) -> PointCloud:
    """Isotropic Gaussian jitter on coordinates (std 0 is an exact no-op)."""
    if not 0.0 <= std < np.inf:  # NaN fails this too
        raise ValueError("std must be finite and non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    return PointCloud(cloud.coords + rng.normal(0.0, std, size=(len(cloud), 3)), cloud.aux)


def _error_aggregates(rot_errors: list[np.ndarray], trans_errors: list[np.ndarray]) -> dict:
    def stats(errs: list[np.ndarray]) -> dict:
        if not errs:
            return {"mse": float("nan"), "rmse": float("nan"), "mae": float("nan")}
        pooled = np.concatenate([np.asarray(e).ravel() for e in errs])
        mse = float(np.mean(pooled**2))
        return {"mse": mse, "rmse": float(np.sqrt(mse)), "mae": float(np.mean(np.abs(pooled)))}

    return {"rotation_deg": stats(rot_errors), "translation": stats(trans_errors)}


@dataclass(frozen=True)
class _Trial:
    """One synthesized trial: the clouds, the ground-truth motion and the
    seeds its registration uses."""

    index: int
    cloud_index: int
    source: PointCloud
    target: PointCloud
    truth: RigidTransform
    extract_seed: int
    ransac_seed: int


def _trials(clouds: Sequence[PointCloud], spec: ExperimentSpec) -> Iterator[_Trial]:
    """Synthesize ``spec.trials`` trials from the master seed ``spec.seed``.

    Each trial draws, in order, its cloud index and the seeds of the motion,
    the source crop, the target crop, the noise, the extraction and RANSAC;
    every draw is made whether or not the spec uses it.
    """
    master = np.random.Generator(np.random.PCG64(spec.seed))
    for trial in range(spec.trials):
        cloud_index = int(master.integers(len(clouds)))
        tf_seed, partial_seed_s, partial_seed_t, noise_seed, extract_seed, ransac_seed = (
            int(master.integers(2**63)) for _ in range(6)
        )
        target = clouds[cloud_index]
        tf_gt, _ = sample_rigid_transform(spec, tf_seed)
        source = apply_transform(target, tf_gt)
        if spec.partial_fraction < 1.0:
            source = make_partial(source, spec.partial_fraction, partial_seed_s)
            if spec.partial_both:
                target = make_partial(target, spec.partial_fraction, partial_seed_t)
        if spec.noise_std > 0.0:
            source = add_noise(source, spec.noise_std, noise_seed)
        yield _Trial(trial, cloud_index, source, target, tf_gt, extract_seed, ransac_seed)


def _estimate(
    features: tuple[FeatureSet, FeatureSet] | None, trial: _Trial, spec: ExperimentSpec
) -> RigidTransform:
    """The trial's predicted motion: ICP from the identity for ``icp_only``
    specs, otherwise the (target, source) feature sets matched and
    estimated by :func:`~rpointhop.registration.register_features` (with
    RANSAC and ICP if the spec asks for them)."""
    if spec.icp_only:
        return icp_refine(trial.source, trial.target, RigidTransform.identity()).transform
    params = MatchParams(
        use_ratio_test=spec.use_ratio_test,
        use_ransac=spec.use_ransac,
        ransac=RansacParams(seed=trial.ransac_seed),
    )
    return register_features(*features, trial.source, trial.target, params, spec.icp_refine)[0]


def _score(trial: _Trial, outcome: RigidTransform | Exception) -> TrialResult:
    """Score a predicted motion against the trial's ground truth; an
    exception instead of a prediction makes a failed result."""
    if isinstance(outcome, Exception):
        return TrialResult(trial.index, trial.cloud_index, "failed", None, None, False, str(outcome))
    rot = rotation_error(outcome.rotation, trial.truth.rotation)
    trans = translation_error(outcome.translation, trial.truth.translation)
    _, gimbal_pred = matrix_to_euler_xyz(outcome.rotation)
    _, gimbal_gt = matrix_to_euler_xyz(trial.truth.rotation)
    return TrialResult(trial.index, trial.cloud_index, "ok", rot, trans, gimbal_pred or gimbal_gt)


def _run_variants(
    model: RPointHopModel | None,
    test_clouds: Sequence[PointCloud],
    spec: ExperimentSpec,
    variants: Sequence[tuple[str, ExperimentSpec]],
) -> tuple[BenchReport, ...]:
    """Run the trials of ``spec``, extracting each trial's features once
    and registering them with every (label, spec) variant; one report per
    variant over the shared trials."""
    clouds = list(test_clouds)
    if not clouds:
        raise ValueError("no test clouds supplied")
    if model is None and not spec.icp_only:
        raise ValueError("a model is required unless icp_only is set")
    t0 = time.perf_counter()
    results: list[list[TrialResult]] = [[] for _ in variants]
    for trial in _trials(clouds, spec):
        try:
            features = None if spec.icp_only else (
                extract_features(model, trial.target, seed=trial.extract_seed),
                extract_features(model, trial.source, seed=trial.extract_seed),
            )
        except Exception as exc:  # noqa: BLE001 - failures are data here
            for out in results:
                out.append(_score(trial, exc))
            continue
        for out, (_, vspec) in zip(results, variants):
            try:
                outcome = _estimate(features, trial, vspec)
            except Exception as exc:  # noqa: BLE001
                outcome = exc
            out.append(_score(trial, outcome))
    runtime = time.perf_counter() - t0
    logger.info("%s: %d trials in %.2fs", " / ".join(lab for lab, _ in variants), spec.trials, runtime)
    reports = []
    for (label, vspec), trials in zip(variants, results):
        ok = [t for t in trials if t.status == "ok"]
        aggregates = _error_aggregates(
            [t.rotation_error_deg for t in ok], [t.translation_error for t in ok]
        )
        reports.append(BenchReport(vspec, label, tuple(trials), aggregates, runtime))
    return tuple(reports)


def run_benchmark(
    model: RPointHopModel | None,
    test_clouds: Sequence[PointCloud],
    spec: ExperimentSpec,
    label: str = "benchmark",
) -> BenchReport:
    """Run all trials of one experiment.

    ``model`` may be None only for ``icp_only`` specs. Failed trials are
    recorded with their message and excluded from the aggregates rather
    than aborting the run.
    """
    return _run_variants(model, test_clouds, spec, [(label, spec)])[0]


def run_ratio_ablation(
    model: RPointHopModel,
    test_clouds: Sequence[PointCloud],
    spec: ExperimentSpec,
) -> tuple[BenchReport, BenchReport]:
    """Paired comparison of matching with and without the ratio test.

    Both variants share every trial's clouds, ground truth, and extracted
    features, so the comparison isolates the correspondence filter.
    """
    variants = [
        ("with ratio test", replace(spec, use_ratio_test=True)),
        ("without ratio test", replace(spec, use_ratio_test=False)),
    ]
    return _run_variants(model, test_clouds, spec, variants)


def render_report(report: BenchReport) -> str:
    """Deterministic text table: one row per trial, then the aggregate
    block in the six-column MSE/RMSE/MAE x rotation/translation layout.
    Contains no wall-clock values."""
    out = [f"# {report.label}"]
    out.append("trial\tcloud\tstatus\terr_rx\terr_ry\terr_rz\terr_tx\terr_ty\terr_tz\tgimbal")
    for t in report.trials:
        if t.status == "ok":
            vals = "\t".join(f"{v:.10g}" for v in (*t.rotation_error_deg, *t.translation_error))
            out.append(f"{t.trial}\t{t.cloud_index}\tok\t{vals}\t{int(t.gimbal_lock)}")
        else:
            out.append(
                f"{t.trial}\t{t.cloud_index}\tfailed\t-\t-\t-\t-\t-\t-\t-\t# {t.message}"
            )
    agg = report.aggregates
    out.append("")
    out.append("metric\tMSE(R)\tRMSE(R)\tMAE(R)\tMSE(t)\tRMSE(t)\tMAE(t)")
    rot, tr = agg["rotation_deg"], agg["translation"]
    out.append(
        "aggregate\t"
        + "\t".join(
            f"{v:.10g}"
            for v in (rot["mse"], rot["rmse"], rot["mae"], tr["mse"], tr["rmse"], tr["mae"])
        )
    )
    out.append(
        "# note: absolute error magnitudes depend on training-corpus size and"
        " diversity; small corpora attain looser bounds than full-scale training."
    )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


def _rotation_from(rng: np.random.Generator) -> np.ndarray:
    """Random proper rotation (QR of a Gaussian matrix, sign-fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def _box_points(rng: np.random.Generator, n: int, half: np.ndarray) -> np.ndarray:
    """n points spread over the surface of a box, faces weighted by area."""
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    face_axis = rng.choice(3, size=n, p=areas / areas.sum())
    side = rng.choice([-1.0, 1.0], size=n)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    pts[np.arange(n), face_axis] = side * half[face_axis]
    return pts


def _cylinder_points(
    rng: np.random.Generator, n: int, radius: float, halflen: float
) -> np.ndarray:
    """n points over a closed cylinder, side vs caps weighted by area."""
    side_area = 2.0 * np.pi * radius * 2.0 * halflen
    cap_area = 2.0 * np.pi * radius**2
    on_side = rng.uniform(size=n) < side_area / (side_area + cap_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(-halflen, halflen, size=n)
    r = np.where(on_side, radius, radius * np.sqrt(rng.uniform(size=n)))
    z = np.where(on_side, z, rng.choice([-1.0, 1.0], size=n) * halflen)
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _ellipsoid_points(rng: np.random.Generator, n: int, half: np.ndarray) -> np.ndarray:
    """n points on an ellipsoid (normalized Gaussian directions, scaled)."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * half


def make_shape_cloud(n: int, seed: int) -> PointCloud:
    """Random rigid-object-like surface with n points, unit-sphere normalized.

    A composite of three or four primitive shells (boxes, cylinders,
    ellipsoids) at random poses, bent by a smooth low-frequency sinusoidal
    displacement field. The primitives contribute the sharp, anisotropic
    local structure (edges, corners, curvature changes) that makes local
    frames stable under perturbation; the warp breaks their symmetries and
    repetition so that different surface regions stay distinguishable in
    feature space.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_prims = min(3 + int(rng.integers(0, 2)), n)
    kinds = ["box", "cyl", "ell"] * 2
    rng.shuffle(kinds)
    weights = rng.uniform(0.5, 1.5, size=n_prims)
    weights /= weights.sum()
    counts = np.maximum(1, (weights * n).astype(int))
    counts[0] += n - counts.sum()
    while counts[0] < 1:  # tiny clouds: shave the largest shell instead
        counts[counts.argmax()] -= 1
        counts[0] += 1
    prims = []
    for kind, m in zip(kinds[:n_prims], counts):
        if kind == "box":
            pts = _box_points(rng, m, rng.uniform(0.15, 0.6, size=3))
        elif kind == "cyl":
            pts = _cylinder_points(
                rng, m, rng.uniform(0.1, 0.35), rng.uniform(0.3, 0.8)
            )
        else:
            pts = _ellipsoid_points(rng, m, rng.uniform(0.15, 0.5, size=3))
        prims.append(pts @ _rotation_from(rng).T + rng.uniform(-0.35, 0.35, size=3))
    coords = np.vstack(prims)
    amp = rng.uniform(0.08, 0.18, size=3)
    waves = rng.uniform(1.0, 3.0, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    disp = np.stack(
        [amp[j] * np.sin(coords @ waves[j] + phase[j]) for j in range(3)], axis=1
    )
    return normalize_unit_sphere(PointCloud(coords + disp))[0]


def make_shape_corpus(count: int, n_points: int, seed: int) -> list[PointCloud]:
    """``count`` distinct shapes; cloud i uses seed ``seed + i``."""
    return [make_shape_cloud(n_points, seed + i) for i in range(count)]
