"""Feature-space correspondence and closed-form rigid registration.

Direction convention, used everywhere: the estimated transform maps the
TARGET onto the SOURCE. With target points f_i matched to source points
g_i, the estimate minimizes sum ||R f_i + t - g_i||^2; aligning the source
back onto the target is the inverse map g -> R.T (g - t)
(:func:`rpointhop.cloud.align_inverse`).

Matching walks the feature distance matrix row-wise (one candidate per
target point: its nearest source feature), keeps the ``m1`` smallest
distances, then the ``m2`` smallest ratios d1/d2. d1 is the distance to
the nearest source feature; d2 is the distance to the nearest source
feature outside that match's final-hop spatial neighborhood
(``FeatureSet.neighbor_table``). Multi-hop features vary smoothly over the
surface, so the plain second-nearest feature is often a spatial neighbor of
the first match, and a ratio against it measures how fast features change
locally rather than how ambiguous the match is. Taking d2 from elsewhere
on the cloud, as Lowe's ratio test takes it from a different object, makes
a small ratio mean an unambiguous match; dropping large-ratio pairs removes
the matches that symmetric or featureless regions produce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .cloud import PointCloud, RigidTransform, align_inverse, apply_transform
from .pipeline import FeatureSet, RPointHopModel, _two_lanes, extract_features
from .spatial import KnnIndex


class MatchingError(RuntimeError):
    """No usable correspondences: m1 exceeds the number of target points."""


class EstimationError(RuntimeError):
    """The correspondence geometry cannot determine a rigid transform."""


RANSAC_ITERATIONS = 512
RANSAC_SAMPLE_SIZE = 4  # pairs per minimal sample; 3 determine a rigid motion


@dataclass(frozen=True)
class RansacParams:
    inlier_radius: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.inlier_radius < np.inf:  # NaN fails this too
            raise ValueError("inlier_radius must be finite and positive")


@dataclass(frozen=True)
class MatchParams:
    """Correspondence selection parameters.

    Matching keeps the m1 pairs of smallest feature distance, then the m2
    of those with the smallest ratio. Setting ``use_ratio_test`` to False
    swaps the second-stage criterion: m2 pairs are still kept, but picked by
    smallest distance instead of smallest ratio, so ratio-test comparisons
    hold the pair count fixed.
    """

    m1: int = 256
    m2: int = 128
    use_ratio_test: bool = True
    use_ransac: bool = False
    ransac: RansacParams = field(default_factory=RansacParams)

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("m1 and m2 must be positive")
        if self.m2 > self.m1:
            raise ValueError("m2 cannot exceed m1")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Matched pairs: row i pairs target point ``pairs[i, 0]`` with source
    point ``pairs[i, 1]`` (indices into the respective FeatureSets)."""

    pairs: np.ndarray  # (M, 2) intp
    target_coords: np.ndarray  # (M, 3)
    source_coords: np.ndarray  # (M, 3)
    feature_distances: np.ndarray  # (M,)
    ratios: np.ndarray  # (M,)

    def __len__(self) -> int:
        return len(self.pairs)

    def take(self, rows: np.ndarray) -> CorrespondenceSet:
        """The pairs at ``rows`` (indices or a boolean mask), in that order."""
        return CorrespondenceSet(
            pairs=self.pairs[rows],
            target_coords=self.target_coords[rows],
            source_coords=self.source_coords[rows],
            feature_distances=self.feature_distances[rows],
            ratios=self.ratios[rows],
        )


def feature_distance_matrix(target: FeatureSet, source: FeatureSet) -> np.ndarray:
    """(N_target, N_source) Euclidean distances between feature rows."""
    if target.features.shape[1] != source.features.shape[1]:
        raise ValueError("feature widths differ; were these extracted with the same model?")
    return cdist(target.features, source.features)


def _nearest_two(
    dist: np.ndarray, neighbor_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: nearest column index, its distance, and the distance to the
    nearest column outside that column's neighborhood.

    ``neighbor_table`` row j lists the columns in column j's neighborhood;
    the nearest column itself is always left out, so self-only rows
    (``[[0], [1], ...]``) make the second distance the plain second-nearest
    one.
    Ties on distance resolve to the lower column index. A row with no
    column left outside the neighborhood (a single-column matrix, say)
    reports the second distance as 0 (ratio falls to 1).
    """
    first = np.argmin(dist, axis=1)  # argmin takes the first minimum: lowest index
    rows = np.arange(dist.shape[0])
    d1 = dist[rows, first]
    masked = dist.copy()
    masked[rows, first] = np.inf
    masked[rows[:, None], neighbor_table[first]] = np.inf
    d2 = masked.min(axis=1)
    d2[np.isinf(d2)] = 0.0
    return first, d1, d2


def match(target: FeatureSet, source: FeatureSet, params: MatchParams = MatchParams()) -> CorrespondenceSet:
    """Select correspondences between two feature sets.

    Each pair's ratio is d1/d2, with d2 taken outside the matched source
    point's neighborhood in ``source.neighbor_table`` (module docstring).
    Deterministic: ties in every sort break on ascending target row index.
    Raises :class:`MatchingError` when m1 exceeds the number of target rows.
    """
    dist = feature_distance_matrix(target, source)
    first, d1, d2 = _nearest_two(dist, source.neighbor_table)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(d2 > 0.0, d1 / np.where(d2 > 0.0, d2, 1.0), 1.0)

    n_target = dist.shape[0]
    if params.m1 > n_target:
        raise MatchingError(f"m1={params.m1} exceeds the {n_target} available target points")
    by_dist = np.lexsort((np.arange(n_target), d1))[: params.m1]
    if params.use_ratio_test:
        order = np.lexsort((by_dist, ratios[by_dist]))
        selected = by_dist[order][: params.m2]
    else:
        # same final count, selected by distance: comparisons against the
        # ratio test then measure the selection criterion, not the count
        selected = by_dist[: params.m2]

    pairs = np.stack([selected, first[selected]], axis=1).astype(np.intp)
    return CorrespondenceSet(
        pairs=pairs,
        target_coords=target.coords[selected],
        source_coords=source.coords[first[selected]],
        feature_distances=d1[selected],
        ratios=ratios[selected],
    )


def estimate_transform(corr: CorrespondenceSet) -> RigidTransform:
    """Closed-form least-squares rigid transform from matched coordinates.

    Covariance of centered pairs, SVD, reflection-corrected rotation:
    H = sum (f_i - fbar)(g_i - gbar)^T,  H = U S V^T,
    R = V diag(1, 1, det(V U^T)) U^T,  t = gbar - R fbar.
    Requires >= 3 pairs whose target points are not collinear.
    """
    if len(corr) < 3:
        raise EstimationError(f"need at least 3 pairs, got {len(corr)}")
    f = corr.target_coords
    g = corr.source_coords
    fbar = f.mean(axis=0)
    gbar = g.mean(axis=0)
    h = (f - fbar).T @ (g - gbar)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] <= s[0] * 1e-12:
        raise EstimationError("correspondences are collinear; rotation is undetermined")
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rotation = v @ np.diag([1.0, 1.0, d]) @ u.T
    translation = gbar - rotation @ fbar
    return RigidTransform(rotation, translation)


def _residuals(corr: CorrespondenceSet, tf: RigidTransform) -> np.ndarray:
    pred = corr.target_coords @ tf.rotation.T + tf.translation
    return np.linalg.norm(pred - corr.source_coords, axis=1)


def _consistent_sample(
    rng: np.random.Generator, compatible: np.ndarray, size: int
) -> np.ndarray | None:
    """Draw ``size`` distinct pairs, each compatible with all drawn before
    it, uniformly among those still allowed; None when the draw runs out
    of compatible pairs."""
    allowed = np.ones(compatible.shape[0], dtype=bool)
    pick = np.empty(size, dtype=np.intp)
    for i in range(size):
        candidates = np.flatnonzero(allowed)
        if candidates.size == 0:
            return None
        pick[i] = candidates[rng.integers(candidates.size)]
        allowed &= compatible[pick[i]]
        allowed[pick[i]] = False
    return pick


def ransac_estimate(corr: CorrespondenceSet, params: RansacParams = RansacParams()) -> RigidTransform:
    """RANSAC wrapper around :func:`estimate_transform`.

    Minimal samples hold only mutually length-consistent pairs: a rigid
    motion preserves distances, so two pairs that are both inliers
    (residual < r) have target and source separations that differ by less
    than 2r. A sample that breaks this cannot be all-inlier, and skipping
    such samples raises the chance of drawing an all-inlier one when
    inliers are scarce, as they are under partial overlap with noise.
    Runs ``RANSAC_ITERATIONS`` iterations, deterministic given
    ``params.seed``. The final transform is re-estimated on the best
    iteration's inliers. Raises :class:`EstimationError` when no iteration
    finds 3 inliers.
    """
    m = len(corr)
    if m < RANSAC_SAMPLE_SIZE:
        raise EstimationError(f"need at least sample_size={RANSAC_SAMPLE_SIZE} pairs, got {m}")
    rng = np.random.Generator(np.random.PCG64(params.seed))
    separation_gap = np.abs(
        cdist(corr.target_coords, corr.target_coords) - cdist(corr.source_coords, corr.source_coords)
    )
    compatible = separation_gap < 2.0 * params.inlier_radius
    best_count = 0
    best_rmse = np.inf
    best_inliers: np.ndarray | None = None
    for _ in range(RANSAC_ITERATIONS):
        pick = _consistent_sample(rng, compatible, RANSAC_SAMPLE_SIZE)
        if pick is None:
            continue  # no consistent sample grows from this first pair
        try:
            tf = estimate_transform(corr.take(pick))
        except EstimationError:
            continue  # degenerate minimal sample; try the next one
        res = _residuals(corr, tf)
        inliers = res < params.inlier_radius
        count = int(inliers.sum())
        if count < 3:
            continue
        rmse = float(np.sqrt(np.mean(res[inliers] ** 2)))
        if count > best_count or (count == best_count and rmse < best_rmse):
            best_count, best_rmse, best_inliers = count, rmse, inliers
    if best_inliers is None:
        raise EstimationError("no RANSAC iteration produced 3 or more inliers")
    return estimate_transform(corr.take(best_inliers))


X84_MADS = 5.2  # Hampel's X84 outlier cut, about 3.5 sigma for Gaussian data
ICP_MAX_ITERS = 50
ICP_TOL = 1e-8  # stop once the mean residual changes by less than this


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    residuals: tuple[float, ...]  # mean point-to-point residual per iteration
    iterations: int
    converged: bool


def icp_refine(source: PointCloud, target: PointCloud, initial: RigidTransform) -> IcpResult:
    """Point-to-point ICP, refining a transform that maps target onto source.

    Each iteration pairs every transformed target point with its nearest
    source point, drops the pairs whose distance is an outlier by the X84
    rule (more than 5.2 median absolute deviations above the median
    distance, as in Trucco et al.'s robust ICP, 1999), and re-estimates
    from the rest in closed form. Under partial overlap the target points
    outside the overlap are far from every source point, so they are
    dropped instead of dragging the estimate off the overlap; from a
    distant start the distances spread widely and nearly every pair is
    kept. The recorded residual is the mean nearest-source distance over
    all target points; it may wiggle by small amounts, since the estimator
    minimizes the squared loss over a pair set that changes between
    iterations.
    Stops when the mean residual changes by less than ``ICP_TOL`` or after
    ``ICP_MAX_ITERS`` iterations. Purely local: a bad initial guess
    converges to a nearby minimum, not the global one.
    """
    index = KnnIndex(source.coords)
    current = initial
    residuals: list[float] = []
    converged = False
    for _ in range(ICP_MAX_ITERS):
        moved = target.coords @ current.rotation.T + current.translation
        nbr_idx, dist = index.query(moved, 1)
        residuals.append(float(dist[:, 0].mean()))
        if len(residuals) >= 2 and abs(residuals[-2] - residuals[-1]) < ICP_TOL:
            converged = True
            break
        nearest = CorrespondenceSet(
            pairs=np.stack([np.arange(len(moved)), nbr_idx[:, 0]], axis=1),
            target_coords=moved,
            source_coords=source.coords[nbr_idx[:, 0]],
            feature_distances=dist[:, 0],
            ratios=np.ones(len(moved)),
        )
        median = np.median(dist[:, 0])
        keep = dist[:, 0] <= median + X84_MADS * np.median(np.abs(dist[:, 0] - median))
        try:
            delta = estimate_transform(nearest.take(keep))
        except EstimationError:
            break  # degenerate pairing; keep the current transform
        current = delta.compose(current)
    return IcpResult(
        transform=current,
        residuals=tuple(residuals),
        iterations=len(residuals),
        converged=converged,
    )


def extract_pair(
    model: RPointHopModel, target: PointCloud, source: PointCloud, seed: int
) -> tuple[FeatureSet, FeatureSet]:
    """(target, source) features, both extracted with ``seed`` at the same
    time, on the caller's thread and the worker lane. When both clouds fail,
    the target's error is raised."""
    return tuple(_two_lanes(lambda cloud: extract_features(model, cloud, seed=seed), (target, source)))


def register_features(
    target_fs: FeatureSet,
    source_fs: FeatureSet,
    source: PointCloud,
    target: PointCloud,
    params: MatchParams = MatchParams(),
    icp: bool = False,
) -> tuple[RigidTransform, CorrespondenceSet, int]:
    """Feature sets to transform: match, estimate in closed form (inside
    RANSAC when ``params.use_ransac``), then optionally refine with ICP on
    the clouds the feature sets were extracted from. Returns (transform
    mapping target onto source, the matched pairs, ICP iterations run)."""
    corr = match(target_fs, source_fs, params)
    tf = ransac_estimate(corr, params.ransac) if params.use_ransac else estimate_transform(corr)
    icp_iterations = 0
    if icp:
        result = icp_refine(source, target, tf)
        tf, icp_iterations = result.transform, result.iterations
    return tf, corr, icp_iterations


def register(
    model: RPointHopModel,
    source: PointCloud,
    target: PointCloud,
    params: MatchParams = MatchParams(),
    seed: int = 0,
    icp: bool = False,
) -> tuple[RigidTransform, PointCloud, dict]:
    """Full registration: extract features, match, estimate, optionally
    refine with ICP. Returns (transform mapping target onto source,
    source aligned back onto the target, report dict).

    One extraction seed (derived from ``seed``) is shared by both clouds,
    so fully-overlapping clouds of equal size retain the same physical
    points and match near-exactly. The two clouds are extracted at the same
    time (:func:`extract_pair`).
    """
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    target_fs, source_fs = extract_pair(model, target, source, int(rng.integers(2**63)))
    tf, corr, icp_iterations = register_features(target_fs, source_fs, source, target, params, icp)
    aligned = align_inverse(source, tf)
    angles, gimbal = matrix_to_euler_xyz(tf.rotation)
    res = _residuals(corr, tf)
    if params.use_ransac:
        inl = res[res < params.ransac.inlier_radius]
        mean_residual = float(inl.mean()) if inl.size else float(res.mean())
    else:
        mean_residual = float(res.mean())
    report = {
        "convention": "transform maps target onto source: p_source ~ R @ p_target + t",
        "rotation": tf.rotation,
        "translation": tf.translation,
        "euler_deg": angles,
        "gimbal_lock": gimbal,
        "candidate_pairs": len(target_fs),
        "matched_pairs": len(corr),
        "mean_residual": mean_residual,
        "used_ransac": params.use_ransac,
        "used_ratio_test": params.use_ratio_test,
        "icp_iterations": icp_iterations,
        "runtime_s": time.perf_counter() - t0,
    }
    return tf, aligned, report


def format_report(report: dict) -> str:
    """Render a register() report as a transform file with extra keys.

    The output is loadable by :func:`rpointhop.cloud.load_transform`
    (it ignores comments and unknown keys).
    """
    lines = [
        f"# {report['convention']}",
        "rotation " + " ".join(f"{v:.17g}" for v in np.asarray(report["rotation"]).ravel()),
        "translation " + " ".join(f"{v:.17g}" for v in np.asarray(report["translation"])),
        "euler_deg " + " ".join(f"{v:.17g}" for v in np.asarray(report["euler_deg"])),
        f"gimbal_lock {int(bool(report['gimbal_lock']))}",
        f"candidate_pairs {report['candidate_pairs']}",
        f"matched_pairs {report['matched_pairs']}",
        f"mean_residual {report['mean_residual']:.17g}",
        f"used_ransac {int(bool(report['used_ransac']))}",
        f"used_ratio_test {int(bool(report['used_ratio_test']))}",
        f"icp_iterations {report['icp_iterations']}",
        f"runtime_s {report['runtime_s']:.6f}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rotation error metrics
# ---------------------------------------------------------------------------


def euler_xyz_to_matrix(angles_deg: np.ndarray) -> np.ndarray:
    """Rotation matrix R = Rz(tz) @ Ry(ty) @ Rx(tx), angles in degrees."""
    tx, ty, tz = np.radians(np.asarray(angles_deg, dtype=np.float64).reshape(3))
    cx, sx = np.cos(tx), np.sin(tx)
    cy, sy = np.cos(ty), np.sin(ty)
    cz, sz = np.cos(tz), np.sin(tz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def matrix_to_euler_xyz(rotation: np.ndarray) -> tuple[np.ndarray, bool]:
    """Angles (tx, ty, tz) in degrees with R = Rz @ Ry @ Rx, plus a gimbal
    lock flag (|ty| within 1e-9 of 90 degrees). In lock, tx is set to 0 and
    tz absorbs the remaining rotation."""
    r = np.asarray(rotation, dtype=np.float64)
    sy = -r[2, 0]
    sy = min(1.0, max(-1.0, sy))
    ty = np.arcsin(sy)
    gimbal = abs(abs(sy) - 1.0) <= 1e-9
    if gimbal:
        tx = 0.0
        tz = np.arctan2(-r[0, 1], r[1, 1])
    else:
        tx = np.arctan2(r[2, 1], r[2, 2])
        tz = np.arctan2(r[1, 0], r[0, 0])
    return np.degrees(np.array([tx, ty, tz])), bool(gimbal)


def _wrap_degrees(diff: np.ndarray) -> np.ndarray:
    return (diff + 180.0) % 360.0 - 180.0


def rotation_error(r_pred: np.ndarray, r_gt: np.ndarray) -> np.ndarray:
    """Per-axis signed angle differences in degrees.

    Both rotations are converted to the synthesis convention
    (R = Rz @ Ry @ Rx) and subtracted axis-wise, wrapped to [-180, 180).
    """
    pred, _ = matrix_to_euler_xyz(r_pred)
    gt, _ = matrix_to_euler_xyz(r_gt)
    return _wrap_degrees(pred - gt)


def translation_error(t_pred: np.ndarray, t_gt: np.ndarray) -> np.ndarray:
    """Per-component signed differences."""
    return np.asarray(t_pred, dtype=np.float64) - np.asarray(t_gt, dtype=np.float64)
