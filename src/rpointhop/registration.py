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

A registration uses the two lanes (:func:`rpointhop.pipeline._two_lanes`:
the calling thread and one worker thread per call) twice: the target and
source extractions run at once (:func:`rpointhop.pipeline.extract_pair`),
once both clouds are farthest point sampled in one stack on the caller,
then matching splits its target rows into two halves, one per lane.
Matching computes every row on its own, so the halves give the same bits
as one serial pass. The robust estimate (:func:`ransac_estimate`) and ICP
run on the caller. ICP re-searches only the moved target points whose
nearest source point the triangle inequality cannot vouch for since their
last search (:meth:`rpointhop.spatial.KnnIndex.nearest`); every other
point keeps its nearest point, which a full search would return too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .cloud import PointCloud, RigidTransform, _transform_lines, align_inverse, seeded_rng
from .pipeline import (
    FeatureSet,
    RPointHopModel,
    _two_lanes,
    extract_features,  # noqa: F401 - not called here; perfbench/spans.py hooks this module path
    extract_pair,
)
from .spatial import KnnIndex


class MatchingError(RuntimeError):
    """No usable correspondences: m1 exceeds the number of target points."""


class EstimationError(RuntimeError):
    """The correspondence geometry cannot determine a rigid transform."""


CONSENSUS_SEEDS = 32  # hypotheses, one per seed pair
CONSENSUS_GROUP = 11  # pairs per hypothesis: its seed and up to 10 more


@dataclass(frozen=True)
class RansacParams:
    inlier_radius: float = 0.05

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
    Each target row's distances to every source row, and its nearest and
    second distances, do not depend on the other target rows, so the two
    halves of the target rows (the first holding ceil(n/2) of n) run on the
    two lanes (:func:`_two_lanes`) and the selection runs on the caller.
    Raises ValueError when the feature widths differ, and
    :class:`MatchingError` when m1 exceeds the number of target rows.
    """
    if target.features.shape[1] != source.features.shape[1]:
        raise ValueError("feature widths differ; were these extracted with the same model?")
    n_target = len(target)
    if params.m1 > n_target:
        raise MatchingError(f"m1={params.m1} exceeds the {n_target} available target points")
    halves = _two_lanes(
        lambda rows: _nearest_two(cdist(rows, source.features), source.neighbor_table),
        np.array_split(target.features, 2),
    )
    first, d1, d2 = (np.concatenate(parts) for parts in zip(*halves))
    ratios = np.where(d2 > 0.0, d1 / np.where(d2 > 0.0, d2, 1.0), 1.0)

    by_dist = np.argsort(d1, kind="stable")[: params.m1]
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


def _kabsch(f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form least-squares rigid motions for stacks of matched
    coordinates: ``f`` and ``g`` are (..., n, 3) target and source points.
    Returns rotations (..., 3, 3), translations (..., 3) and the singular
    values (..., 3) of each cross-covariance, descending:
    H = sum (f_i - fbar)(g_i - gbar)^T,  H = U S V^T,
    R = V diag(1, 1, det(V U^T)) U^T,  t = gbar - R fbar.
    Each stack slice gets the same bits as a stack of one.
    """
    fbar = f.mean(axis=-2)
    gbar = g.mean(axis=-2)
    h = np.swapaxes(f - fbar[..., None, :], -1, -2) @ (g - gbar[..., None, :])
    u, s, vt = np.linalg.svd(h)
    ut = np.swapaxes(u, -1, -2)
    v = np.swapaxes(vt, -1, -2).copy()
    v[..., 2] *= np.sign(np.linalg.det(v @ ut))[..., None]  # no reflections
    rotation = v @ ut
    translation = gbar - (rotation @ fbar[..., None])[..., 0]
    return rotation, translation, s


def _coincident(points: np.ndarray) -> np.ndarray:
    """(...,) whether each stack's (n, 3) points all coincide: no centered
    coordinate exceeds 1e-12 times the set's largest absolute coordinate.
    An all-zero set coincides."""
    spread = np.abs(points - points.mean(axis=-2, keepdims=True)).max(axis=(-2, -1))
    return spread <= np.abs(points).max(axis=(-2, -1)) * 1e-12


def _degenerate(s: np.ndarray, *point_sets: np.ndarray) -> np.ndarray:
    """(...,) whether each stack of pairs leaves the rotation undetermined:
    the singular values ``s`` (..., 3) of its cross-covariance are those of
    collinear pairs, or the points of one of ``point_sets`` (its (..., n, 3)
    target and source points) coincide. Coincident points give a
    cross-covariance of rounding noise, whose singular value ratios can pass
    the first test.

    Given the two sets f and g whose cross-covariance H gave ``s``, ``s[0]``
    screens the coincidence test. :func:`_kabsch` centers on the means
    :func:`_coincident` centers on, so if f's points coincide, every centered
    coordinate of f is at most 1e-12·max|f| and every one of g at most
    2·max|g|: then s[0] <= ||H||_F <= 6e-12·n·max|f|·max|g|, and the same
    holds with f and g swapped. Above twice that bound, which covers the
    rounding of H and of its SVD, neither set coincides, and the test is
    skipped with the same result."""
    flags = (s[..., 0] <= 0.0) | (s[..., 1] <= s[..., 0] * 1e-12)
    if len(point_sets) == 2:
        f, g = point_sets
        bound = 1.2e-11 * f.shape[-2] * np.abs(f).max(axis=(-2, -1)) * np.abs(g).max(axis=(-2, -1))
        if not np.any(s[..., 0] <= bound):
            return flags
    for points in point_sets:
        flags |= _coincident(points)
    return flags


def estimate_transform(corr: CorrespondenceSet) -> RigidTransform:
    """Closed-form least-squares rigid transform from matched coordinates
    (:func:`_kabsch` on one stack). Requires >= 3 pairs whose target points
    are not collinear and whose target and source points do not all
    coincide (:func:`_degenerate`)."""
    if len(corr) < 3:
        raise EstimationError(f"need at least 3 pairs, got {len(corr)}")
    rotation, translation, s = _kabsch(corr.target_coords, corr.source_coords)
    if _degenerate(s, corr.target_coords, corr.source_coords):
        raise EstimationError("correspondences are collinear; rotation is undetermined")
    return RigidTransform(rotation, translation)


def _residuals(corr: CorrespondenceSet, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """(..., M) distances from each moved target point to its source point,
    one row per motion in the (..., 3, 3) and (..., 3) stacks."""
    pred = corr.target_coords @ np.swapaxes(rotation, -1, -2) + translation[..., None, :]
    return np.linalg.norm(pred - corr.source_coords, axis=-1)


def _seeded_groups(compatible: np.ndarray, support: np.ndarray) -> np.ndarray:
    """(K, ``CONSENSUS_GROUP``) pair indices: one greedy group per seed.

    The seeds are the ``CONSENSUS_SEEDS`` pairs (all pairs when fewer) of
    largest ``support`` row sum, ties to the lower index. Each group grows
    one position at a time across all seeds: a step takes the pair of
    largest ``support[seed, j]``, ties to the lower index, among the pairs
    compatible with every pair the group holds. A seed left with no such
    pair fills its remaining positions with itself."""
    seeds = np.argsort(-support.sum(axis=1), kind="stable")[:CONSENSUS_SEEDS]
    rows = np.arange(len(seeds))
    picks = np.empty((len(seeds), CONSENSUS_GROUP), dtype=np.intp)
    picks[:, 0] = seeds
    allowed = compatible[seeds]
    allowed[rows, seeds] = False
    ranks = support[seeds]
    for i in range(1, CONSENSUS_GROUP):
        best = np.argmax(np.where(allowed, ranks, -1), axis=1)  # the first maximum: lowest index
        picks[:, i] = np.where(allowed[rows, best], best, seeds)
        allowed &= compatible[picks[:, i]]
        allowed[rows, picks[:, i]] = False
    return picks


def ransac_estimate(corr: CorrespondenceSet, params: RansacParams = RansacParams()) -> RigidTransform:
    """Robust wrapper around :func:`estimate_transform`: a deterministic,
    seeded consensus in place of random draws (SC²-PCR, Chen et al., CVPR
    2022).

    A rigid motion preserves distances, so two pairs that are both inliers
    (residual < r) have target and source separations that differ by less
    than 2r; C marks the pairs of pairs that pass this test. Second-order
    compatibility S = (C·C) ∘ C counts, for each compatible pair of pairs,
    the pairs compatible with both, so inliers, which are all compatible
    with one another, reach high counts even when they are scarce. The
    pairs of largest S row sum seed one hypothesis each, grown into a group
    of mutually compatible pairs (:func:`_seeded_groups`). Every group is
    fitted and scored in one batched pass on the calling thread
    (:func:`_kabsch` over the stack of groups, then every pair's residual).
    Degenerate groups and hypotheses with fewer than 3 inliers are dropped.
    The best hypothesis has the most inliers, then the lowest inlier RMSE,
    then the earliest seed; the final transform is re-estimated on its
    inliers. Nothing is drawn at random. Requires >= 3 pairs, as
    :func:`estimate_transform` does; raises :class:`EstimationError` when no
    hypothesis finds 3 inliers.
    """
    m = len(corr)
    if m < 3:
        raise EstimationError(f"need at least 3 pairs, got {m}")
    separation_gap = np.abs(
        cdist(corr.target_coords, corr.target_coords) - cdist(corr.source_coords, corr.source_coords)
    )
    compatible = separation_gap < 2.0 * params.inlier_radius
    c = compatible.astype(np.int32)
    # an int einsum skips BLAS: a float GEMM this size wakes OpenBLAS threads that then slow the lanes
    support = np.einsum("ij,jk->ik", c, c) * c
    picks = _seeded_groups(compatible, support)
    group_targets, group_sources = corr.target_coords[picks], corr.source_coords[picks]
    rotation, translation, s = _kabsch(group_targets, group_sources)
    res = _residuals(corr, rotation, translation)  # (K, m)
    inliers = res < params.inlier_radius
    counts = inliers.sum(axis=1)
    counts[_degenerate(s, group_targets, group_sources)] = 0
    best_count = counts.max(initial=0)
    if best_count < 3:
        raise EstimationError("no RANSAC hypothesis produced 3 or more inliers")
    best, best_rmse = -1, np.inf
    for i in np.flatnonzero(counts == best_count):  # ascending: the earliest seed wins ties
        rmse = float(np.sqrt(np.mean(res[i][inliers[i]] ** 2)))
        if rmse < best_rmse:
            best, best_rmse = i, rmse
    return estimate_transform(corr.take(inliers[best]))


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
    ``ICP_MAX_ITERS`` iterations, or keeps the current transform when
    fewer than 3 pairs remain or they are degenerate (where
    :func:`estimate_transform` refuses). Purely local: a bad initial guess
    converges to a nearby minimum, not the global one.

    The nearest source points come from :meth:`KnnIndex.nearest`, which
    searches the k-d tree again only for the points whose nearest source
    point the triangle inequality cannot vouch for since their last
    search; the pairs are those of a full search every iteration, bit for
    bit. The motion is held as plain arrays, composed with
    :meth:`RigidTransform.compose`'s arithmetic, and validated once, as
    the returned transform.
    """
    index = KnnIndex(source.coords)
    rotation, translation = initial.rotation, initial.translation
    held = None
    residuals: list[float] = []
    converged = False
    for _ in range(ICP_MAX_ITERS):
        moved = target.coords @ rotation.T + translation
        nbr_idx, dist, held = index.nearest(moved, held)
        nbr_idx, dist = nbr_idx[:, 0], dist[:, 0]
        residuals.append(float(dist.mean()))
        if len(residuals) >= 2 and abs(residuals[-2] - residuals[-1]) < ICP_TOL:
            converged = True
            break
        median = np.median(dist)
        keep = dist <= median + X84_MADS * np.median(np.abs(dist - median))
        if np.count_nonzero(keep) < 3:
            break  # too few pairs; keep the current transform
        pairs = moved[keep], source.coords[nbr_idx[keep]]
        delta_r, delta_t, s = _kabsch(*pairs)
        if _degenerate(s, *pairs):
            break  # collinear or coincident pairing; keep the current transform
        rotation, translation = delta_r @ rotation, delta_r @ translation + delta_t
    return IcpResult(
        transform=RigidTransform(rotation, translation),
        residuals=tuple(residuals),
        iterations=len(residuals),
        converged=converged,
    )


def register_features(
    target_fs: FeatureSet,
    source_fs: FeatureSet,
    source: PointCloud,
    target: PointCloud,
    params: MatchParams = MatchParams(),
    icp: bool = False,
) -> tuple[RigidTransform, CorrespondenceSet, IcpResult | None]:
    """Feature sets to transform: match, estimate in closed form (inside
    the seeded consensus :func:`ransac_estimate` when ``params.use_ransac``),
    then optionally refine with ICP on the clouds the feature sets were
    extracted from. Returns (transform mapping target onto source, the
    matched pairs, the :class:`IcpResult`, or None without ICP)."""
    corr = match(target_fs, source_fs, params)
    tf = ransac_estimate(corr, params.ransac) if params.use_ransac else estimate_transform(corr)
    refined = icp_refine(source, target, tf) if icp else None
    return (tf if refined is None else refined.transform), corr, refined


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
    time (:func:`extract_pair`). The report's ``inlier_pairs`` counts the
    matched pairs within ``params.ransac.inlier_radius`` under the final
    transform, with or without RANSAC; ``icp_converged`` is ICP's
    ``converged`` flag (False without ICP). :func:`format_report` leaves
    both out.
    """
    t0 = time.perf_counter()
    rng = seeded_rng(seed)
    target_fs, source_fs = extract_pair(model, target, source, int(rng.integers(2**63)))
    tf, corr, refined = register_features(target_fs, source_fs, source, target, params, icp)
    aligned = align_inverse(source, tf)
    angles, gimbal = matrix_to_euler_xyz(tf.rotation)
    res = _residuals(corr, tf.rotation, tf.translation)
    inl = res[res < params.ransac.inlier_radius]
    mean_residual = float(inl.mean()) if params.use_ransac and inl.size else float(res.mean())
    report = {
        "convention": "transform maps target onto source: p_source ~ R @ p_target + t",
        "rotation": tf.rotation,
        "translation": tf.translation,
        "euler_deg": angles,
        "gimbal_lock": gimbal,
        "candidate_pairs": len(target_fs),
        "matched_pairs": len(corr),
        "inlier_pairs": int(inl.size),
        "mean_residual": mean_residual,
        "used_ransac": params.use_ransac,
        "used_ratio_test": params.use_ratio_test,
        "icp_iterations": 0 if refined is None else refined.iterations,
        "icp_converged": refined is not None and refined.converged,
        "runtime_s": time.perf_counter() - t0,
    }
    return tf, aligned, report


def format_report(report: dict) -> str:
    """Render a register() report as a transform file with extra keys.

    Its rotation and translation lines are a transform file's own
    (:func:`rpointhop.cloud._transform_lines`), so the output is loadable
    by :func:`rpointhop.cloud.load_transform`, which skips the rest.
    """
    lines = [
        f"# {report['convention']}",
        *_transform_lines(report["rotation"], report["translation"]),
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


def geodesic_error(r_pred: np.ndarray, r_gt: np.ndarray) -> float:
    """Angle in degrees of R_pred @ R_gt.T, taken with atan2 of twice its
    sine and twice its cosine, so it stays accurate near 0 and 180 degrees.
    Unlike :func:`rotation_error` it is well conditioned at |ty| = 90."""
    e = np.asarray(r_pred, dtype=np.float64) @ np.asarray(r_gt, dtype=np.float64).T
    axis = (e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1])
    return math.degrees(math.atan2(math.hypot(*axis), float(np.trace(e)) - 1.0))


def translation_error(t_pred: np.ndarray, t_gt: np.ndarray) -> np.ndarray:
    """Per-component signed differences."""
    return np.asarray(t_pred, dtype=np.float64) - np.asarray(t_gt, dtype=np.float64)
