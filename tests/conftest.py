"""Shared fixtures and independent reference implementations (oracles).

The oracles here are deliberately written as plain loops, separate from the
library's vectorized code paths, so that agreement between the two is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rpointhop import (
    EstimationError,
    HopConfig,
    MatchingError,
    ModelConfig,
    RigidTransform,
    estimate_transform,
    train,
)
from rpointhop.bench import make_shape_corpus
from rpointhop.cloud import normalize_unit_sphere
from rpointhop.pipeline import FeatureSet, _HopRun
from rpointhop.registration import (
    RANSAC_SAMPLE_SIZE,
    CorrespondenceSet,
    MatchParams,
    _consistent_samples,
    _nearest_two,
)
from rpointhop.saab import _EIG_CUTOFF, STATUS_DISCARDED, SaabLayer, saab_apply
from rpointhop.spatial import KnnIndex


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def knn_oracle(points: np.ndarray, query: np.ndarray, k: int):
    """Brute-force scan: ascending distance, ties by ascending index."""
    d2 = []
    for j in range(points.shape[0]):
        dx = points[j, 0] - query[0]
        dy = points[j, 1] - query[1]
        dz = points[j, 2] - query[2]
        d2.append(dx * dx + dy * dy + dz * dz)
    order = sorted(range(len(d2)), key=lambda j: (d2[j], j))[:k]
    return np.asarray(order, dtype=np.intp), np.sqrt(np.asarray([d2[j] for j in order]))


def fps_oracle(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min selection over the points not yet selected;
    max-distance ties go to the lowest index."""
    n = points.shape[0]
    selected = [start]
    min_d2 = np.empty(n)
    for j in range(n):
        d = points[j] - points[start]
        min_d2[j] = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    for _ in range(1, m):
        best, best_d2 = -1, -1.0
        for j in range(n):
            if j not in selected and min_d2[j] > best_d2:  # strict: ties keep the lower index
                best, best_d2 = j, min_d2[j]
        selected.append(best)
        for j in range(n):
            d = points[j] - points[best]
            d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
            if d2 < min_d2[j]:
                min_d2[j] = d2
    return np.asarray(selected, dtype=np.intp)


def pca_oracle(neighbors: np.ndarray):
    """One neighborhood's frame: the population covariance of its centered
    points by plain sums, then the eigenvectors as rows and the
    eigenvalues, both by descending eigenvalue."""
    k = len(neighbors)
    mean = [sum(p[c] for p in neighbors) / k for c in range(3)]
    cov = np.zeros((3, 3))
    for p in neighbors:
        d = [p[c] - mean[c] for c in range(3)]
        for i in range(3):
            for j in range(3):
                cov[i, j] += d[i] * d[j]
    w, v = np.linalg.eigh(cov / k)
    return v[:, ::-1].T, w[::-1]


def sign_oracle(values: np.ndarray):
    """One-sided moment sign rule on one axis's projected values: split at
    the median (the average of the middles for even counts) and compare the
    absolute-deviation mass below and above it. Returns (+1.0 when the
    mass above is larger, else -1.0; |below - above|)."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    med = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2
    below = sum(med - v for v in vals if v < med)
    above = sum(v - med for v in vals if v > med)
    return (1.0 if below < above else -1.0), abs(below - above)


def octant_oracle(proj: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(P, 8, C) per-octant means of (P, k, C) per-neighbor ``values`` by a
    batched product of the transposed (P, 8, k) one-hot octant indicator
    with the values; octant id 4*(x<0) + 2*(y<0) + (z<0) of the (P, k, 3)
    projections, empty octants zero."""
    oct_id = (proj[..., 0] < 0).astype(np.intp) * 4 + (proj[..., 1] < 0) * 2 + (proj[..., 2] < 0)
    onehot = np.eye(8, dtype=np.float64)[oct_id]
    sums = np.matmul(onehot.transpose(0, 2, 1), values)
    return sums / np.maximum(onehot.sum(axis=1), 1.0)[:, :, None]


def octant_loop_oracle(proj: np.ndarray, values: np.ndarray, nbr_idx: np.ndarray) -> np.ndarray:
    """(P, 8, C) per-octant means of the neighbors' rows of (N, C) ``values``
    by adding one neighbor column at a time into zeroed (P·8, C) sums, in
    neighbor order: the summation order ``_OctantMeans`` keeps bit for bit."""
    p, k = nbr_idx.shape
    slot = (np.arange(p) * 8)[:, None] + (
        (proj[..., 0] < 0).astype(np.intp) * 4
        + (proj[..., 1] < 0) * 2
        + (proj[..., 2] < 0)
    )
    sums = np.zeros((p * 8, values.shape[1]))
    for j in range(k):  # a column holds each row's slot once, so += adds every value
        sums[slot[:, j]] += values[nbr_idx[:, j]]
    counts = np.bincount(slot.ravel(), minlength=p * 8)
    return (sums / np.maximum(counts, 1)[:, None]).reshape(p, 8, -1)


def fps_einsum_oracle(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """The former ``fps_indices`` loop: per pick, the (n, 3) offsets from
    the picked point and their ``einsum`` squared norms, folded into the
    running minima; the first maximum is the next pick."""
    coords = np.asarray(points, dtype=np.float64)
    selected = np.empty(m, dtype=np.intp)
    selected[0] = start
    diff = coords - coords[start]
    min_d2 = np.einsum("nc,nc->n", diff, diff)
    min_d2[start] = -1.0  # below every distance, and np.minimum keeps it there
    for i in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        diff = coords - coords[nxt]
        np.minimum(min_d2, np.einsum("nc,nc->n", diff, diff), out=min_d2)
        min_d2[nxt] = -1.0
    return selected


def pca_gather_oracle(coords: np.ndarray, neighbor_idx: np.ndarray):
    """The former ``local_pca_batch``: (N, k, 3) neighbors, centered, and
    an ``einsum`` covariance. Returns (axes (N,3,3), eigenvalues (N,3))."""
    nbrs = coords[neighbor_idx]  # (N, k, 3)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / neighbor_idx.shape[1]
    w, v = np.linalg.eigh(cov)
    return np.swapaxes(v[:, :, ::-1], 1, 2).copy(), w[:, ::-1].copy()


def signs_median_oracle(proj: np.ndarray):
    """The former ``resolve_signs_batch`` body: ``np.median`` over k and
    ``np.where`` one-sided moments. Returns (flips (N,3), margins (N,3))."""
    med = np.median(proj, axis=1, keepdims=True)
    dev = proj - med
    m_left = np.where(proj < med, -dev, 0.0).sum(axis=1)
    m_right = np.where(proj > med, dev, 0.0).sum(axis=1)
    flips = np.where(m_left < m_right, 1.0, -1.0)
    return flips, np.abs(m_left - m_right)


def projection_einsum_oracle(coords: np.ndarray, nbr_idx: np.ndarray, axes: np.ndarray):
    """The former ``_project_neighbors``: (P, k, 3) offsets projected by
    ``einsum``, signs by :func:`signs_median_oracle`. Returns (proj,
    margins)."""
    rel = coords[nbr_idx] - coords[: len(nbr_idx), None, :]
    proj0 = np.einsum("pkc,pac->pka", rel, axes)
    flips, margins = signs_median_oracle(proj0)
    return proj0 * flips[:, None, :], margins


def plan_take_oracle(plan, x: np.ndarray) -> np.ndarray:
    """The former ``HopPlan.apply`` product: the batched matmul plus
    biases, transposed to (P, C, K), reshaped to (P, C·K), and the
    surviving slots taken."""
    c, _, k = plan.filters.shape
    xt = x.transpose(2, 0, 1)
    out = np.matmul(xt, plan.filters) + plan.biases[:, None, None]
    return np.take(out.transpose(1, 0, 2).reshape(len(x), c * k), plan.slots, axis=1)


def saab_fit_oracle(samples: np.ndarray) -> SaabLayer:
    """The former ``saab_fit``: the DC projection removed by an (S, N)
    outer product, centering into a new array, and the bias as
    ``np.linalg.norm`` of every sample."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be 2-D (S, N), got shape {x.shape}")
    s, n = x.shape
    if s < 2:
        raise ValueError("need at least 2 samples to fit a Saab layer")
    if not np.isfinite(x).all():
        raise ValueError("samples contain non-finite values")
    dc = np.full(n, 1.0 / np.sqrt(n))
    dc_coeffs = x @ dc
    ac = x - np.outer(dc_coeffs, dc)
    centered = ac - ac.mean(axis=0)
    cov = centered.T @ centered / s
    w, v = np.linalg.eigh(cov)
    w = w[::-1]
    v = v[:, ::-1]
    floor = max(w[0], 0.0) * _EIG_CUTOFF
    keep = min(int(np.count_nonzero(w > floor)), n - 1)
    dc_energy = float(dc_coeffs.var())
    ac_filters = v[:, :keep].T.copy()
    kept_energy = dc_energy + float(w[:keep].sum())
    if kept_energy <= 0.0:
        energies = np.zeros(1 + keep)
        energies[0] = 1.0
    else:
        energies = np.concatenate([[dc_energy], w[:keep]]) / kept_energy
    bias = float(np.linalg.norm(x, axis=1).max())
    return SaabLayer(dc_filter=dc, ac_filters=ac_filters, bias=bias, energies=energies)


def hop_oracle(tree, layers, parent_ids, x: np.ndarray):
    """One hop by walking the energy tree: ``saab_apply`` per parent on
    its samples ``x[:, :, c]``, then every surviving child's output column
    in node-id order. Returns (values (P, C'), surviving node ids)."""
    columns = {}
    for c, pid in enumerate(parent_ids):
        out = saab_apply(layers[pid], x[:, :, c])
        for node in tree.children(pid):
            if node.status != STATUS_DISCARDED:
                columns[node.node_id] = out[:, node.channel]
    ids = sorted(columns)
    if not ids:
        return np.empty((x.shape[0], 0)), ids
    return np.stack([columns[i] for i in ids], axis=1), ids


def feature_distance_matrix(target: FeatureSet, source: FeatureSet) -> np.ndarray:
    """(N_target, N_source) Euclidean distances between feature rows."""
    return cdist(target.features, source.features)


def match_oracle(target: FeatureSet, source: FeatureSet, params: MatchParams) -> CorrespondenceSet:
    """Matching in one serial pass: the full distance matrix, the library's
    ``_nearest_two`` over all of it, then the ratio and the two lexsort
    selections, ties on ascending target row."""
    if target.features.shape[1] != source.features.shape[1]:
        raise ValueError("feature widths differ; were these extracted with the same model?")
    dist = feature_distance_matrix(target, source)
    first, d1, d2 = _nearest_two(dist, source.neighbor_table)
    ratios = np.where(d2 > 0.0, d1 / np.where(d2 > 0.0, d2, 1.0), 1.0)
    n_target = dist.shape[0]
    if params.m1 > n_target:
        raise MatchingError(f"m1={params.m1} exceeds the {n_target} available target points")
    by_dist = np.lexsort((np.arange(n_target), d1))[: params.m1]
    if params.use_ratio_test:
        selected = by_dist[np.lexsort((by_dist, ratios[by_dist]))][: params.m2]
    else:
        selected = by_dist[: params.m2]
    return CorrespondenceSet(
        pairs=np.stack([selected, first[selected]], axis=1).astype(np.intp),
        target_coords=target.coords[selected],
        source_coords=source.coords[first[selected]],
        feature_distances=d1[selected],
        ratios=ratios[selected],
    )


def ransac_oracle(corr, params) -> RigidTransform:
    """RANSAC one hypothesis at a time: take the library's length-consistent
    samples, fit each with ``estimate_transform``, score it, and keep it
    when it has more inliers, or as many with a lower inlier RMSE, than the
    best so far. Refits on the best hypothesis's inliers."""
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
    best_inliers = None
    for pick in _consistent_samples(rng, compatible):
        try:
            tf = estimate_transform(corr.take(pick))
        except EstimationError:
            continue  # degenerate minimal sample; try the next one
        pred = corr.target_coords @ tf.rotation.T + tf.translation
        res = np.linalg.norm(pred - corr.source_coords, axis=1)
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


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def corpus_hop_tables(config: ModelConfig, fit: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """What each hop of ``config`` works on for one corpus cloud, in a fit
    or an extraction: per hop, (points, table), where ``points`` is the
    hop's prefix of the farthest-first working cloud and ``table`` holds
    one ``KnnIndex`` row per point the hop computes, ``max(k_lrf, k)``
    wide at hop 1 and k wide after."""
    cloud = make_shape_corpus(1, 1024, seed=0)[0]
    run = _HopRun(normalize_unit_sphere(cloud).coords, config, seed=0, fit=fit)
    hops = []
    for h, (hop, count) in enumerate(zip(config.hops, run.counts)):
        points = run.coords[: hop.num_points]
        width = max(config.k_lrf, hop.k_neighbors) if h == 0 else hop.k_neighbors
        hops.append((points, KnnIndex(points).query(points[:count], width)[0]))
    return hops


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

TINY_CONFIG = ModelConfig(
    hops=(HopConfig(192, 24), HopConfig(128, 16)),
    k_lrf=16,
    energy_threshold=0.001,
    seed=0,
)

# the acceptance gate's partial-overlap model: 75%-partial trials keep
# floor(0.75 * 1024) = 768 points, so the partial experiments need a model
# whose hop-1 budget fits inside the crop. Two hops keep the receptive fields
# small enough that a crop does not contaminate every feature.
PARTIAL_CONFIG = ModelConfig(
    hops=(HopConfig(768, 64), HopConfig(384, 32)),
    k_lrf=64,
    energy_threshold=0.001,
    seed=0,
)

# final hop keeps 256 points so the CLI's default correspondence count
# (m1 = 256) is satisfiable
CLI_CONFIG = ModelConfig(
    hops=(HopConfig(384, 24), HopConfig(256, 16)),
    k_lrf=24,
    energy_threshold=0.001,
    seed=0,
)


@pytest.fixture(scope="session")
def tiny_corpus():
    return make_shape_corpus(8, 256, seed=5)


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    return train(tiny_corpus, TINY_CONFIG)


@pytest.fixture(scope="session")
def cli_corpus():
    return make_shape_corpus(6, 512, seed=11)


@pytest.fixture(scope="session")
def cli_model(cli_corpus):
    return train(cli_corpus, CLI_CONFIG)
