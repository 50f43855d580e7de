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
from rpointhop.cloud import PointCloud, normalize_unit_sphere
from rpointhop.pipeline import FeatureSet, _OctantMeans, _grow_hop, _start_runs
from rpointhop import registration
from rpointhop.registration import (
    CorrespondenceSet,
    IcpResult,
    MatchParams,
    _nearest_two,
)
from rpointhop.saab import (
    _EIG_CUTOFF,
    STATUS_DISCARDED,
    STATUS_OUTPUT,
    FeatureTree,
    SaabLayer,
    SampleMoments,
    freeze_hop,
    saab_apply,
)
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


def knn_einsum_oracle(points: np.ndarray, queries: np.ndarray, k: int):
    """Brute-force scan in ``KnnIndex``'s arithmetic: every query's d² to
    every point as ``einsum`` over ``q - p``, then a full stable sort, so
    equal d² keep ascending index. Returns (M, k) indices and distances."""
    diff = queries[:, None, :] - points[None, :, :]
    d2 = np.einsum("mkc,mkc->mk", diff, diff)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(d2, order, axis=1))


def off_lattice_points(seed: int, n: int = 160, copies: int = 24) -> np.ndarray:
    """``normal`` points rounded to 0.1, with ``copies`` rows copied in and
    the whole shuffled: d² are inexact, so near-ties round either way, and
    the copies tie exactly."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)).round(1)
    pts = np.vstack([pts, pts[rng.integers(0, n, size=copies)]])
    return pts[rng.permutation(len(pts))]


def fps_oracle(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min selection over the points not yet selected;
    max-distance ties go to the lowest index. Squares add as
    ``(dx² + dy²) + dz²``, so where they round, near-ties can break
    differently than in ``fps_indices``; on exact inputs the picks agree."""
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


def _dense_inputs(x: np.ndarray | _OctantMeans, values: np.ndarray | None = None) -> np.ndarray:
    """The (P, N, C) Saab inputs of one cloud, whole: hop 1's inputs are
    dense already, a later hop's are materialized from their operator of
    ``values``."""
    if isinstance(x, _OctantMeans):
        return x.dense(values)
    return x


def moments_oracle(x: np.ndarray | _OctantMeans, values: np.ndarray | None = None) -> SampleMoments:
    """The former ``pipeline._moments``: one cloud's whole dense inputs
    (a copy of hop 1's, a later hop's operator of ``values``), centered in
    place, and the full covariance by one ``einsum``."""
    # a copy: centering below is in place, and hop 1's plan apply reads x afterwards
    a = x.dense(values) if isinstance(x, _OctantMeans) else x.copy()
    max_sq_norm = np.einsum("pnc,pnc->pc", a, a).max(axis=0)
    mean = a.mean(axis=0)
    a -= mean
    cov = np.einsum("pnc,pmc->cnm", a, a) / len(a)
    return SampleMoments(len(a), mean.T, cov, max_sq_norm)


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


def live_node_ids(tree) -> set[int]:
    """The outputs and every node but the root that an output descends
    from, by walking up from each output."""
    live = set()
    for node in tree.nodes:
        if node.status == STATUS_OUTPUT:
            i = node.node_id
            while i > 0 and i not in live:
                live.add(i)
                i = tree.nodes[i].parent
    return live


def forward_plans(model) -> tuple:
    """Training's plans of ``model``: each hop frozen as the tree grows,
    keeping every survivor, live or not."""
    tree = FeatureTree()
    hops = ({0: model.hop1_layer}, *model.later_hops)
    parent_ids, plans = [0], []
    for h, layers in enumerate(hops):
        children = _grow_hop(tree, layers, parent_ids, model.config.energy_threshold, h == len(hops) - 1)
        plans.append(freeze_hop(tree, layers, parent_ids, children))
        parent_ids = children
    return tuple(plans)


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
    """The seeded consensus one hypothesis at a time. Second-order
    compatibility is a float product, exact here since C holds 0/1 and its
    sums stay far below 2**53. The 32 pairs of largest S row sum, ties to
    the lower index, are the seeds; each grows its group of 11 in a plain
    loop, taking the pair of largest S[seed, j], ties to the lower index,
    among the pairs compatible with every pair held, and fills the rest
    with itself.
    Each group is fitted with ``estimate_transform``, scored, and kept when
    it has more inliers, or as many with a lower inlier RMSE, than the best
    so far. Refits on the best hypothesis's inliers."""
    m = len(corr)
    if m < 3:
        raise EstimationError(f"need at least 3 pairs, got {m}")
    separation_gap = np.abs(
        cdist(corr.target_coords, corr.target_coords) - cdist(corr.source_coords, corr.source_coords)
    )
    compatible = separation_gap < 2.0 * params.inlier_radius
    c = compatible.astype(float)
    support = (c @ c) * c
    row_sums = support.sum(axis=1)
    seeds = sorted(range(m), key=lambda i: (-row_sums[i], i))[:32]
    best_count = 0
    best_rmse = np.inf
    best_inliers = None
    for seed in seeds:
        group = [seed]
        while len(group) < 11:
            fits_all = compatible[:, group].all(axis=1)
            candidates = [j for j in range(m) if j not in group and fits_all[j]]
            if not candidates:
                break
            group.append(max(candidates, key=lambda j: (support[seed, j], -j)))
        group += [seed] * (11 - len(group))
        try:
            tf = estimate_transform(corr.take(np.asarray(group)))
        except EstimationError:
            continue  # degenerate group; try the next seed
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
        raise EstimationError("no RANSAC hypothesis produced 3 or more inliers")
    return estimate_transform(corr.take(best_inliers))


def compose(first: RigidTransform, then: RigidTransform) -> RigidTransform:
    """The transform that applies ``first``, then ``then``."""
    return RigidTransform(then.rotation @ first.rotation, then.rotation @ first.translation + then.translation)


def icp_oracle(source: PointCloud, target: PointCloud, initial: RigidTransform) -> IcpResult:
    """Point-to-point ICP that searches every moved target point's nearest
    source point on every iteration (``KnnIndex.query(moved, 1)``) and
    re-estimates through ``CorrespondenceSet``, ``estimate_transform`` and
    :func:`compose`. Reads the stop constants from the module at call time,
    so a test that patches them patches both."""
    index = KnnIndex(source.coords)
    current = initial
    residuals: list[float] = []
    converged = False
    for _ in range(registration.ICP_MAX_ITERS):
        moved = target.coords @ current.rotation.T + current.translation
        nbr_idx, dist = index.query(moved, 1)
        residuals.append(float(dist[:, 0].mean()))
        if len(residuals) >= 2 and abs(residuals[-2] - residuals[-1]) < registration.ICP_TOL:
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
        keep = dist[:, 0] <= median + registration.X84_MADS * np.median(np.abs(dist[:, 0] - median))
        try:
            delta = estimate_transform(nearest.take(keep))
        except EstimationError:
            break  # degenerate pairing; keep the current transform
        current = compose(current, delta)
    return IcpResult(
        transform=current,
        residuals=tuple(residuals),
        iterations=len(residuals),
        converged=converged,
    )


def assert_same_icp(got: IcpResult, want: IcpResult) -> None:
    """Equal bit for bit: transform bytes, residuals, iterations, flag."""
    assert got.transform.rotation.tobytes() == want.transform.rotation.tobytes()
    assert got.transform.translation.tobytes() == want.transform.translation.tobytes()
    assert np.asarray(got.residuals).tobytes() == np.asarray(want.residuals).tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged


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
    (run,) = _start_runs([normalize_unit_sphere(cloud).coords], config, [0], fit=fit)
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
