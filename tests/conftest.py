"""Shared fixtures and independent reference implementations (oracles).

The oracles here are deliberately written as plain loops, separate from the
library's vectorized code paths, so that agreement between the two is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

import numpy as np
import pytest

from rpointhop import HopConfig, ModelConfig, train
from rpointhop.bench import make_shape_corpus
from rpointhop.saab import STATUS_DISCARDED, saab_apply


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


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

TINY_CONFIG = ModelConfig(
    hops=(HopConfig(192, 24), HopConfig(128, 16)),
    k_lrf=16,
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
