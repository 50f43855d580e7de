"""Local reference frames with moment-based sign disambiguation, batched
over every point of a cloud.

:func:`local_pca_batch` gives each point an orthonormal frame (p, q, r)
from the eigenvectors of the covariance of its k nearest neighbors,
eigenvalues in descending order. An eigenvector's sign is arbitrary, so
:func:`resolve_signs_batch` disambiguates every axis against the
neighborhood: project the neighbors onto the axis, split them at the
median (the middle of the sorted projections, or the average of the two
middles for even k), and compare the total absolute deviation of the two
sides. The side with the larger mass fixes the positive direction. Frames
built this way rotate with the data: for a rigid copy of the neighborhood the
sign-resolved frame is the rotated sign-resolved frame, so coordinates
expressed in it are invariant to the motion (up to ties in the moment
comparison). :func:`geometric_features` turns the eigenvalues into the
covariance-shape attributes used as auxiliary hop-1 inputs.
"""

from __future__ import annotations

import numpy as np


def local_pca_batch(coords: np.ndarray, neighbor_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames for every row of ``neighbor_idx``: returns (axes (N,3,3),
    eigenvalues (N,3)). ``axes`` rows are unit eigenvectors sorted by
    descending eigenvalue. Population covariance (divide by k), so
    axes.T @ diag(eigenvalues) @ axes reconstructs the covariance.

    The neighbors are gathered neighbor-major, as (3, k, N), so the mean and
    every covariance entry add over k one (N,) row at a time in neighbor
    order: the sums of an ``einsum`` over (N, k, 3) neighbors, bit for bit."""
    k = neighbor_idx.shape[1]
    centered = np.take(np.array(coords.T), neighbor_idx.T, axis=1)
    centered -= centered.mean(axis=1, keepdims=True)
    cov = np.empty((len(neighbor_idx), 3, 3))
    for i in range(3):
        for j in range(i + 1):
            cov[:, i, j] = cov[:, j, i] = (centered[i] * centered[j]).sum(axis=0)
    w, v = np.linalg.eigh(cov / k)
    return np.swapaxes(v[:, :, ::-1], 1, 2).copy(), w[:, ::-1].copy()


def resolve_signs_batch(proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign resolution for neighbor projections of shape (N, k, 3).

    Per row and axis, +1 when the absolute-deviation mass above the median
    exceeds the mass below it, -1 otherwise (ties fall to -1). The median
    is the conventional one (the average of the middles for even k), which
    is exactly antisymmetric under negation, so an arbitrary eigenvector
    orientation cancels out whenever the two masses differ.

    The median is ``(s[(k-1)//2] + s[k//2]) / 2`` of the values ``s``
    sorted along k: the middle value itself for odd k, as ``np.median``
    gives. Each mass sums the one-sided deviations over k in neighbor
    order, one (3, N) slice at a time; that is fastest when ``proj`` is a
    (N, k, 3) view of neighbor-major (k, 3, N) memory, as
    ``pipeline._project_neighbors`` passes it, and C-ordered input gives
    the same bits.

    Returns (flips (N,3) of +-1, margins (N,3) = |left - right| moments);
    a margin near 0 means the sign is unstable.
    """
    k = proj.shape[1]
    values = proj.transpose(1, 2, 0)  # (k, 3, N)
    s = np.sort(values, axis=0)
    dev = values - (s[(k - 1) // 2] + s[k // 2]) / 2
    m_left = -np.minimum(dev, 0.0).sum(axis=0)
    m_right = np.maximum(dev, 0.0, out=dev).sum(axis=0)
    flips = np.where(m_left < m_right, 1.0, -1.0)
    return flips.T, np.abs(m_left - m_right).T


def geometric_features(eigenvalues: np.ndarray) -> np.ndarray:
    """(P, 4) linearity, planarity, sphericity and eigen-entropy rows from
    (P, 3) descending covariance eigenvalues.

    With normalized eigenvalues e_i = lam_i / sum(lam), negatives clipped
    to 0: linearity (e1-e2)/e1, planarity (e2-e3)/e1, sphericity e3/e1,
    entropy -sum e_i ln e_i with 0 ln 0 := 0. Degenerate all-zero rows
    come back as zeros.
    """
    lam = np.maximum(eigenvalues, 0.0)
    total = lam.sum(axis=1, keepdims=True)
    safe = np.where(total > 0.0, total, 1.0)
    e = lam / safe
    e1 = np.where(e[:, 0] > 0.0, e[:, 0], 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(e > 0.0, np.log(np.where(e > 0.0, e, 1.0)), 0.0)
    out = np.stack(
        [
            (e[:, 0] - e[:, 1]) / e1,
            (e[:, 1] - e[:, 2]) / e1,
            e[:, 2] / e1,
            -(e * logs).sum(axis=1),
        ],
        axis=1,
    )
    return np.where(total > 0.0, out, 0.0)
