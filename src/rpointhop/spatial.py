"""Exact k-nearest-neighbor queries and farthest point sampling.

Both operations define a strict tie rule so results are reproducible:
neighbors are ordered by ascending squared Euclidean distance with ties
broken by ascending point index, and farthest point sampling breaks
max-distance ties by ascending index.

Neighbor queries search a k-d tree, but the tree only proposes candidates;
the answer is decided by the rule above on squared distances recomputed
here as ``einsum`` over ``q - p``, the arithmetic of a brute-force scan.
For each query row the tree returns its k + 1 nearest candidates, which
are re-ranked by (recomputed d², index). A row is settled when k is the
whole index or its k-th d² is below the (k+1)-th by a relative gap of
1e-9, far above the few-ulp rounding difference between the tree's
distances and ours, so no point outside the candidates can belong in the
first k. Every other row has a tie or near-tie across the k boundary and
is re-resolved exactly: a ball query just past its k-th distance returns
every point that can belong in the first k, and those are ranked by the
same rule. Indices and distances therefore equal a full stable sort of
brute-force distances, bit for bit.
"""

from __future__ import annotations

import os
import threading

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud

_GAP = 1e-9  # relative d² gap across the k boundary that settles a row

# Farthest point sampling makes about seven small numpy calls per pick, and
# each one releases and retakes the GIL. Two threads sampling at once hand
# the GIL back and forth on every call and take longer together than one
# after the other, so samplers take turns. The lock is held across a fork,
# so a child never inherits it locked.
_SAMPLING = threading.Lock()
os.register_at_fork(
    before=_SAMPLING.acquire, after_in_parent=_SAMPLING.release, after_in_child=_SAMPLING.release
)


def _as_points(obj) -> np.ndarray:
    coords = obj.coords if isinstance(obj, PointCloud) else np.asarray(obj, dtype=np.float64)
    coords = np.atleast_2d(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinates, got {coords.shape}")
    return coords


class KnnIndex:
    """Read-only neighbor index over a fixed set of points.

    Thread-safe for concurrent queries (queries never mutate the index).
    Points and queries must be finite (``ValueError`` otherwise).
    """

    def __init__(self, points) -> None:
        self.points = np.ascontiguousarray(_as_points(points))
        self.points.setflags(write=False)
        self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def _ranked(self, q: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidates (M, C) of queries (M, 3) and their d², each row
        ordered by (d², index)."""
        diff = np.take(self.points, cand, axis=0)
        np.subtract(q[:, None, :], diff, out=diff)
        d2 = np.einsum("mkc,mkc->mk", diff, diff)
        order = np.argsort(d2, axis=1, kind="stable")
        cand, d2 = np.take_along_axis(cand, order, axis=1), np.take_along_axis(d2, order, axis=1)
        tied = np.flatnonzero((d2[:, 1:] == d2[:, :-1]).any(axis=1))
        if tied.size:  # equal d² keep the tree's order; put them in index order
            order = np.lexsort((cand[tied], d2[tied]))
            cand[tied] = np.take_along_axis(cand[tied], order, axis=1)
            d2[tied] = np.take_along_axis(d2[tied], order, axis=1)
        return cand, d2

    def query(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest points for each query row.

        Returns (indices, distances), each of shape (M, k) for (M, 3) input
        or (k,) for a single query point. The query point itself is a valid
        neighbor when it belongs to the indexed set (distance 0 first).
        """
        q = np.asarray(queries, dtype=np.float64)
        single = q.ndim == 1
        q = np.atleast_2d(q)
        if q.shape[1] != 3:
            raise ValueError(f"queries must be (M, 3), got {q.shape}")
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for index of {n} points")
        width = min(k + 1, n)
        _, cand = self._tree.query(q, k=width)
        idx, d2 = self._ranked(q, cand.reshape(q.shape[0], width).astype(np.intp, copy=False))
        if k < n:
            unsettled = np.flatnonzero(d2[:, k - 1] >= d2[:, k] * (1.0 - _GAP))
            if unsettled.size:
                radii = np.nextafter(np.sqrt(d2[unsettled, k - 1]) * (1.0 + _GAP), np.inf)
                balls = self._tree.query_ball_point(q[unsettled], radii)
                for row, ball in zip(unsettled, balls):
                    ball_idx, ball_d2 = self._ranked(q[row : row + 1], np.array([ball], dtype=np.intp))
                    idx[row, :k] = ball_idx[0, :k]
                    d2[row, :k] = ball_d2[0, :k]
        idx = np.ascontiguousarray(idx[:, :k])
        dist = np.sqrt(d2[:, :k])
        if single:
            return idx[0], dist[0]
        return idx, dist


def fps_indices(points, m: int, start: int = 0) -> np.ndarray:
    """Greedy farthest point sampling over raw coordinates.

    Repeatedly picks the unselected point maximizing the distance to the
    selected set; ties resolve to the lowest index (argmax returns the first
    maximum). No index is picked twice: once only duplicates of selected
    points remain, every distance is 0 and the lowest unselected index wins.

    The first m' picks of an m-point run are the m'-point run, and running
    the sampler again on ``points[fps_indices(points, m)]`` from start 0
    returns a prefix of ``arange(m)``: nested sampling is one ordering cut
    at each budget.

    The squared distance to pick j is ``(dx² + dz²) + dy²``, with
    ``dx = x - x[j]`` and so on, added in that order from the rows of one
    (3, n) array holding x, z and y contiguously. That is what
    ``einsum("nc,nc->n", d, d)`` gives over ``d = coords - coords[j]``, bit
    for bit, so the picks and their ties are those of the ``einsum`` form.
    """
    coords = _as_points(points)
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"cannot sample {m} points from {n}")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for {n} points")
    xzy = coords.T[[0, 2, 1]]  # a C-ordered copy
    terms = np.empty((3, n))
    x_term, z_term, y_term = terms
    d2, min_d2 = np.empty(n), np.full(n, np.inf)
    selected = np.empty(m, dtype=np.intp)
    selected[0] = start
    with _SAMPLING:
        for i in range(1, m):
            last = selected[i - 1]
            np.subtract(xzy, xzy[:, last : last + 1], out=terms)
            np.multiply(terms, terms, out=terms)
            np.add(x_term, z_term, out=d2)
            d2 += y_term
            np.minimum(min_d2, d2, out=min_d2)
            min_d2[last] = -1.0  # below every distance, and np.minimum keeps it there
            selected[i] = np.argmax(min_d2)
    return selected
