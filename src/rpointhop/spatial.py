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

Farthest point sampling runs one loop over a whole (B, n, 3) stack of
clouds, a single cloud being the stack of one. Each pick costs a fixed
handful of numpy calls whatever B is, so sampling many clouds in one
stack pays the per-call overhead once per pick, not once per cloud and
pick. Each of those calls releases and retakes the GIL, so two threads
sampling one small cloud each would hand the GIL back and forth on nearly
every call and take longer together than one after the other. The
sampler needs no lock against that, because the pipeline never does it:
an extraction, or a registration's pair, samples on the calling thread
before its lanes split, and training samples its corpus as two
half-stacks, one per lane, whose calls each cover many clouds (about 77k
elements per call for 25 clouds of 1024 points), so the two lanes
together take no longer than the two halves one after the other. (The
half-stacks of a corpus of a few clouds are small, which costs only time.)
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_GAP = 1e-9  # relative margin, far above rounding, that settles a row (d² in query, distance in nearest)


def _as_points(obj) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(obj, dtype=np.float64))
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinates, got {coords.shape}")
    return coords


class KnnIndex:
    """Read-only neighbor index over a fixed set of points.

    Thread-safe for concurrent queries (queries never mutate the index).
    The index keeps its own copy of the points, so the caller's array stays
    writeable and later writes to it do not reach the index.
    Points and queries must be finite (``ValueError`` otherwise).

    Tracking: :meth:`nearest` answers ``query(queries, 1)`` for queries
    that move a little between calls, such as the moved target points of
    successive ICP iterations, and re-searches only the rows whose nearest
    point it cannot prove unchanged. Its results equal ``query`` bit for
    bit on every call.
    """

    def __init__(self, points) -> None:
        self.points = np.array(_as_points(points), order="C")
        self.points.setflags(write=False)
        self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def _ranked(self, q: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidates (M, C) of queries (M, 3) and their d², each row
        ordered by (d², index); ``cand`` is reordered in place."""
        diff = np.take(self.points, cand, axis=0)
        np.subtract(q[:, None, :], diff, out=diff)
        d2 = np.einsum("mkc,mkc->mk", diff, diff)
        rows = np.flatnonzero((d2[:, 1:] <= d2[:, :-1]).any(axis=1))
        if rows.size:  # a row whose d² strictly increases is already in order
            order = np.lexsort((cand[rows], d2[rows]))
            cand[rows] = np.take_along_axis(cand[rows], order, axis=1)
            d2[rows] = np.take_along_axis(d2[rows], order, axis=1)
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

    def nearest(self, queries, held: tuple | None = None) -> tuple[np.ndarray, np.ndarray, tuple]:
        """``query(queries, 1)`` for (M, 3) queries, bit for bit, plus
        ``held``: what the next call on the same M rows needs to skip their
        tree search. Returns (indices (M, 1), distances (M, 1), held).

        ``held`` keeps, per row, the anchor (the query at which the row was
        last searched), its nearest point p and L, the exact distance from
        the anchor to its second-nearest point (+inf for a 1-point index),
        so no point other than p lies closer to the anchor than L. A query
        that drifted by s from its anchor is then at least L - s from every
        point other than p (triangle inequality), so p stays nearest when
        ``d + s < L * (1 - 1e-9)``, d being the query's distance to p
        computed by ``query``'s own arithmetic. Both sides are sums of
        non-negative terms, so the margin stays far above their rounding
        and no tie can hide in it. Every other row is searched again
        (``query(q, 2)``) and becomes its own anchor. Pass ``held=None``
        to search every row; the arrays of a ``held`` are never written.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != 3:
            raise ValueError(f"queries must be (M, 3), got {q.shape}")
        if held is None:
            anchor, near = np.empty_like(q), np.empty(len(q), dtype=np.intp)
            bound, dist = np.empty(len(q)), np.empty(len(q))
            rows = np.arange(len(q))
        else:
            if len(held[0]) != len(q):
                raise ValueError(f"held tracks {len(held[0])} rows, got {len(q)} queries")
            anchor, near, bound = (a.copy() for a in held)
            _, d2 = self._ranked(q, near[:, None].copy())
            dist = np.sqrt(d2[:, 0])
            drift = np.sqrt(np.einsum("mc,mc->m", q - anchor, q - anchor))
            rows = np.flatnonzero(dist + drift >= bound * (1.0 - _GAP))
        if rows.size:
            width = min(2, len(self))
            idx, found = self.query(q[rows], width)
            anchor[rows], near[rows], dist[rows] = q[rows], idx[:, 0], found[:, 0]
            bound[rows] = found[:, 1] if width == 2 else np.inf
        return near[:, None], dist[:, None], (anchor, near.copy(), bound)


def fps_indices(points, m: int, start: int = 0) -> np.ndarray:
    """Greedy farthest point sampling over raw coordinates.

    Repeatedly picks the unselected point maximizing the distance to the
    selected set; ties resolve to the lowest index (argmax returns the first
    maximum). No index is picked twice: once only duplicates of selected
    points remain, every distance is 0 and the lowest unselected index wins.

    ``points`` is one (n, 3) cloud, which gives (m,) picks, or a (B, n, 3)
    stack of clouds, which gives (B, m): row b is cloud b's own run, bit
    for bit, every cloud starting at ``start``. B may be 0.

    The first m' picks of an m-point run are the m'-point run, and running
    the sampler again on ``points[fps_indices(points, m)]`` from start 0
    returns a prefix of ``arange(m)``: nested sampling is one ordering cut
    at each budget.

    The squared distance to pick j is ``(dx² + dz²) + dy²``, with
    ``dx = x - x[j]`` and so on: the squared offsets sit in one (B, 3, n)
    array holding x, z and y rows contiguously, and ``np.add.reduce`` over
    its middle axis adds them in that order. That is what
    ``einsum("nc,nc->n", d, d)`` gives over ``d = coords - coords[j]``, bit
    for bit, so the picks and their ties are those of the ``einsum`` form.
    """
    coords = np.asarray(points, dtype=np.float64)
    stacked = coords.ndim == 3
    if stacked and coords.shape[2] != 3:
        raise ValueError(f"expected (B, N, 3) coordinates, got {coords.shape}")
    stack = coords if stacked else _as_points(coords)[None]
    b, n, _ = stack.shape
    if not 1 <= m <= n:
        raise ValueError(f"cannot sample {m} points from {n}")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for {n} points")
    xzy = np.ascontiguousarray(stack.transpose(0, 2, 1)[:, [0, 2, 1]])  # (B, 3, n)
    # point i of cloud c as a (3, 1) column at row ``base[c] + i``
    columns = np.ascontiguousarray(xzy.transpose(0, 2, 1)).reshape(b * n, 3, 1)
    base = np.arange(b) * n
    terms = np.empty((b, 3, n))
    d2, min_d2 = np.empty((b, n)), np.full((b, n), np.inf)
    flat_min = min_d2.reshape(-1)
    selected = np.empty((b, m), dtype=np.intp)
    selected[:, 0] = start
    last = base + start
    for i in range(1, m):
        np.subtract(xzy, columns.take(last, axis=0), out=terms)
        np.multiply(terms, terms, out=terms)
        np.add.reduce(terms, axis=1, out=d2)
        np.minimum(min_d2, d2, out=min_d2)
        flat_min[last] = -1.0  # below every distance, and np.minimum keeps it there
        pick = min_d2.argmax(axis=1)
        selected[:, i] = pick
        last = base + pick
    return selected if stacked else selected[0]
