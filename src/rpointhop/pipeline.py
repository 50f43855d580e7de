"""Multi-hop feature learning pipeline.

Training (unsupervised, one pass per hop):

1. Each corpus cloud is unit-sphere normalized and sampled down to the
   hop-1 point budget, in corpus order. Farthest point sampling then picks
   the hop-2 budget from every sample in two calls, one over each half of
   the stacked samples, one half per lane; each cloud's picks are those of
   its own run. Every retained point gets a local reference frame
   (computed once, on this working cloud, and reused at all hops with
   signs re-resolved per hop against the hop's own neighborhood).
2. Hop 1 builds a 24-wide attribute per point: project the point's k
   nearest neighbors into its sign-resolved frame, split them into the 8
   octants (fixed order +++ , ++- , +-+ , +-- , -++ , -+- , --+ , ---,
   where "+" means coordinate >= 0), and concatenate the per-octant mean
   projected coordinates; empty octants contribute zeros.
3. Hops 2..H first shrink the working cloud by farthest point sampling,
   then build an 8-wide attribute per point and surviving channel: the
   per-octant means of the neighbors' channel value. Each channel is fit
   with its own Saab transform (channel-wise). Training holds each cloud's
   means as the octant-sum operator's sparsity pattern alone, without the
   values it averages: it keeps hop 1's inputs at hop 2's rows and each
   later hop's operator, rebuilds a hop's values from them through the
   plans of the hops before it, makes the means dense only a block of
   channels at a time, and drops the rebuilt values with their moments.
   Sampling runs once per cloud, and the hop-1 working cloud is
   stored in farthest point order, so hop h's points are its first n_h
   rows: exactly what sampling each hop from the previous one gives.
4. Channel energies multiply down a :class:`~rpointhop.saab.FeatureTree`;
   channels at or below the energy threshold are dropped together with
   their descendants. Survivors at the last hop are the output feature
   dimensions. The tree follows from the layers' energies and the threshold
   alone, so a model derives it from its layers by the same steps
   (:func:`_grow_hop`), and a model file whose stored tree disagrees is
   rejected (:mod:`rpointhop.modelfile`).

Hop 1 is the one-channel case of steps 3-4, with the tree's root as its
only parent, so every hop is fit, pruned and frozen into a
:class:`~rpointhop.saab.HopPlan` the same way. A fit reads the corpus only
as per-channel :class:`~rpointhop.saab.SampleMoments`: each lane reduces
one cloud's inputs (:func:`_moments`), merged then in corpus order.

Extraction runs the same geometry with the frozen plans, applied as
training applies its plans (:func:`_apply_blocks`, which cuts each plan
into blocks of channels itself), and returns
one feature row per final-hop point. Hop h + 1 keeps the first n_{h+1}
rows of hop h, so hop h computes frames, signs, octant means and plan
outputs only at that prefix. A model's plans keep only live channels, the
final hop's outputs and their ancestors, so extraction computes octant
means and Saab outputs for no channel that the features do not read;
training's plans carry every survivor forward, because liveness is known
only once the last hop is pruned. Training and extraction both read hop
2's neighbor rows off hop 1's exact neighbor table where it holds them, and
query a tree only for the rest. Each row carries the point's index into the
input cloud, its input coordinates, and degeneracy diagnostics (minimum
sign-disambiguation margin seen across hops, minimum LRF eigenvalue gap).
Features are invariant to rigid motions of the input up to sign ties,
because every quantity is expressed in the per-point resolved frames.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array

from .cloud import PointCloud, normalize_unit_sphere, sample_indices, seeded_rng
from .config import HopConfig, ModelConfig
from .lrf import local_pca_batch, resolve_signs_batch
from .saab import (
    STATUS_DISCARDED,
    FeatureTree,
    HopPlan,
    SaabLayer,
    SampleMoments,
    freeze_hop,
    propagate_energy,
    saab_apply,  # noqa: F401 - not called here; perfbench/spans.py traces it by this module path
    saab_fit,
)
from .spatial import KnnIndex, fps_indices


class TrainingError(RuntimeError):
    """Training cannot proceed (empty corpus, all channels pruned, ...)."""


class CloudTooSmallError(ValueError):
    """A cloud has fewer points than the model's hop-1 budget."""


def _grow_hop(
    tree: FeatureTree, layers: dict[int, SaabLayer], parent_ids: list[int], threshold: float, final: bool
) -> list[int]:
    """Append the hop below ``parent_ids`` to ``tree``, pruned by the layers'
    energies and ``threshold``; training and :class:`RPointHopModel` both
    grow their trees this way. Returns the surviving children's node ids."""
    if sorted(layers) != parent_ids:
        raise ValueError(
            f"layers below nodes {sorted(layers)} do not match the surviving parents {parent_ids}"
        )
    first = len(tree.nodes)
    propagate_energy(tree, {pid: layers[pid].energies for pid in parent_ids}, threshold, final=final)
    return [n.node_id for n in tree.nodes[first:] if n.status != STATUS_DISCARDED]


@dataclass(frozen=True)
class RPointHopModel:
    """Frozen result of training: the hop-1 joint Saab layer and the
    per-node channel-wise layers of later hops.

    On construction the pruned energy ``tree`` is derived from the layers'
    energies and the config's threshold, and each hop is frozen into one
    :class:`~rpointhop.saab.HopPlan` of ``plans``, from the last hop back:
    the final plan keeps the outputs, and each earlier plan keeps the
    parents of the channels the next plan keeps. So the plans keep only live
    channels, the outputs and their ancestors: a channel none of whose
    descendants survives the last hop feeds no feature, and extraction
    neither averages nor transforms it.
    Layers that do not form a model (parents without a layer, layers
    without a parent, wrong input widths, no surviving channel) raise
    ValueError there.
    """

    config: ModelConfig
    hop1_layer: SaabLayer
    later_hops: tuple[dict[int, SaabLayer], ...]
    tree: FeatureTree = field(init=False, repr=False, compare=False)
    plans: tuple[HopPlan, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hops = ({0: self.hop1_layer}, *self.later_hops)
        if len(hops) != len(self.config.hops):
            raise ValueError(f"{len(hops)} hops of layers for {len(self.config.hops)} configured hops")
        tree = FeatureTree()
        parent_ids = [0]
        for h, layers in enumerate(hops):
            final = h == len(hops) - 1
            parent_ids = _grow_hop(tree, layers, parent_ids, self.config.energy_threshold, final)
            if not parent_ids:
                raise ValueError(f"no channel survives hop {h + 1}")
        plans, kept_ids = [], parent_ids  # the final hop's survivors: the outputs
        for h in reversed(range(len(hops))):
            parent_ids = sorted({tree.nodes[i].parent for i in kept_ids})
            plans.append(freeze_hop(tree, hops[h], parent_ids, kept_ids))
            width = plans[-1].filters.shape[1]
            if width != (8 if h else 24):
                raise ValueError(f"hop {h + 1} layers take {width}-wide inputs")
            kept_ids = parent_ids
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "plans", tuple(reversed(plans)))

    @property
    def feature_dim(self) -> int:
        return self.tree.output_dim()


@dataclass(frozen=True)
class FeatureSet:
    """Features of the final-hop points of one cloud.

    ``point_indices`` index into the cloud that was passed to
    :func:`extract_features`; ``coords`` are that cloud's coordinates at
    those indices. ``sign_margins`` and ``eigen_gaps`` are per-point
    degeneracy diagnostics: points with a tiny sign margin or eigenvalue
    gap have unstable frames and their features need not be invariant.
    ``neighbor_table`` row i lists the rows of this set that form point i's
    final-hop spatial neighborhood; matching takes the ratio test's second
    neighbor from outside it.
    """

    point_indices: np.ndarray
    coords: np.ndarray
    features: np.ndarray
    sign_margins: np.ndarray
    eigen_gaps: np.ndarray
    neighbor_table: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.point_indices)
        if not (
            n == len(self.coords) == len(self.features)
            == len(self.sign_margins) == len(self.eigen_gaps)
        ):
            raise ValueError("feature set arrays must have one row per point")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        table = np.asarray(self.neighbor_table)
        if table.ndim != 2 or table.shape[0] != n:
            raise ValueError("neighbor table must have one row per point")
        if not np.issubdtype(table.dtype, np.integer):
            raise ValueError("neighbor table must hold integer row indices")
        if table.size and (table.min() < 0 or table.max() >= n):
            raise ValueError("neighbor table indices must lie in [0, number of points)")
        object.__setattr__(self, "neighbor_table", table)

    def __len__(self) -> int:
        return len(self.point_indices)


# ---------------------------------------------------------------------------
# two lanes
# ---------------------------------------------------------------------------


def _two_lanes(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``: the even-indexed items run on the calling
    thread and the odd-indexed ones on one worker thread per call, in input
    order; numpy releases the GIL in its heavy kernels, so the two overlap.
    The worker starts on the first submit and is joined before the call
    returns, so no thread outlives a call for a forked child to lose.

    The items must be independent, and ``fn`` must not use the lanes itself.
    When items fail, the earliest one's exception is raised, once the worker's
    jobs are cancelled or finished.
    """
    items = list(items)
    lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rpointhop-lane")
    try:
        jobs = [lane.submit(fn, x) for x in items[1::2]]
        return [jobs[i // 2].result() if i % 2 else fn(x) for i, x in enumerate(items)]
    finally:
        lane.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# attribute construction
# ---------------------------------------------------------------------------


class _OctantMeans:
    """The operator of (P, 8, C) per-octant means over the rows of (N, C)
    values: row i averages ``values[nbr_idx[i]]`` by octant, octants taken
    from the (P, k, 3) projected neighbors; empty octants give zeros. It
    holds no values: :meth:`dense` takes them, so one operator serves any
    (N, C) values with a row at every neighbor index.

    The sums are one product ``A @ values`` with a (P·8, N) CSR matrix
    whose row ``8·i + octant`` holds a 1 at each of point i's neighbors in
    that octant, stored in neighbor order (a stable sort of each row by
    octant), so no (P, k, C) gather is ever held; each sum is then divided
    by its octant's count, at least 1. The sums are bit-identical to adding
    the neighbors' values into zeros one neighbor at a time: the CSR product
    starts each output row at 0 and adds the row's stored entries in stored
    order, and 1·v is exact. Nothing may re-sort the entries by column,
    hence ``has_sorted_indices``. Each output row depends on its own stored
    entries alone, so :meth:`dense` of a row prefix, or of the operator's
    :meth:`head`, gives the same bits as that part of the whole.

    An operator holds only its sparsity pattern, the int32 row pointers
    ``indptr`` and column indices ``indices``: 4 bytes per neighbor and 32
    per point, not 64·C per point. :meth:`dense` makes the int8 ones and the
    octant counts, ``np.diff(indptr)`` at least 1, for the rows it is asked
    for: the pattern fixes both exactly, and scipy computes the product in
    float64 whatever the ones' dtype, so making them per product keeps the
    bits. scipy keeps the column indices and row pointers in one dtype, so
    both are cast.
    """

    def __init__(self, proj: np.ndarray, nbr_idx: np.ndarray) -> None:
        p = len(nbr_idx)
        octant = (proj[..., 0] < 0).astype(np.int8) * 4 + (proj[..., 1] < 0) * np.int8(2) + (proj[..., 2] < 0)
        counts = np.bincount(((np.arange(p) * 8)[:, None] + octant).ravel(), minlength=p * 8)
        order = np.argsort(octant, axis=1, kind="stable")
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices = np.take_along_axis(nbr_idx, order, axis=1).ravel().astype(np.int32)

    def __len__(self) -> int:
        return (len(self.indptr) - 1) // 8

    def head(self, rows: int) -> _OctantMeans:
        """The operator of the first ``rows`` points alone, on copies of
        the whole's arrays, so the whole's can go."""
        head = copy.copy(self)
        head.indptr = self.indptr[: 8 * rows + 1].copy()
        head.indices = self.indices[: head.indptr[-1]].copy()
        return head

    def dense(self, values: np.ndarray, rows: int | None = None, channels: slice = slice(None)) -> np.ndarray:
        """The (rows, 8, C) means of (N, C) ``values`` at the first ``rows``
        points (all when None), of the value columns ``channels`` (all by
        default). Each output column depends on its own value column alone,
        so a block of channels gives the same bits as those columns of the
        whole; scipy copies a block's strided columns into a contiguous
        (N, block) operand for the product."""
        rows = len(self) if rows is None else min(rows, len(self))
        indptr = self.indptr[: 8 * rows + 1]
        end = indptr[-1]
        a = csr_array((np.ones(end, np.int8), self.indices[:end], indptr), shape=(8 * rows, len(values)))
        a.has_sorted_indices = True
        sums = a @ values[:, channels]
        sums /= np.maximum(np.diff(indptr), 1)[:, None]
        return sums.reshape(rows, 8, sums.shape[1])


def _project_neighbors(
    coords: np.ndarray, nbr_idx: np.ndarray, axes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sign-resolved frame coordinates of each point's neighbors.

    Row i of ``nbr_idx`` and ``axes`` belongs to point i of ``coords``; the
    rows may cover a prefix of the points. Returns (proj (P,k,3), margins
    (P,3)). Signs are resolved against this neighborhood, so repeated calls
    at different hops may flip axes differently, as intended.

    The neighbors are gathered neighbor-major and each axis's coordinate is
    written ``(x-term + z-term) + y-term`` into (k, 3, P) memory: the bits
    of ``einsum("pkc,pac->pka")`` over (P, k, 3) offsets. ``proj`` is a
    view of that memory. The offsets and the scratch row go before sign
    resolution, so the call's peak is the block and sign resolution's two
    buffers of its size, about 3x the block.
    """
    p, k = nbr_idx.shape
    xyz = np.array(coords.T)
    rel = np.take(xyz, nbr_idx.T, axis=1)
    rel -= xyz[:, None, :p]
    rel_x, rel_y, rel_z = rel
    frames = np.array(axes.transpose(1, 2, 0))  # (axis, coordinate, P)
    proj = np.empty((k, 3, p))
    term = np.empty((k, p))
    for a, (ax, ay, az) in enumerate(frames):
        out = proj[:, a]
        np.multiply(rel_x, ax, out=out)
        out += np.multiply(rel_z, az, out=term)
        out += np.multiply(rel_y, ay, out=term)
    del rel, rel_x, rel_y, rel_z, term  # freed before sign resolution allocates its buffer
    proj += 0.0  # einsum sums from +0.0, so an all -0.0 sum reads +0.0
    proj = proj.transpose(2, 0, 1)
    flips, margins = resolve_signs_batch(proj)
    proj *= flips[:, None, :]
    return proj, margins


def build_hop1_attributes(
    coords: np.ndarray, nbr_idx: np.ndarray, axes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """24-wide octant-mean attributes of the first ``len(nbr_idx)`` points.

    Row i of ``nbr_idx`` and ``axes`` belongs to point i of ``coords``.
    Returns (attributes (P, 24), margins (P,3)).
    Attribute layout is octant-major: octant 0 mean xyz, octant 1 mean xyz,
    ... in the fixed octant order. Empty octants stay zero.
    """
    proj, margins = _project_neighbors(coords, nbr_idx, axes)
    # each (point, neighbor) projection is its own value row
    p, k = nbr_idx.shape
    means = _OctantMeans(proj, np.arange(p * k).reshape(p, k))
    return means.dense(proj.reshape(p * k, 3)).reshape(p, 24), margins


def build_later_hop_attributes(
    coords: np.ndarray, nbr_idx: np.ndarray, axes: np.ndarray
) -> tuple[_OctantMeans, np.ndarray]:
    """Per-channel octant means of neighbor channel values, as their operator.

    Row i of ``nbr_idx`` and ``axes`` belongs to point i of the current
    hop's points ``coords``; the rows may cover a prefix of the points.
    Returns (attributes, margins (P, 3)): the attributes are the operator of
    the (P, 8, C) means over any (N, C) ``values`` at the N points
    ``coords``, the previous hop's surviving coefficients, and channel c's
    8-wide sample block is ``attributes.dense(values)[:, :, c]``.
    """
    proj, margins = _project_neighbors(coords, nbr_idx, axes)
    return _OctantMeans(proj, nbr_idx), margins


def _prefix_table(table: np.ndarray, points: np.ndarray, k: int, rows: int) -> np.ndarray:
    """``KnnIndex(points).query(points[:rows], k)``'s indices, read off
    ``table``: exact neighbor rows, as ``KnnIndex`` ranks them, of the same
    first ``rows`` points over a larger cloud whose first ``len(points)``
    rows are ``points``.

    A row lists its cloud's nearest points in (d², index) order, d² being
    recomputed per pair whatever the index holds. Any point of the prefix
    missing from the row ranks after every entry of the row, so the row's
    entries below n = ``len(points)``, in order, lead the prefix's own row:
    its first k entries whenever at least k of them survive. Rows with fewer
    survivors are queried from a tree over ``points``.
    """
    head = table[:rows]
    inside = head < len(points)
    rank = np.cumsum(inside, axis=1)  # entry j is the rank[j]-th survivor of its row
    take = inside & (rank <= k)
    out = np.empty((rows, k), dtype=table.dtype)
    out[np.nonzero(take)[0], rank[take] - 1] = head[take]
    short = np.flatnonzero(rank[:, -1] < k)
    if short.size:
        out[short] = KnnIndex(points).query(points[short], k)[0]
    return out


class _HopRun:
    """Per-cloud working state shared by training and extraction.

    A run starts (:func:`_start_runs`) from the cloud's ``sampled`` indices,
    its hop-1 sample, and the ``picks`` of the one farthest point sampling
    run over that sample, to the hop-2 budget (None for a one-hop model).
    The working cloud is stored farthest-first: the n_2 picks, then the
    other points in sampling order (a one-hop run keeps sampling order).
    Hop h's points are its first n_h rows, exactly what sampling each hop
    from the previous one gives (see ``fps_indices``).

    Hop h computes frames, signs and octant means at its first
    ``counts[h]`` points: a fit reads every point of every hop, and
    extraction reads at hop h only the points that hop h + 1 keeps (all of
    them at the final hop). Every per-point array thus holds a prefix of the
    working cloud's rows, and each hop cuts them all to its count
    (:meth:`cut_to`); :func:`train` makes the same cut once a cloud's
    moments are taken, so the run holds only the next hop's rows across a
    fit. A later hop's inputs are an operator over values at its points,
    which the caller keeps: extraction the previous hop's plan outputs, and
    training what it rebuilds them from (:func:`train`). A run holds only
    the geometry that both share. A hop's neighbor index covers all of its
    points.
    Hop-1 frames are computed once and reused at all hops, with signs
    re-resolved per hop against the hop's own neighborhood. Hop 2's neighbor
    rows are read off hop 1's exact table (:func:`_prefix_table`) while hop
    1 holds it.
    """

    def __init__(
        self,
        coords_full: np.ndarray,
        sampled: np.ndarray,
        picks: np.ndarray | None,
        config: ModelConfig,
        fit: bool,
    ) -> None:
        budgets = [hop.num_points for hop in config.hops]
        self.config = config
        self.counts = budgets if fit else budgets[1:] + budgets[-1:]
        if picks is not None:
            rest = np.ones(budgets[0], dtype=bool)
            rest[picks] = False
            sampled = sampled[np.concatenate([picks, np.flatnonzero(rest)])]
        self.orig_indices = sampled
        self.coords = coords_full[sampled]
        self.hop2_table: np.ndarray | None = None  # hop 2's neighbor rows, set by hop 1

    def hop_inputs(self, h: int) -> tuple[np.ndarray | _OctantMeans, np.ndarray]:
        """Hop h's (P, N, C) Saab inputs, channel c's samples in ``[:, :, c]``,
        one row per computed point, and the neighbor table they were built
        from. Hop 1's inputs are a dense (P, 24, 1) array; a later hop's are
        its :class:`_OctantMeans` over values at its points, which
        :func:`_moments` and :func:`_apply_blocks` make dense with those
        values a block of channels at a time.
        Later hops first cut the working cloud and the per-point arrays to
        their rows. The only table the run keeps is hop 2's neighbor rows,
        from hop 1 until hop 2 reads them, so training holds no other table
        per cloud."""
        hop, count = self.config.hops[h], self.counts[h]
        if h == 0:
            return self._hop1_inputs(hop, count)
        self.cut_to(h)
        neighbors, self.hop2_table = self.hop2_table, None
        if neighbors is None:
            neighbors, _ = KnnIndex(self.coords).query(self.coords[:count], hop.k_neighbors)
        means, margins = build_later_hop_attributes(self.coords, neighbors, self.axes)
        np.minimum(self.min_margin, margins.min(axis=1), out=self.min_margin)
        return means, neighbors

    def cut_to(self, h: int) -> None:
        """Cut the working cloud to hop h's points and the per-point arrays
        to its first ``counts[h]`` rows; arrays already that short stay."""
        rows, count = self.config.hops[h].num_points, self.counts[h]
        # copies, not views: views would keep every fit run's hop-1 arrays
        # alive, which raised the peak RSS of train(ModelConfig()) by ~10 MB
        self.coords, self.orig_indices = (
            a[:rows].copy() if len(a) > rows else a for a in (self.coords, self.orig_indices)
        )
        self.axes, self.eigen_gaps, self.min_margin = (
            a[:count].copy() if len(a) > count else a for a in (self.axes, self.eigen_gaps, self.min_margin)
        )

    def _hop1_inputs(self, hop: HopConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
        config = self.config
        table, _ = KnnIndex(self.coords).query(self.coords[:count], max(config.k_lrf, hop.k_neighbors))
        neighbors = table[:, : hop.k_neighbors]
        if len(config.hops) > 1:
            hop2 = config.hops[1]
            points = self.coords[: hop2.num_points]
            self.hop2_table = _prefix_table(table, points, hop2.k_neighbors, self.counts[1])
        self.axes, eigenvalues = local_pca_batch(self.coords, table[:, : config.k_lrf])
        self.eigen_gaps = np.minimum(
            eigenvalues[:, 0] - eigenvalues[:, 1], eigenvalues[:, 1] - eigenvalues[:, 2]
        )
        attrs, margins = build_hop1_attributes(self.coords, neighbors, self.axes)
        self.min_margin = margins.min(axis=1)
        return attrs[:, :, None], neighbors


def _start_runs(
    clouds: Iterable[np.ndarray],
    config: ModelConfig,
    seeds: Sequence[int],
    fit: bool = False,
) -> list[_HopRun]:
    """One :class:`_HopRun` per (N, 3) cloud of ``clouds``, sampled with its
    seed of ``seeds``.

    Each cloud is sampled down to the hop-1 budget in input order, so the
    first cloud below the budget raises its :class:`CloudTooSmallError`.
    The samples are stacked, and ``fps_indices`` picks the hop-2 budget from
    every one of them: for a ``fit``, in two calls over the stack's halves
    (the first holding ceil(B/2) of its B clouds), one per lane
    (:func:`_two_lanes`); for an extraction's one or two clouds, in one call
    on the calling thread (the :mod:`~rpointhop.spatial` docstring says
    why). Each cloud's picks are those of its own run. A one-hop model
    samples no further.
    """
    budgets = [hop.num_points for hop in config.hops]
    full, sampled = [], []
    for cloud, seed in zip(clouds, seeds):
        n = cloud.shape[0]
        if n < budgets[0]:
            raise CloudTooSmallError(f"cloud has {n} points but hop 1 needs {budgets[0]}")
        full.append(cloud)
        sampled.append(sample_indices(n, budgets[0], seed))
    picks: Sequence[np.ndarray | None] = [None] * len(full)
    if len(budgets) > 1:
        stack = np.stack([cloud[idx] for cloud, idx in zip(full, sampled)])
        parts = np.array_split(stack, 2) if fit else [stack]
        picks = np.concatenate(_two_lanes(lambda part: fps_indices(part, budgets[1]), parts))
    return [_HopRun(cloud, idx, p, config, fit) for cloud, idx, p in zip(full, sampled, picks)]


_CHANNEL_BLOCK = 32  # the widest block of channels whose later-hop dense means a lane holds at once


def _channel_blocks(c: int) -> list[slice]:
    """``c`` channels cut into the fewest blocks of at most
    :data:`_CHANNEL_BLOCK`, of widths that differ by at most one. So no
    block is one channel wide unless ``c`` is 1: a one-channel block's
    memory is contiguous along the octants, where numpy takes other loops
    (``einsum``'s vectorized sums, BLAS in a plan's ``matmul``) with other
    bits than on the whole."""
    n = -(-c // _CHANNEL_BLOCK)
    return [slice(c * i // n, c * (i + 1) // n) for i in range(n)]


def _moments(x: np.ndarray | _OctantMeans, values: np.ndarray | None = None) -> SampleMoments:
    """The per-channel :class:`~rpointhop.saab.SampleMoments` of one cloud's
    (P, N, C) Saab inputs (:meth:`~rpointhop.saab.SampleMoments.of`): hop 1's dense ``x``
    reduced in a copy, which its plan apply reads afterwards, and a later
    hop's in the dense means its operator ``x`` makes of ``values``, one
    block of channels at a time (:func:`_channel_blocks`), so no more than a
    block's (P, 8, C) means are ever held."""
    if not isinstance(x, _OctantMeans):
        # a copy: centering is in place, and hop 1's plan apply reads x afterwards
        return SampleMoments.of(x.copy())
    c = values.shape[1]
    # channel-minor, as one block of all c channels lays them out
    mean, cov, max_sq_norm = np.empty((8, c)).T, np.empty((8, 8, c)).transpose(2, 0, 1), np.empty(c)
    for block in _channel_blocks(c):
        m = SampleMoments.of(x.dense(values, channels=block))
        mean[block], cov[block], max_sq_norm[block] = m.mean, m.cov, m.max_sq_norm
    return SampleMoments(len(x), mean, cov, max_sq_norm)


def _apply_blocks(
    plan: HopPlan, x: np.ndarray | _OctantMeans, rows: int, values: np.ndarray | None = None
) -> np.ndarray:
    """``plan.apply`` of one cloud's inputs ``x`` at its first ``rows``
    points, bit for bit: hop 1's dense inputs in one apply, a later hop's
    operator of ``values`` one block of the plan's parent channels
    (:func:`_channel_blocks`) at a time, each block's plan
    (:meth:`~rpointhop.saab.HopPlan.block`) into its run of the
    preallocated (rows, C') output; a block that keeps no child is skipped.
    A plan of one block takes the same loop: its block is the whole plan's
    arrays, at the cost of one (rows, C') copy. So no more than a block's
    dense means and product are held beside the output. Training and
    extraction both apply every plan this way."""
    if not isinstance(x, _OctantMeans):
        return plan.apply(x[:rows])
    out = np.empty((rows, len(plan.slots)))
    for channels in _channel_blocks(len(plan.biases)):
        sub, columns = plan.block(channels)
        if sub.slots.size:
            out[:, columns] = sub.apply(x.dense(values, rows, channels))
    return out


def train(corpus: Sequence[PointCloud], config: ModelConfig = ModelConfig()) -> RPointHopModel:
    """Fit all hop transforms on a corpus of clouds.

    Deterministic: the corpus order and ``config.seed`` fully determine the
    model. The two half-stacks of farthest point sampling
    (:func:`_start_runs`) and the clouds' steps of a hop are independent, so
    they share the two lanes (:func:`_two_lanes`), one lane call per hop; the
    moments are merged in corpus order, so the model's bits do not depend on
    which lane ran what.

    A cloud's step of hop h builds the hop's values and inputs, takes their
    moments, and keeps only what later steps read. Right after its moments,
    its run is cut to hop h + 1's rows (:meth:`_HopRun.cut_to`, the cut each
    hop makes at its start). What else a cloud carries is one list of kept
    inputs: hop 1 keeps its inputs' first n_2 rows, the only ones hop 1's
    plan reads (and hop 2's neighbor rows as int32, in its run), a later
    non-final hop its :class:`_OctantMeans` cut to hop h + 1's rows
    (:meth:`_OctantMeans.head`), not its values, and the final hop nothing.
    A kept operator is its sparsity pattern alone: 4 bytes per neighbor
    and 32 per point.
    So hop h's step (h >= 2) rebuilds hop h's values from that list,
    applying training's plans of hops 1..h - 1 in turn, each at the next
    hop's rows, and drops them with its moments: no corpus-wide set of a
    later hop's dense values is held across a fit. The price is that hop
    h's step repeats the applies of plans 1..h - 2 that earlier steps made:
    two more hop-1 plan applies and one more hop-2 plan apply per cloud on
    the default model.
    Dense later-hop means live only inside one cloud's :func:`_moments` or
    plan apply per lane, one block of at most :data:`_CHANNEL_BLOCK`
    channels at a time (:func:`_channel_blocks`, :func:`_apply_blocks`), so
    each lane's transients are a block's (P, 8, C) means and (C, P, K)
    product beside the values it rebuilds, not the hop's. :func:`_apply_blocks`
    cuts each plan into those blocks per call; extraction applies its plans
    the same way, at all of a hop's computed rows.
    """
    clouds = list(corpus)
    if not clouds:
        raise TrainingError("empty corpus")
    rng = seeded_rng(config.seed)
    cloud_seeds = [int(rng.integers(2**63)) for _ in clouds]

    normalized = (normalize_unit_sphere(cloud).coords for cloud in clouds)
    runs = _start_runs(normalized, config, cloud_seeds, fit=True)
    budgets = [hop.num_points for hop in config.hops]
    n_hops = len(budgets)
    tree = FeatureTree()
    hop_layers: list[dict[int, SaabLayer]] = []
    plans: list[HopPlan] = []  # training's plan of each non-final hop fit so far
    # per cloud: hop 1's inputs at hop 2's rows, then each later non-final
    # hop's operator cut to the next hop's rows
    carried: list[list[np.ndarray | _OctantMeans]] = [[] for _ in runs]
    parent_ids = [0]
    for h in range(n_hops):
        final = h == n_hops - 1

        def step(i: int) -> SampleMoments:
            """Hop h's moments of cloud i; its run then keeps only what
            later steps read."""
            run, kept = runs[i], carried[i]
            values = None
            for j, inputs in enumerate(kept):  # hop j + 1's inputs to hop j + 2's values
                values = _apply_blocks(plans[j], inputs, budgets[j + 1], values)
            x, _ = run.hop_inputs(h)
            moments = _moments(x, values)
            if final:
                kept.clear()
            else:
                run.cut_to(h + 1)
                kept.append(x[: budgets[1]].copy() if h == 0 else x.head(budgets[h + 1]))
                if h == 0:
                    run.hop2_table = run.hop2_table.astype(np.int32)
            return moments

        moments = reduce(SampleMoments.merge, _two_lanes(step, range(len(runs))))
        layers = {pid: saab_fit(moments[c]) for c, pid in enumerate(parent_ids)}
        children = _grow_hop(tree, layers, parent_ids, config.energy_threshold, final)
        if not children:
            raise TrainingError(_prune_message(h + 1, n_hops))
        if not final:  # hop h + 1's step reads its first n_{h+1} rows, and nothing the final hop's
            plans.append(freeze_hop(tree, layers, parent_ids, children))
        hop_layers.append(layers)
        parent_ids = children

    return RPointHopModel(config=config, hop1_layer=hop_layers[0][0], later_hops=tuple(hop_layers[1:]))


def _prune_message(hop_reached: int, n_hops: int) -> str:
    if hop_reached >= n_hops:
        return f"energy threshold discarded every output channel at final hop {hop_reached}"
    return f"energy threshold left no surviving channels entering hop {hop_reached + 1}"


def extract_features(model: RPointHopModel, cloud: PointCloud, seed: int = 0) -> FeatureSet:
    """Run the frozen pipeline on one cloud.

    The cloud is consumed as-is (training-time normalization is corpus
    preprocessing, not part of inference) so the returned coordinates live
    in the input frame and transforms estimated from them do too.
    """
    (run,) = _start_runs([cloud.coords], model.config, [seed])
    return _features(model, run)


def extract_pair(
    model: RPointHopModel, target: PointCloud, source: PointCloud, seed: int
) -> tuple[FeatureSet, FeatureSet]:
    """(target, source) features, both extracted with ``seed``, bit for bit
    what :func:`extract_features` gives each cloud. Both clouds are farthest
    point sampled in one stack on the calling thread, then extracted at the
    same time on the caller's thread and the worker lane. When both clouds
    fail, the target's error is raised."""
    runs = _start_runs((target.coords, source.coords), model.config, (seed, seed))
    return tuple(_two_lanes(lambda run: _features(model, run), runs))


def _features(model: RPointHopModel, run: _HopRun) -> FeatureSet:
    """The frozen pipeline's features of a started extraction ``run``, each
    hop's plan applied to the hop's computed rows as training applies its
    plans (:func:`_apply_blocks`)."""
    values = None
    for h, plan in enumerate(model.plans):
        x, neighbors = run.hop_inputs(h)
        values = _apply_blocks(plan, x, len(x), values)
    return FeatureSet(
        point_indices=run.orig_indices,
        coords=run.coords,
        features=values,
        sign_margins=run.min_margin,
        eigen_gaps=run.eigen_gaps,
        neighbor_table=neighbors,
    )
