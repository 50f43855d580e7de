"""Multi-hop feature learning pipeline.

Training (unsupervised, one pass per hop):

1. Each corpus cloud is unit-sphere normalized, sampled down to
   the hop-1 point budget, and every retained point gets a local reference
   frame (computed once, on this working cloud, and reused at all hops
   with signs re-resolved per hop against the hop's own neighborhood).
2. Hop 1 builds a 24-wide attribute per point: project the point's k
   nearest neighbors into its sign-resolved frame, split them into the 8
   octants (fixed order +++ , ++- , +-+ , +-- , -++ , -+- , --+ , ---,
   where "+" means coordinate >= 0), and concatenate the per-octant mean
   projected coordinates; empty octants contribute zeros. Attributes from
   every cloud are pooled and fit with one joint Saab transform.
3. Hops 2..H first shrink the working cloud by farthest point sampling,
   then build an 8-wide attribute per point and surviving channel: the
   per-octant means of the neighbors' channel value. Each channel is fit
   with its own Saab transform (channel-wise), pooled over the corpus.
   Training holds each cloud's means as the octant-sum operator and the
   values it averages, and builds each channel's corpus pool from these
   operators just before its fit, a block of channels at a time, so dense
   inputs exist only for one block's pools or one cloud's plan apply per
   lane. Sampling runs once per cloud, and the hop-1 working cloud is
   stored in farthest point order, so hop h's points are its first n_h
   rows: exactly what sampling each hop from the previous one gives.
4. Channel energies multiply down a :class:`~rpointhop.saab.FeatureTree`;
   channels at or below the energy threshold are dropped together with
   their descendants. Survivors at the last hop are the output feature
   dimensions. The tree follows from the layers' energies and the threshold
   alone, so a model derives it from its layers by the same steps
   (:func:`_grow_hop`), and a model file whose stored tree disagrees is
   rejected.

Hop 1 is the one-channel case of steps 3-4, with the tree's root as its
only parent, so every hop is fit the same way and frozen into the same
:class:`~rpointhop.saab.HopPlan`.

Extraction runs the same geometry with the frozen plans and returns
one feature row per final-hop point. Hop h + 1 keeps the first n_{h+1}
rows of hop h, so hop h computes frames, signs, octant means and plan
outputs only at that prefix. Each row carries the point's index into the
input cloud, its input coordinates, and degeneracy diagnostics (minimum
sign-disambiguation margin seen across hops, minimum LRF eigenvalue gap).
Features are invariant to rigid motions of the input up to sign ties,
because every quantity is expressed in the per-point resolved frames.
"""

from __future__ import annotations

import io
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array

from .cloud import PointCloud, normalize_unit_sphere, sample_indices
from .lrf import local_pca_batch, resolve_signs_batch
from .saab import (
    FeatureTree,
    HopPlan,
    SaabLayer,
    freeze_hop,
    propagate_energy,
    saab_apply,  # noqa: F401 - not called here; perfbench/spans.py traces it by this module path
    saab_fit,
)
from .spatial import KnnIndex, fps_indices

MODEL_MAGIC = b"RPH1"
MODEL_VERSION = 1


class TrainingError(RuntimeError):
    """Training cannot proceed (empty corpus, all channels pruned, ...)."""


class ModelFormatError(ValueError):
    """A model file is corrupt or has an unsupported version."""


class CloudTooSmallError(ValueError):
    """A cloud has fewer points than the model's hop-1 budget."""


@dataclass(frozen=True)
class HopConfig:
    """Point budget and neighborhood size for one hop."""

    num_points: int
    k_neighbors: int

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise ValueError("num_points must be positive")
        if self.k_neighbors < 8:
            raise ValueError("k_neighbors must be >= 8 (one point per octant on average)")
        if self.k_neighbors > self.num_points:
            raise ValueError("k_neighbors cannot exceed num_points at that hop")


DEFAULT_HOPS = (
    HopConfig(1024, 64),
    HopConfig(768, 32),
    HopConfig(512, 48),
    HopConfig(384, 48),
)


@dataclass(frozen=True)
class ModelConfig:
    """Full training configuration. Defaults are the object-scale setup:
    1024 working points, neighborhoods 64/32/48/48 over 1024/768/512/384
    points, 64 LRF neighbors, energy threshold 0.001."""

    k_lrf: int = 64
    hops: tuple[HopConfig, ...] = DEFAULT_HOPS
    energy_threshold: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        hops = tuple(self.hops)
        if not hops:
            raise ValueError("at least one hop is required")
        object.__setattr__(self, "hops", hops)
        if self.k_lrf < 3:
            raise ValueError("k_lrf must be >= 3")
        if self.k_lrf > hops[0].num_points:
            raise ValueError("k_lrf cannot exceed the hop-1 point budget")
        for prev, nxt in zip(hops, hops[1:]):
            if nxt.num_points > prev.num_points:
                raise ValueError("hop point budgets must be non-increasing")
        if not 0.0 <= self.energy_threshold < np.inf:  # NaN fails this too
            raise ValueError("energy_threshold must be finite and non-negative")


def _grow_hop(
    tree: FeatureTree, layers: dict[int, SaabLayer], parent_ids: list[int], threshold: float, final: bool
) -> tuple[HopPlan, list[int]]:
    """Append the hop below ``parent_ids`` to ``tree``, pruned by the layers'
    energies and ``threshold``, and freeze it; training and
    :class:`RPointHopModel` both grow their trees this way. Returns the plan
    and the surviving children's node ids."""
    if sorted(layers) != parent_ids:
        raise ValueError(
            f"layers below nodes {sorted(layers)} do not match the surviving parents {parent_ids}"
        )
    propagate_energy(tree, {pid: layers[pid].energies for pid in parent_ids}, threshold, final=final)
    return freeze_hop(tree, layers, parent_ids)


@dataclass(frozen=True)
class RPointHopModel:
    """Frozen result of training: the hop-1 joint Saab layer and the
    per-node channel-wise layers of later hops.

    On construction the pruned energy ``tree`` is derived from the layers'
    energies and the config's threshold, and each hop is frozen into one
    :class:`~rpointhop.saab.HopPlan` of ``plans``. Layers that do not form
    a model (parents without a layer, layers without a parent, wrong input
    widths, no surviving channel) raise ValueError there.
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
        plans = []
        parent_ids = [0]
        for h, layers in enumerate(hops):
            final = h == len(hops) - 1
            plan, parent_ids = _grow_hop(tree, layers, parent_ids, self.config.energy_threshold, final)
            width = plan.filters.shape[1]
            if width != (8 if h else 24):
                raise ValueError(f"hop {h + 1} layers take {width}-wide inputs")
            if not parent_ids:
                raise ValueError(f"no channel survives hop {h + 1}")
            plans.append(plan)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "plans", tuple(plans))

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

_LANE: ThreadPoolExecutor


def _renew_lane() -> None:
    """(Re)create the worker lane. numpy releases the GIL in its heavy
    kernels, so work on this one persistent thread (a cloud, or a half of
    a stage's rows) overlaps the caller's. The executor starts its thread on first use, and a forked
    child inherits the executor but not the thread, so it gets a new one."""
    global _LANE
    _LANE = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rpointhop-lane")


_renew_lane()
os.register_at_fork(after_in_child=_renew_lane)


def _two_lanes(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``: the even-indexed items run on the calling
    thread and the odd-indexed ones on the worker lane, in input order.

    The items must be independent, and ``fn`` must not use the lanes itself.
    When items fail, the earliest one's exception is raised, once the worker
    lane's jobs are cancelled or finished.
    """
    items = list(items)
    jobs = [_LANE.submit(fn, x) for x in items[1::2]]
    try:
        return [jobs[i // 2].result() if i % 2 else fn(x) for i, x in enumerate(items)]
    finally:
        for job in jobs:
            job.cancel()
        wait(jobs)


def _row_halves(lanes: Callable, fn: Callable, n: int) -> tuple[np.ndarray, ...]:
    """``fn(slice(0, n))``, computed as ``fn`` on the first and second halves
    of rows [0, n) by ``lanes`` (:func:`_two_lanes`): the first half on the
    calling thread, the second on the worker lane. ``fn`` returns a tuple
    of arrays with one leading row per row of its slice, and each array is
    joined along axis 0. A half may be empty (n < 2), so ``fn`` must accept
    an empty slice. When ``fn`` computes each row on its own, the result
    has the same bits as one call on all rows.
    """
    half = (n + 1) // 2
    first, second = lanes(fn, (slice(0, half), slice(half, n)))
    return tuple(np.concatenate(pair) for pair in zip(first, second))


# ---------------------------------------------------------------------------
# attribute construction
# ---------------------------------------------------------------------------


class _OctantMeans:
    """(P, 8, C) per-octant means of the neighbors' rows of (N, C) ``values``,
    held as the operator that computes them: row i averages
    ``values[nbr_idx[i]]`` by octant, octants taken from the (P, k, 3)
    projected neighbors; empty octants give zeros.

    The sums are one product ``A @ values`` with a (P·8, N) CSR matrix
    whose row ``8·i + octant`` holds a 1.0 at each of point i's neighbors in
    that octant, stored in neighbor order (a stable sort of each row by
    octant), so no (P, k, C) gather is ever held; each sum is then divided
    by its octant's count, at least 1. The sums are bit-identical to adding
    the neighbors' values into zeros one neighbor at a time: the CSR product
    starts each output row at 0 and adds the row's stored entries in stored
    order, and 1.0·v is exact. Nothing may re-sort the entries by column,
    hence ``has_sorted_indices``. Each output column depends on its own
    value column alone, so :meth:`dense` of a row prefix and a channel block
    gives the same bits as that part of the whole.

    Held this way a later hop's inputs cost the values they average plus
    about 12 bytes per neighbor, not 64·C bytes per point.
    """

    def __init__(self, proj: np.ndarray, values: np.ndarray, nbr_idx: np.ndarray) -> None:
        p, k = nbr_idx.shape
        octant = (proj[..., 0] < 0).astype(np.int8) * 4 + (proj[..., 1] < 0) * np.int8(2) + (proj[..., 2] < 0)
        counts = np.bincount(((np.arange(p) * 8)[:, None] + octant).ravel(), minlength=p * 8)
        order = np.argsort(octant, axis=1, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(counts)])
        self.sums = self._operator(
            np.ones(p * k), np.take_along_axis(nbr_idx, order, axis=1).ravel(), indptr, values.shape[0]
        )
        self.divisor = np.maximum(counts, 1)[:, None]
        self.values = values

    @staticmethod
    def _operator(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, n: int) -> csr_array:
        a = csr_array((data, indices, indptr), shape=(len(indptr) - 1, n))
        a.has_sorted_indices = True
        return a

    def __len__(self) -> int:
        return len(self.divisor) // 8

    def dense(self, rows: int | None = None, channels: slice = slice(None)) -> np.ndarray:
        """The (rows, 8, c) means of the first ``rows`` points (all when
        None) and the value columns ``channels``."""
        a = self.sums
        if rows is not None and rows < len(self):
            end = a.indptr[8 * rows]
            a = self._operator(a.data[:end], a.indices[:end], a.indptr[: 8 * rows + 1], a.shape[1])
        sums = a @ self.values[:, channels]
        sums /= self.divisor[: len(sums)]
        return sums.reshape(len(sums) // 8, 8, sums.shape[1])


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
    view of that memory.
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
    means = _OctantMeans(proj, proj.reshape(p * k, 3), np.arange(p * k).reshape(p, k))
    return means.dense().reshape(p, 24), margins


def build_later_hop_attributes(
    coords: np.ndarray, nbr_idx: np.ndarray, axes: np.ndarray, values: np.ndarray
) -> tuple[_OctantMeans, np.ndarray]:
    """Per-channel octant means of neighbor channel values.

    ``values`` is (N, C): the previous hop's surviving coefficients at the
    current hop's points ``coords``. Row i of ``nbr_idx`` and ``axes``
    belongs to point i; the rows may cover a prefix of the points.
    Returns (attributes, margins (P, 3)): the attributes are the (P, 8, C)
    means held as their operator, and channel c's 8-wide sample block is
    ``attributes.dense()[:, :, c]``.
    """
    proj, margins = _project_neighbors(coords, nbr_idx, axes)
    return _OctantMeans(proj, values, nbr_idx), margins


def _dense_inputs(
    x: np.ndarray | _OctantMeans, rows: int | None = None, channels: slice = slice(None)
) -> np.ndarray:
    """The (rows, N, c) Saab inputs of one cloud's first ``rows`` points (all
    when None) and channels ``channels``: hop 1's inputs are dense already,
    a later hop's are materialized from their operator."""
    if isinstance(x, _OctantMeans):
        return x.dense(rows, channels)
    return x[:rows, :, channels]


class _HopRun:
    """Per-cloud working state shared by training and extraction.

    The cloud is sampled down to the hop-1 budget, and farthest point
    sampling runs once on that working cloud. The working cloud is stored
    farthest-first: the n_2 picks, then the other points in sampling order
    (a one-hop run keeps sampling order). Hop h's points are its first n_h
    rows, exactly what sampling each hop from the previous one gives (see
    ``fps_indices``).

    Hop h computes frames, signs and octant means at its first
    ``counts[h]`` points: a fit pools every point of every hop, and
    extraction reads at hop h only the points that hop h + 1 keeps (all of
    them at the final hop). Every per-point array thus holds a prefix of the
    working cloud's rows, and each hop cuts them all to its count. The
    caller sets ``values`` to hop h's plan outputs at the n_{h+1} points of
    hop h + 1. A hop's neighbor index covers all of its points. Hop-1 frames
    are computed once and reused at all hops, with signs re-resolved per hop
    against the hop's own neighborhood.
    """

    def __init__(
        self, coords_full: np.ndarray, config: ModelConfig, seed: int, fit: bool = False
    ) -> None:
        budgets = [hop.num_points for hop in config.hops]
        n = coords_full.shape[0]
        if n < budgets[0]:
            raise CloudTooSmallError(f"cloud has {n} points but hop 1 needs {budgets[0]}")
        self.config = config
        self.counts = budgets if fit else budgets[1:] + budgets[-1:]
        self.orig_indices = sample_indices(n, budgets[0], seed)
        if len(budgets) > 1:
            picks = fps_indices(coords_full[self.orig_indices], budgets[1], start=0)
            rest = np.ones(budgets[0], dtype=bool)
            rest[picks] = False
            self.orig_indices = self.orig_indices[np.concatenate([picks, np.flatnonzero(rest)])]
        self.coords = coords_full[self.orig_indices]
        self.values: np.ndarray | None = None  # surviving coefficients, set per hop

    def hop_inputs(self, h: int) -> tuple[np.ndarray | _OctantMeans, np.ndarray]:
        """Hop h's (P, N, C) Saab inputs, channel c's samples in ``[:, :, c]``,
        one row per computed point, and the neighbor table they were built
        from. Hop 1's inputs are a dense (P, 24, 1) array; a later hop's are
        its :class:`_OctantMeans`, which :func:`_dense_inputs` materializes.
        Later hops first cut the working cloud and the per-point arrays to
        their rows. The run keeps no tables, so training holds none per
        cloud."""
        hop, count = self.config.hops[h], self.counts[h]
        if h == 0:
            return self._hop1_inputs(hop, count)
        # copies, not views: views would keep every fit run's hop-1 arrays
        # alive, which raised the peak RSS of train(ModelConfig()) by ~10 MB
        self.coords = self.coords[: hop.num_points].copy()
        self.orig_indices = self.orig_indices[: hop.num_points].copy()
        self.axes, self.eigen_gaps, self.min_margin = (
            a[:count].copy() for a in (self.axes, self.eigen_gaps, self.min_margin)
        )
        neighbors, _ = KnnIndex(self.coords).query(self.coords[:count], hop.k_neighbors)
        means, margins = build_later_hop_attributes(self.coords, neighbors, self.axes, self.values)
        self.values = None  # read only here; the caller sets the next hop's
        np.minimum(self.min_margin, margins.min(axis=1), out=self.min_margin)
        return means, neighbors

    def _hop1_inputs(self, hop: HopConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
        config = self.config
        table, _ = KnnIndex(self.coords).query(self.coords[:count], max(config.k_lrf, hop.k_neighbors))
        neighbors = table[:, : hop.k_neighbors]
        self.axes, eigenvalues = local_pca_batch(self.coords, table[:, : config.k_lrf])
        self.eigen_gaps = np.minimum(
            eigenvalues[:, 0] - eigenvalues[:, 1], eigenvalues[:, 1] - eigenvalues[:, 2]
        )
        attrs, margins = build_hop1_attributes(self.coords, neighbors, self.axes)
        self.min_margin = margins.min(axis=1)
        return attrs[:, :, None], neighbors


_BLOCK_CHANNELS = 8  # widest channel block whose corpus pools train holds at once


def _channel_blocks(c: int) -> list[slice]:
    """Channels [0, c) in consecutive blocks of at most ``_BLOCK_CHANNELS``,
    as equal as can be, and an even number of them when c > 1, so that the
    two lanes get equal shares."""
    n = min(c, 2 * -(-c // (2 * _BLOCK_CHANNELS)))
    edges = [c * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _fit_channels(inputs: list[np.ndarray | _OctantMeans], channels: slice) -> list[SaabLayer]:
    """Saab layers of ``channels``, each fit on its corpus pool: the
    channel's samples from every cloud's ``inputs``, in corpus order."""
    blocks = [_dense_inputs(x, channels=channels) for x in inputs]
    return [saab_fit(np.vstack([b[:, :, j] for b in blocks])) for j in range(blocks[0].shape[2])]


def train(corpus: Sequence[PointCloud], config: ModelConfig = ModelConfig()) -> RPointHopModel:
    """Fit all hop transforms on a corpus of clouds.

    Deterministic: the corpus order and ``config.seed`` fully determine the
    model. Per-cloud runs, their hop inputs, the channel blocks' fits and
    the plan applies are independent, so they share the two lanes
    (:func:`_two_lanes`); every pool keeps corpus order, so the model's bits
    do not depend on which lane ran what.

    Each cloud holds a later hop's inputs as its :class:`_OctantMeans`, the
    octant-sum operator and the values it averages, not as dense means.
    Each channel's corpus pool is built from these operators just before
    its fit, a block of channels (:func:`_channel_blocks`) at a time, and
    each cloud's plan apply materializes only the first n_{h+1} rows, the
    ones the next hop reads. Past hop 1, whose 24-wide attributes are
    small, dense inputs live only as one block's pools and one cloud's
    plan apply per lane.
    """
    clouds = list(corpus)
    if not clouds:
        raise TrainingError("empty corpus")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cloud_seeds = [int(rng.integers(2**63)) for _ in clouds]

    def start(item: tuple[PointCloud, int]) -> _HopRun:
        cloud, seed = item
        return _HopRun(normalize_unit_sphere(cloud).coords, config, seed, fit=True)

    runs = _two_lanes(start, zip(clouds, cloud_seeds))
    n_hops = len(config.hops)
    tree = FeatureTree()
    hop_layers: list[dict[int, SaabLayer]] = []
    parent_ids = [0]
    for h in range(n_hops):
        inputs = _two_lanes(lambda run: run.hop_inputs(h)[0], runs)
        fits = _two_lanes(lambda block: _fit_channels(inputs, block), _channel_blocks(len(parent_ids)))
        layers = dict(zip(parent_ids, (layer for block in fits for layer in block)))
        plan, parent_ids = _grow_hop(tree, layers, parent_ids, config.energy_threshold, h == n_hops - 1)
        if not parent_ids:
            raise TrainingError(_prune_message(h + 1, n_hops))
        if h < n_hops - 1:  # hop h + 1 reads its first n_{h+1} rows, and nothing the final hop's
            n_next = config.hops[h + 1].num_points
            for run, values in zip(runs, _two_lanes(lambda x: plan.apply(_dense_inputs(x, n_next)), inputs)):
                run.values = values
        del inputs  # freed before the next hop builds its own
        hop_layers.append(layers)

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
    run = _HopRun(cloud.coords, model.config, seed)
    for h, plan in enumerate(model.plans):
        x, neighbors = run.hop_inputs(h)
        run.values = plan.apply(_dense_inputs(x))
    return FeatureSet(
        point_indices=run.orig_indices,
        coords=cloud.coords[run.orig_indices],
        features=run.values,
        sign_margins=run.min_margin,
        eigen_gaps=run.eigen_gaps,
        neighbor_table=neighbors,
    )


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------


def _layer_meta(layer: SaabLayer) -> dict:
    return {"input_dim": layer.input_dim, "n_ac": int(layer.ac_filters.shape[0]), "bias": layer.bias}


def _layer_arrays(layer: SaabLayer) -> list[np.ndarray]:
    return [layer.dc_filter, layer.ac_filters, layer.energies]


def _tree_rows(tree: FeatureTree) -> list[list]:
    """The header's tree: one row per node, its node id the row index."""
    return [[n.hop, n.parent, n.channel, n.fraction, n.cumulative, n.status] for n in tree.nodes]


def save_model(model: RPointHopModel, path) -> None:
    """Write a model file: magic ``RPH1``, format version, a JSON header
    (config, tree, layer shapes), then all arrays as little-endian float64.
    Byte-identical for identical models."""
    header = {
        "config": {
            "k_lrf": model.config.k_lrf,
            "hops": [[h.num_points, h.k_neighbors] for h in model.config.hops],
            "energy_threshold": model.config.energy_threshold,
            "seed": model.config.seed,
        },
        "tree": _tree_rows(model.tree),
        "hop1": _layer_meta(model.hop1_layer),
        "later": [
            [
                [pid, layer.input_dim, int(layer.ac_filters.shape[0]), layer.bias]
                for pid, layer in sorted(hop.items())
            ]
            for hop in model.later_hops
        ],
    }
    arrays = _layer_arrays(model.hop1_layer)
    for hop in model.later_hops:
        for _, layer in sorted(hop.items()):
            arrays.extend(_layer_arrays(layer))
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MODEL_MAGIC)
    buf.write(struct.pack("<I", MODEL_VERSION))
    buf.write(struct.pack("<Q", len(blob)))
    buf.write(blob)
    for arr in arrays:
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ModelFormatError(f"corrupt model file: truncated while reading {what}")
    return data


def _read_array(fh, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64))
    data = _read_exact(fh, count * 8, f"array {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


def _read_layer(fh, input_dim, n_ac, bias) -> SaabLayer:
    n, n_ac = int(input_dim), int(n_ac)
    dc = _read_array(fh, (n,))
    ac = _read_array(fh, (n_ac, n))
    energies = _read_array(fh, (1 + n_ac,))
    return SaabLayer(dc_filter=dc, ac_filters=ac, bias=float(bias), energies=energies)


def load_model(path) -> RPointHopModel:
    """Read a model file written by :func:`save_model`. Rejects unknown
    versions, truncated or corrupt files, and files whose stored tree
    differs from the one the model derives from its layers."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"not a model file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        try:
            header = json.loads(_read_exact(fh, blob_len, "header").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"corrupt model file: bad header ({exc})") from None
        try:
            cfg = header["config"]
            config = ModelConfig(
                k_lrf=int(cfg["k_lrf"]),
                hops=tuple(HopConfig(int(np_), int(k)) for np_, k in cfg["hops"]),
                energy_threshold=float(cfg["energy_threshold"]),
                seed=int(cfg["seed"]),
            )
            stored_tree = [
                [int(hop), int(parent), int(channel), float(fraction), float(cumulative), str(status)]
                for hop, parent, channel, fraction, cumulative, status in header["tree"]
            ]
            hop1 = header["hop1"]
            hop1_layer = _read_layer(fh, hop1["input_dim"], hop1["n_ac"], hop1["bias"])
            later = [
                {int(pid): _read_layer(fh, input_dim, n_ac, bias) for pid, input_dim, n_ac, bias in hop_meta}
                for hop_meta in header["later"]
            ]
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            # a missing field, or a field of the wrong type, arity or value
            raise ModelFormatError(f"corrupt model file: bad field ({exc})") from None
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError("corrupt model file: trailing bytes after arrays")
    try:
        model = RPointHopModel(config=config, hop1_layer=hop1_layer, later_hops=tuple(later))
    except ValueError as exc:
        raise ModelFormatError(f"corrupt model file: layers do not form a model ({exc})") from None
    derived = _tree_rows(model.tree)
    if stored_tree != derived:
        first = next(i for i, (a, b) in enumerate(zip_longest(stored_tree, derived)) if a != b)
        raise ModelFormatError(
            f"corrupt model file: stored tree differs from the layers' tree at node {first}"
        )
    return model


# ---------------------------------------------------------------------------
# config text files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"k_lrf", "num_points", "k_neighbors", "energy_threshold", "seed"}


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.replace(",", " ").split()]


def parse_config(text: str) -> ModelConfig:
    """Parse the flat ``key = value`` config format.

    ``num_points`` and ``k_neighbors`` take one integer per hop (whitespace
    or comma separated) and must have equal lengths; the remaining keys are
    scalars. Unknown keys and values that do not parse are errors naming
    the line.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = (lineno, val.strip())

    def parsed(key: str, parse, expected: str):
        lineno, val = values[key]
        try:
            return parse(val)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} expects {expected}, got {val!r}") from None

    if ("num_points" in values) != ("k_neighbors" in values):
        raise ValueError("num_points and k_neighbors must be given together")
    kwargs: dict = {}
    if "num_points" in values:
        pts = parsed("num_points", _parse_ints, "one integer per hop")
        ks = parsed("k_neighbors", _parse_ints, "one integer per hop")
        if len(pts) != len(ks):
            raise ValueError("num_points and k_neighbors must have one entry per hop")
        kwargs["hops"] = tuple(HopConfig(p, k) for p, k in zip(pts, ks))
    for key, parse, expected in (
        ("k_lrf", int, "an integer"),
        ("energy_threshold", float, "a number"),
        ("seed", int, "an integer"),
    ):
        if key in values:
            kwargs[key] = parsed(key, parse, expected)
    return ModelConfig(**kwargs)


def format_config(config: ModelConfig) -> str:
    """Inverse of :func:`parse_config`."""
    return "\n".join(
        [
            f"k_lrf = {config.k_lrf}",
            "num_points = " + " ".join(str(h.num_points) for h in config.hops),
            "k_neighbors = " + " ".join(str(h.k_neighbors) for h in config.hops),
            f"energy_threshold = {config.energy_threshold!r}",
            f"seed = {config.seed}",
        ]
    ) + "\n"
