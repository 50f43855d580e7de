"""Saab transforms and the channel energy tree.

A Saab layer is a data-driven orthonormal linear map plus one shared bias.
Filters come in two kinds:

* the DC filter, the constant unit vector (1/sqrt(N)) * [1, ..., 1];
* AC filters, the leading principal components of the training samples
  after their DC projection is removed and the residuals are mean-centered.

The bias is the largest training-sample norm. Since every filter has unit
norm, a_k . v + b >= b - ||v|| >= 0 for any input inside the training
norm ball, so outputs of cascaded layers stay non-negative and the cascade
minus its biases is a plain linear map. A layer reads its samples only
through their count, covariance and largest norm (:class:`SampleMoments`):
:func:`saab_fit` has one body, and fits an (S, N) array through its moments.

Each filter carries a normalized energy (DC: variance of the DC
coefficients; AC: PCA eigenvalues; all divided by their total). Energies
multiply down the hop hierarchy in a :class:`FeatureTree`: a child's
cumulative energy is its parent's cumulative energy times the child's
within-transform fraction. Nodes at or below the energy threshold are
discarded outright, children and all; there is no leaf-collection of
low-energy nodes. Surviving nodes at the last hop form the output feature
dimensions. The tree thus follows from the layers' energies and the
threshold alone: a model derives it from its layers, and a model file whose
stored tree disagrees is rejected (see :mod:`rpointhop.modelfile`).

:func:`freeze_hop` freezes a trained hop into a :class:`HopPlan` that keeps
the children its caller names, so that applying it is one batched matrix
product, a bias add and a gather, with no tree walk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_EIG_CUTOFF = 1e-10  # relative eigenvalue floor: drops numerically-null dims

STATUS_INTERMEDIATE = "intermediate"
STATUS_DISCARDED = "discarded"
STATUS_OUTPUT = "output"


@dataclass(frozen=True)
class SaabLayer:
    dc_filter: np.ndarray  # (N,)
    ac_filters: np.ndarray  # (K-1, N)
    bias: float
    energies: np.ndarray  # (K,) normalized, DC first

    @property
    def input_dim(self) -> int:
        return self.dc_filter.shape[0]

    @property
    def kept_dim(self) -> int:
        return 1 + self.ac_filters.shape[0]

    @property
    def filters(self) -> np.ndarray:
        """(K, N) stacked filter bank, DC row first."""
        return np.vstack([self.dc_filter[None, :], self.ac_filters])

    def param_count(self) -> int:
        """Stored parameters: filter entries plus the shared bias."""
        return self.filters.size + 1


@dataclass(frozen=True)
class SampleMoments:
    """Count, mean, population covariance and largest squared row norm of
    (S, N) samples, or of C channels' samples over one count with a leading
    channel axis, ``moments[c]`` being channel c's. ``len`` is the count."""

    count: int
    mean: np.ndarray
    cov: np.ndarray
    max_sq_norm: np.ndarray

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, channel: int) -> SampleMoments:
        return SampleMoments(self.count, self.mean[channel], self.cov[channel], self.max_sq_norm[channel])

    def merge(self, other: SampleMoments) -> SampleMoments:
        """Both sample sets' moments, by Chan, Golub & LeVeque's pairwise update (1979)."""
        n = self.count + other.count
        delta = other.mean - self.mean
        cov = (self.count * self.cov + other.count * other.cov) / n
        cov += delta[..., :, None] * delta[..., None, :] * (self.count * other.count / n / n)
        mean = self.mean + delta * (other.count / n)
        return SampleMoments(n, mean, cov, np.maximum(self.max_sq_norm, other.max_sq_norm))

    @staticmethod
    def of(a: np.ndarray) -> SampleMoments:
        """The per-channel moments of (P, N, C) samples ``a``, centered in place.

        Each covariance row i is one ``einsum`` over its upper triangle
        ``[i, i:]``, mirrored below the diagonal: the bits of
        ``einsum("pnc,pmc->cnm")``, since products commute exactly and each
        entry still sums over p in order, in about a third of its time. The
        (C, N, N) covariances keep that ``einsum``'s channel-minor memory: the
        matmuls of a fit read one channel's matrix, and which loop they take,
        hence their bits, depends on its strides. Underflow is ignored
        whatever the caller's :func:`numpy.errstate`, so tiny samples reduce
        to the same bits under any of them."""
        p, n, c = a.shape
        with np.errstate(under="ignore"):
            max_sq_norm = np.einsum("pnc,pnc->pc", a, a).max(axis=0)
            mean = a.mean(axis=0)
            a -= mean
            cov = np.empty((n, n, c))
            for i in range(n):
                np.einsum("pc,pmc->mc", a[:, i], a[:, i:], out=cov[i, i:])
                cov[i + 1 :, i] = cov[i, i + 1 :]
            cov /= p
        return SampleMoments(p, mean.T, cov.transpose(2, 0, 1), max_sq_norm)


def saab_fit(samples: np.ndarray | SampleMoments) -> SaabLayer:
    """Fit one Saab layer to one channel's :class:`SampleMoments`, whose
    covariance C gives the AC covariance P C P (P = I - dc dc^T), the DC
    energy dc^T C dc and, from the largest squared norm, the bias. (S, N)
    training samples are fit through their moments
    (:meth:`SampleMoments.of`), so pools whose squares overflow are refused
    as non-finite.

    Every AC filter with numerically nonzero variance is kept; channels are
    pruned afterwards, by cumulative energy on the :class:`FeatureTree`.
    """
    if not isinstance(samples, SampleMoments):
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"samples must be 2-D (S, N), got shape {x.shape}")
        if len(x) < 2:
            raise ValueError("need at least 2 samples to fit a Saab layer")
        if not np.isfinite(x).all():
            raise ValueError("samples contain non-finite values")
        samples = SampleMoments.of(x[:, :, None].copy())[0]  # a copy: the moments center in place
    if samples.mean.ndim != 1:
        raise ValueError(f"moments must be of one channel, got mean shape {samples.mean.shape}")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to fit a Saab layer")
    if not all(np.isfinite(a).all() for a in (samples.mean, samples.cov, samples.max_sq_norm)):
        raise ValueError("samples contain non-finite values")

    with np.errstate(under="ignore"):  # as in SampleMoments.of, so no caller's errstate changes a fit
        n = len(samples.mean)
        dc = np.full(n, 1.0 / np.sqrt(n))
        ac = np.eye(n) - np.outer(dc, dc)
        w, v = np.linalg.eigh(ac @ samples.cov @ ac)
        w = w[::-1]
        v = v[:, ::-1]

        # kept AC dims: positive eigenvalues above numerical noise, at most
        # n-1 of them (the DC direction always carries a spurious zero here);
        # the squares' rounding floors a pool of one repeated row, all noise
        floor = max(max(w[0], 0.0) * _EIG_CUTOFF, n * np.finfo(np.float64).eps * float(samples.max_sq_norm))
        keep = min(int(np.count_nonzero(w > floor)), n - 1)

        dc_energy = float(dc @ samples.cov @ dc)
        ac_filters = v[:, :keep].T.copy()
        kept_energy = dc_energy + float(w[:keep].sum())
        if kept_energy <= 0.0:
            energies = np.zeros(1 + keep)
            energies[0] = 1.0  # degenerate layer: all mass assigned to DC
        else:
            energies = np.concatenate([[dc_energy], w[:keep]]) / kept_energy
        bias = float(np.sqrt(samples.max_sq_norm))
    return SaabLayer(dc_filter=dc, ac_filters=ac_filters, bias=bias, energies=energies)


def saab_apply(layer: SaabLayer, v: np.ndarray) -> np.ndarray:
    """Apply a layer to an (S, N) batch: y_k = a_k . v + bias for every kept
    filter and every row v. The layer is applied as the one-channel
    :class:`HopPlan` that keeps every filter, so inputs outside the training
    norm ball (||v|| > bias + 1e-9) are transformed as-is, their outputs may
    be negative, and they are counted and logged ("hop plan: …") only when
    the module logger is enabled for DEBUG. One vector is refused: pass it
    as a (1, N) batch.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != layer.input_dim:
        raise ValueError(f"input of shape {arr.shape} is not an (S, N) batch of layer input_dim {layer.input_dim}")
    plan = HopPlan(layer.filters.T[None], np.array([layer.bias]), np.arange(layer.kept_dim))
    return plan.apply(arr[:, :, None])


def cw_saab_fit(per_channel_samples: Mapping[int, np.ndarray]) -> dict[int, SaabLayer]:
    """Independent Saab fit per input channel (channel-wise Saab).

    Keys identify channels; each value is that channel's (S, N) sample
    block. Returns one layer per key. The combined parameter count is far
    below a joint fit on the concatenated width, which is the point.
    """
    if not per_channel_samples:
        raise ValueError("no channels to fit")
    return {ch: saab_fit(block) for ch, block in sorted(per_channel_samples.items())}


# ---------------------------------------------------------------------------
# energy tree
# ---------------------------------------------------------------------------


@dataclass
class FeatureNode:
    node_id: int
    hop: int
    parent: int  # -1 for the root
    channel: int  # output slot within the parent's transform; -1 for root
    fraction: float  # within-transform normalized energy
    cumulative: float
    status: str


@dataclass
class FeatureTree:
    """Hierarchy of Saab output channels across hops.

    Node 0 is the virtual root (cumulative energy 1). Children are appended
    hop by hop via :func:`propagate_energy`; node ids are list positions.
    """

    nodes: list[FeatureNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nodes:
            self.nodes.append(
                FeatureNode(
                    node_id=0, hop=0, parent=-1, channel=-1,
                    fraction=1.0, cumulative=1.0, status=STATUS_INTERMEDIATE,
                )
            )

    def children(self, parent_id: int) -> list[FeatureNode]:
        return [n for n in self.nodes if n.parent == parent_id]

    def output_dim(self) -> int:
        return sum(1 for n in self.nodes if n.status == STATUS_OUTPUT)


def propagate_energy(
    tree: FeatureTree,
    transform_energies: Mapping[int, Sequence[float]],
    threshold: float,
    final: bool = False,
) -> FeatureTree:
    """Append one hop of children below the given parents.

    ``transform_energies`` maps parent node id to that parent transform's
    normalized energy fractions (one per output channel, DC first). Each
    child's cumulative energy is parent.cumulative * fraction; children at
    or below ``threshold`` are discarded, the rest are intermediate, or
    output when ``final`` is set. Parents are processed in ascending node id
    order so child ids are deterministic.
    """
    if not 0.0 <= threshold < np.inf:  # NaN fails this too
        raise ValueError("threshold must be finite and non-negative")
    if abs(tree.nodes[0].cumulative - 1.0) > 1e-12:
        raise ValueError("root energy must be 1")
    if not transform_energies:
        raise ValueError("no parent transforms supplied")
    parent_ids = sorted(transform_energies)
    hops = {tree.nodes[p].hop for p in parent_ids}
    if len(hops) != 1:
        raise ValueError(f"parents span multiple hops: {sorted(hops)}")
    child_hop = hops.pop() + 1
    for pid in parent_ids:
        parent = tree.nodes[pid]
        if parent.status == STATUS_DISCARDED:
            raise ValueError(f"node {pid} is discarded and cannot have children")
        fractions = np.asarray(transform_energies[pid], dtype=np.float64)
        if np.any(fractions < 0.0):
            raise ValueError(f"negative energy fraction under node {pid}")
        for ch, frac in enumerate(fractions):
            cum = parent.cumulative * float(frac)
            if cum > threshold:
                status = STATUS_OUTPUT if final else STATUS_INTERMEDIATE
            else:
                status = STATUS_DISCARDED
            tree.nodes.append(
                FeatureNode(
                    node_id=len(tree.nodes), hop=child_hop, parent=pid,
                    channel=ch, fraction=float(frac), cumulative=cum, status=status,
                )
            )
    return tree


@dataclass(frozen=True)
class HopPlan:
    """One hop of the energy tree frozen into arrays.

    ``filters[c]`` is the transposed (N, K) filter bank of the plan's c-th
    parent channel, zero-padded to the widest layer of the hop, and
    ``biases[c]`` its bias. ``slots`` holds ``c * K + channel`` for every
    child the plan keeps, in node-id order.
    """

    filters: np.ndarray  # (C, N, K)
    biases: np.ndarray  # (C,)
    slots: np.ndarray  # (C',)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform (P, N, C) inputs, channel c's samples in ``x[:, :, c]``,
        into the (P, C') kept outputs. Inputs outside a layer's norm ball
        are transformed as-is, and counted and logged only when the module
        logger is enabled for DEBUG; the count covers the plan's own C
        channels. :func:`saab_apply` is the one-channel case."""
        c, _, k = self.filters.shape
        xt = x.transpose(2, 0, 1)
        if logger.isEnabledFor(logging.DEBUG):  # the count is for the log alone
            over = int(np.count_nonzero(np.linalg.norm(xt, axis=2) > self.biases[:, None] + 1e-9))
            if over:
                logger.debug("hop plan: %d of %d inputs exceed the training norm ball", over, c * len(x))
        # xt stays a view: each channel's product then takes the numpy matmul
        # path of the 2-D x[:, :, c] @ self.filters[c], and gives its bits
        out = np.matmul(xt, self.filters)
        out += self.biases[:, None, None]
        # slot c * K + channel of row p sits at c * P * K + p * K + channel of
        # the (C, P, K) product; one take gathers the C-ordered (P, C') rows
        # that the next hop's gathers read fastest
        rows = np.arange(len(x))[:, None] * k
        return np.take(out, rows + (self.slots // k * len(x) * k + self.slots % k))

    def block(self, channels: slice) -> tuple[HopPlan, slice]:
        """The plan of the parent channels ``channels`` (a step-1 slice) and
        the run of this plan's output columns that it keeps. Slots ascend
        with their parent, so a block's kept children are one contiguous
        run, and ``block.apply(x[:, :, channels])`` gives those columns of
        ``apply(x)`` bit for bit whenever both inputs take the same matmul
        loop, that is unless exactly one of them is one channel wide."""
        start, stop, _ = channels.indices(len(self.biases))
        k = self.filters.shape[2]
        lo, hi = np.searchsorted(self.slots, [start * k, stop * k])
        sub = HopPlan(self.filters[start:stop], self.biases[start:stop], self.slots[lo:hi] - start * k)
        return sub, slice(int(lo), int(hi))


def freeze_hop(
    tree: FeatureTree, layers: Mapping[int, SaabLayer], parent_ids: Sequence[int], kept_ids: Sequence[int]
) -> HopPlan:
    """Freeze the hop below ``parent_ids`` (node ids of the previous hop,
    ascending; ``[0]``, the root, for hop 1), whose transforms ``layers``
    maps by at least those ids, into a plan whose slots are the children
    ``kept_ids`` (ascending node ids, each a child of one of the parents).
    Raises ValueError when the layers differ in input width.
    """
    column = {pid: c for c, pid in enumerate(parent_ids)}
    widths = {layer.input_dim for layer in layers.values()}
    if len(widths) != 1:
        raise ValueError(f"layers of one hop differ in input width: {sorted(widths)}")
    k = max(layer.kept_dim for layer in layers.values())
    filters = np.zeros((len(column), widths.pop(), k))
    biases = np.empty(len(column))
    for pid, c in column.items():
        filters[c, :, : layers[pid].kept_dim] = layers[pid].filters.T
        biases[c] = layers[pid].bias
    kept = [tree.nodes[i] for i in kept_ids]
    slots = np.array([column[n.parent] * k + n.channel for n in kept], dtype=np.intp)
    return HopPlan(filters, biases, slots)
