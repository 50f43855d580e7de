"""Saab transforms and the channel energy tree.

A Saab layer is a data-driven orthonormal linear map plus one shared bias.
Filters come in two kinds:

* the DC filter, the constant unit vector (1/sqrt(N)) * [1, ..., 1];
* AC filters, the leading principal components of the training samples
  after their DC projection is removed and the residuals are mean-centered.

The bias is the largest training-sample norm. Since every filter has unit
norm, a_k . v + b >= b - ||v|| >= 0 for any input inside the training
norm ball, so outputs of cascaded layers stay non-negative and the cascade
minus its biases is a plain linear map.

Each filter carries a normalized energy (DC: variance of the DC
coefficients; AC: PCA eigenvalues; all divided by their total). Energies
multiply down the hop hierarchy in a :class:`FeatureTree`: a child's
cumulative energy is its parent's cumulative energy times the child's
within-transform fraction. Nodes at or below the energy threshold are
discarded outright, children and all; there is no leaf-collection of
low-energy nodes. Surviving nodes at the last hop form the output feature
dimensions. The tree thus follows from the layers' energies and the
threshold alone: a model derives it from its layers, and a model file whose
stored tree disagrees is rejected (see :mod:`rpointhop.pipeline`).

:func:`freeze_hop` freezes a trained hop into a :class:`HopPlan`, so that
applying it is one batched matrix product, a bias add and a gather, with no
tree walk.
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


def saab_fit(samples: np.ndarray) -> SaabLayer:
    """Fit one Saab layer to (S, N) training samples.

    Every AC filter with numerically nonzero variance is kept; channels are
    pruned afterwards, by cumulative energy on the :class:`FeatureTree`.
    """
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
    # remove the DC projection per sample: dc is constant, so the outer
    # product dc_coeffs ⊗ dc is the column dc_coeffs * dc[0] broadcast
    centered = x - (dc_coeffs * dc[0])[:, None]
    centered -= centered.mean(axis=0)
    cov = centered.T @ centered / s
    w, v = np.linalg.eigh(cov)
    w = w[::-1]
    v = v[:, ::-1]

    # kept AC dims: positive eigenvalues above numerical noise, at most
    # n-1 of them (the DC direction always carries a spurious zero here)
    floor = max(w[0], 0.0) * _EIG_CUTOFF
    keep = min(int(np.count_nonzero(w > floor)), n - 1)

    dc_energy = float(dc_coeffs.var())
    ac_filters = v[:, :keep].T.copy()
    kept_energy = dc_energy + float(w[:keep].sum())
    if kept_energy <= 0.0:
        energies = np.zeros(1 + keep)
        energies[0] = 1.0  # degenerate layer: all mass assigned to DC
    else:
        energies = np.concatenate([[dc_energy], w[:keep]]) / kept_energy
    bias = _max_row_norm(x, out=centered)
    return SaabLayer(dc_filter=dc, ac_filters=ac_filters, bias=bias, energies=energies)


_NORM_SCREEN = 1e-12  # relative slack of the row screen, far above its few-ulp rounding gap


def _max_row_norm(x: np.ndarray, out: np.ndarray) -> float:
    """``np.linalg.norm(x, axis=1).max()``, bit for bit and with the same
    floating-point warnings, using ``out`` (x's shape) as a work buffer.

    The squares are the same ``multiply`` the norm runs, so they raise the
    same overflow and underflow flags. A silent ``einsum`` row sum screens
    the rows, and ``add.reduce``, the norm's own summation, sums only those
    within a relative 1e-12 of the largest; a row whose sum overflows in
    ``add.reduce``'s order lies among them. When a screened sum overflows,
    every row is summed, since another row's sum may overflow in
    ``add.reduce``'s order alone and must warn as before.
    """
    squares = np.multiply(x, x, out=out)
    screen = np.einsum("sn->s", squares)
    top = float(screen.max())  # Python float arithmetic raises no flag on underflow
    if top < np.inf:
        squares = squares[screen >= top * (1.0 - _NORM_SCREEN)]
    return float(np.sqrt(np.add.reduce(squares, axis=1).max()))


def saab_apply(layer: SaabLayer, v: np.ndarray) -> np.ndarray:
    """Apply a layer: y_k = a_k . v + bias for every kept filter.

    Accepts one vector (N,) or a batch (S, N). Inputs outside the training
    norm ball (||v|| > bias + 1e-9) are transformed as-is; their outputs may
    be negative. When the module logger is enabled for DEBUG they are
    counted and logged.
    """
    arr = np.asarray(v, dtype=np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != layer.input_dim:
        raise ValueError(
            f"input width {arr.shape[1]} does not match layer input_dim {layer.input_dim}"
        )
    if logger.isEnabledFor(logging.DEBUG):  # the count is for the log alone
        over = int(np.count_nonzero(np.linalg.norm(arr, axis=1) > layer.bias + 1e-9))
        if over:
            logger.debug("saab_apply: %d of %d inputs exceed the training norm ball", over, len(arr))
    out = arr @ layer.filters.T + layer.bias
    return out[0] if single else out


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

    ``filters[c]`` is the transposed (N, K) filter bank of the hop's c-th
    parent channel, zero-padded to the widest layer of the hop, and
    ``biases[c]`` its bias. ``slots`` holds ``c * K + channel`` for every
    surviving child, in node-id order.
    """

    filters: np.ndarray  # (C, N, K)
    biases: np.ndarray  # (C,)
    slots: np.ndarray  # (C',)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform (P, N, C) inputs, channel c's samples in ``x[:, :, c]``,
        into the (P, C') surviving outputs. As in :func:`saab_apply`, inputs
        outside a layer's norm ball are transformed as-is, and counted and
        logged only when the module logger is enabled for DEBUG."""
        c, _, k = self.filters.shape
        xt = x.transpose(2, 0, 1)
        if logger.isEnabledFor(logging.DEBUG):  # the count is for the log alone
            over = int(np.count_nonzero(np.linalg.norm(xt, axis=2) > self.biases[:, None] + 1e-9))
            if over:
                logger.debug("hop plan: %d of %d inputs exceed the training norm ball", over, c * len(x))
        # xt stays a view: each channel's product then takes the same numpy
        # matmul path as saab_apply(layer, x[:, :, c]), and gives the same bits
        out = np.matmul(xt, self.filters)
        out += self.biases[:, None, None]
        # slot c * K + channel of row p sits at c * P * K + p * K + channel of
        # the (C, P, K) product; one take gathers the C-ordered (P, C') rows
        # that the next hop's gathers read fastest
        rows = np.arange(len(x))[:, None] * k
        return np.take(out, rows + (self.slots // k * len(x) * k + self.slots % k))


def freeze_hop(
    tree: FeatureTree, layers: Mapping[int, SaabLayer], parent_ids: Sequence[int]
) -> tuple[HopPlan, list[int]]:
    """Freeze the hop below ``parent_ids`` (the previous hop's surviving node
    ids, ascending; ``[0]``, the root, for hop 1), whose transforms
    ``layers`` maps by exactly those ids and whose children
    :func:`propagate_energy` appended from those layers' energies. Returns
    the plan and the surviving children's node ids, the next hop's parents.
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
    # node ids are list positions, so the survivors come out ascending
    kept = [n for n in tree.nodes if n.parent in column and n.status != STATUS_DISCARDED]
    slots = np.array([column[n.parent] * k + n.channel for n in kept], dtype=np.intp)
    return HopPlan(filters, biases, slots), [n.node_id for n in kept]
