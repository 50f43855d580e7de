"""The model file format.

A model file is the magic ``RPH1``, a little-endian uint32 format version,
a uint64 header length, a compact JSON header (the config, the pruned
energy tree one row per node, and each layer's input width, AC filter
count and bias), then every layer's DC filter, AC filters and energies as
little-endian float64, hop 1's layer first, then each later hop's layers
by parent node id. :func:`save_model` writes identical bytes for identical
models. :func:`load_model` refuses unknown versions, truncated or corrupt
files, header fields of the wrong JSON type, and files whose stored tree
differs from the one the model derives from its layers, all as
:class:`ModelFormatError`.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from itertools import zip_longest

import numpy as np

from .config import HopConfig, ModelConfig
from .pipeline import RPointHopModel
from .saab import FeatureTree, SaabLayer

MODEL_MAGIC = b"RPH1"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """A model file is corrupt or has an unsupported version."""


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
    # a count past the end is refused before read() tries to allocate it
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(count) if count <= left else b""
    if len(data) != count:
        raise ModelFormatError(f"corrupt model file: truncated while reading {what}")
    return data


def _read_array(fh, shape: tuple[int, ...]) -> np.ndarray:
    count = math.prod(shape)  # Python ints: a huge declared shape cannot wrap
    data = _read_exact(fh, count * 8, f"array {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _typed(value, kind: type):
    """A model header field of JSON type ``kind``. Counts, ids and the seed
    are integers, other values numbers (an integer is a number too), and
    statuses strings; a boolean is none of them."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"expected {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value)


def _read_layer(fh, input_dim, n_ac, bias) -> SaabLayer:
    n, n_ac = _typed(input_dim, int), _typed(n_ac, int)
    dc = _read_array(fh, (n,))
    ac = _read_array(fh, (n_ac, n))
    energies = _read_array(fh, (1 + n_ac,))
    return SaabLayer(dc_filter=dc, ac_filters=ac, bias=_typed(bias, float), energies=energies)


def load_model(path) -> RPointHopModel:
    """Read a model file written by :func:`save_model`. Rejects unknown
    versions, truncated or corrupt files, header fields of the wrong JSON
    type (:func:`_typed`), and files whose stored tree differs from the one
    the model derives from its layers."""
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
                k_lrf=_typed(cfg["k_lrf"], int),
                hops=tuple(HopConfig(_typed(np_, int), _typed(k, int)) for np_, k in cfg["hops"]),
                energy_threshold=_typed(cfg["energy_threshold"], float),
                seed=_typed(cfg["seed"], int),
            )
            stored_tree = [
                [
                    _typed(hop, int), _typed(parent, int), _typed(channel, int),
                    _typed(fraction, float), _typed(cumulative, float), _typed(status, str),
                ]
                for hop, parent, channel, fraction, cumulative, status in header["tree"]
            ]
            hop1 = header["hop1"]
            hop1_layer = _read_layer(fh, hop1["input_dim"], hop1["n_ac"], hop1["bias"])
            later = [
                {_typed(pid, int): _read_layer(fh, input_dim, n_ac, bias) for pid, input_dim, n_ac, bias in hop_meta}
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
