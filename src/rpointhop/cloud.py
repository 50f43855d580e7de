"""Point cloud data model, file IO, and rigid transform utilities.

Conventions used throughout the package:

* coordinates are float64 arrays of shape (N, 3), one row per point;
* a rigid transform (R, t) maps a point p to R @ p + t;
* all stochastic operations take an explicit non-negative integer seed
  and draw from numpy's PCG64 generator (:func:`seeded_rng`), which is
  seedable and platform-stable. The PCG64 stream is part of the external
  contract: the same seed yields the same sample on any platform;
* text inputs skip blank lines and ``#`` comments but count them, so an
  error names the line as the file numbers it (:func:`_content_lines`);
  PLY's header comments are the keywords ``comment`` and ``obj_info``.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMATS = ("off", "ply", "xyz")

_ORTHO_TOL = 1e-9


class CloudParseError(ValueError):
    """A point cloud file could not be parsed, or holds a cloud that
    :class:`PointCloud` refuses. The message names the file, and the line
    of a parse failure."""


def _readonly_f64(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointCloud:
    """N points with 3D coordinates."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = _readonly_f64(np.atleast_2d(self.coords))
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise ValueError(f"coords must have shape (N, 3) with N >= 1, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coords contain non-finite values")
        # below this bound no squared distance, nor their sum over the
        # cloud, overflows: KNN's distances and normalization's norm stay finite
        with np.errstate(over="ignore"):
            extent = coords.max(axis=0) - coords.min(axis=0)
            reach = float(extent @ extent) * len(coords)
        if not math.isfinite(reach):
            raise ValueError("coords too large: the squared bounding-box diagonal times the point count overflows")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Sub-cloud at the given point indices."""
        return PointCloud(self.coords[np.asarray(indices, dtype=np.intp)])


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = _readonly_f64(self.rotation)
        t = _readonly_f64(self.translation).reshape(-1)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 components, got {t.shape}")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("transform contains non-finite values")
        if np.abs(r.T @ r - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9 (improper rotation)")
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------


def _parse_floats(tokens: list[str], lineno: int, path: str) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise CloudParseError(f"{path}: line {lineno}: non-numeric token ({exc})") from None


def _finite(vals: list[float], what: str, lineno: int, path: str) -> list[float]:
    """``vals``, once every one of them is finite."""
    if not all(math.isfinite(v) for v in vals):
        raise CloudParseError(f"{path}: line {lineno}: {what} must be finite, got {vals}")
    return vals


def _parse_count(token: str, lowest: int, what: str, lineno: int, path: str) -> int:
    """A header count: an integer of at least ``lowest``."""
    try:
        count = int(token)
    except ValueError:
        raise CloudParseError(f"{path}: line {lineno}: {what} must be an integer, got {token!r}") from None
    if count < lowest:
        raise CloudParseError(f"{path}: line {lineno}: {what} must be >= {lowest}, got {count}")
    return count


def _content_lines(lines: list[str]) -> list[tuple[int, str]]:
    """Each line that is neither blank nor a ``#`` comment, stripped, with
    its 1-based number."""
    return [(n, text) for n, text in enumerate(map(str.strip, lines), start=1) if text and text[0] != "#"]


def _load_off(lines: list[str], path: str) -> PointCloud:
    sig = _content_lines(lines)
    if not sig:
        raise CloudParseError(f"{path}: line 1: empty OFF file")
    lineno, header = sig[0]
    toks = header.split()
    joined = re.fullmatch(r"(OFF)([0-9]+)", toks[0], re.IGNORECASE)
    if joined:  # the variant some ModelNet40 files use: "OFF490 518 0"
        toks[:1] = joined.groups()
    if toks[0].upper() != "OFF":
        raise CloudParseError(f"{path}: line {lineno}: expected OFF header, got {toks[0]!r}")
    rest = sig[1:]
    if len(toks) > 1:
        # single-line variant: "OFF nv nf ne"
        counts = toks[1:]
    else:
        if not rest:
            raise CloudParseError(f"{path}: line {lineno}: missing vertex/face count line")
        (lineno, cline), rest = rest[0], rest[1:]
        counts = cline.split()
    if len(counts) < 2:
        raise CloudParseError(f"{path}: line {lineno}: count line needs at least nv and nf")
    nv = _parse_count(counts[0], 1, "vertex count", lineno, path)
    for what, tok in zip(("face count", "edge count"), counts[1:]):
        _parse_count(tok, 0, what, lineno, path)
    if len(rest) < nv:
        raise CloudParseError(
            f"{path}: line {rest[-1][0] if rest else lineno}: "
            f"expected {nv} vertex lines, found {len(rest)}"
        )
    coords = np.empty((nv, 3), dtype=np.float64)
    for row, (ln, text) in enumerate(rest[:nv]):
        vals = _parse_floats(text.split(), ln, path)
        if len(vals) < 3:
            raise CloudParseError(f"{path}: line {ln}: vertex needs 3 coordinates")
        coords[row] = _finite(vals[:3], "x, y and z", ln, path)
    return PointCloud(coords)


def _load_xyz(lines: list[str], path: str) -> PointCloud:
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, text in _content_lines(lines):
        toks = text.split()
        if len(toks) < 3:
            raise CloudParseError(f"{path}: line {lineno}: row needs at least 3 columns")
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise CloudParseError(
                f"{path}: line {lineno}: inconsistent column count "
                f"({len(toks)} vs {width})"
            )
        # columns past the third are not read, so they need not be numbers
        rows.append(_finite(_parse_floats(toks[:3], lineno, path), "x, y and z", lineno, path))
    if not rows:
        raise CloudParseError(f"{path}: line 1: no data rows")
    return PointCloud(np.asarray(rows, dtype=np.float64))


def _load_ply(lines: list[str], path: str) -> PointCloud:
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(f"{path}: line 1: expected 'ply' magic")
    elements: list[tuple[str, int, list[str]]] = []  # (name, count, property names)
    fmt_seen = False
    i = 1
    while i < len(lines):
        toks = lines[i].split()
        lineno = i + 1
        i += 1
        if not toks or toks[0] in ("comment", "obj_info"):
            continue
        if toks[0] == "format":
            if len(toks) < 2 or toks[1] != "ascii":
                raise CloudParseError(f"{path}: line {lineno}: only ascii PLY is supported")
            fmt_seen = True
        elif toks[0] == "element":
            if len(toks) != 3:
                raise CloudParseError(f"{path}: line {lineno}: malformed element line")
            lowest = 1 if toks[1] == "vertex" else 0
            cnt = _parse_count(toks[2], lowest, f"{toks[1]} count", lineno, path)
            elements.append((toks[1], cnt, []))
        elif toks[0] == "property":
            if not elements:
                raise CloudParseError(f"{path}: line {lineno}: property before any element")
            # list properties (faces) keep a placeholder name
            elements[-1][2].append(toks[-1])
        elif toks[0] == "end_header":
            break
        else:
            raise CloudParseError(f"{path}: line {lineno}: unknown header keyword {toks[0]!r}")
    else:
        raise CloudParseError(f"{path}: line {len(lines)}: missing end_header")
    if not fmt_seen:
        raise CloudParseError(f"{path}: line 2: missing format line")

    coords = None
    for name, count, props in elements:
        if name != "vertex":
            i += count  # skip this element's rows
            continue
        try:
            ix, iy, iz = props.index("x"), props.index("y"), props.index("z")
        except ValueError:
            raise CloudParseError(
                f"{path}: line 1: vertex element lacks x/y/z properties"
            ) from None
        if count > len(lines) - i:
            raise CloudParseError(f"{path}: line {len(lines)}: truncated vertex data")
        coords = np.empty((count, 3), dtype=np.float64)
        for row in range(count):
            lineno = i + 1
            vals = _parse_floats(lines[i].split(), lineno, path)
            i += 1
            if len(vals) < len(props):
                raise CloudParseError(
                    f"{path}: line {lineno}: expected {len(props)} values, got {len(vals)}"
                )
            coords[row] = _finite([vals[ix], vals[iy], vals[iz]], "x, y and z", lineno, path)
    if coords is None:
        raise CloudParseError(f"{path}: line 1: no vertex element")
    return PointCloud(coords)


def detect_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise ValueError(f"cannot infer point cloud format from extension of {path!s}")


def load_cloud(path: str | Path) -> PointCloud:
    """Load an ASCII point cloud file (``off``, ``ply``, or ``xyz``).

    The format comes from the file extension. Only coordinates are read:
    XYZ columns past the third and PLY vertex properties other than x, y
    and z (normals, colors) are ignored. Comments (see the module docstring)
    are skipped but counted, so parse failures, non-finite x, y or z
    included, raise :class:`CloudParseError` naming the offending line.
    """
    fmt = detect_format(path)
    lines = Path(path).read_text().splitlines()
    try:
        if fmt == "off":
            return _load_off(lines, str(path))
        if fmt == "ply":
            return _load_ply(lines, str(path))
        return _load_xyz(lines, str(path))
    except CloudParseError:
        raise
    except ValueError as exc:
        raise CloudParseError(f"{path}: {exc}") from None


def save_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud's coordinates as ASCII, 17 significant digits, in the
    format that the file extension names."""
    fmt = detect_format(path)
    n = len(cloud)
    if fmt == "off":
        out = ["OFF", f"{n} 0 0"]
    elif fmt == "ply":
        out = ["ply", "format ascii 1.0", f"element vertex {n}"]
        out += [f"property double {ax}" for ax in ("x", "y", "z")]
        out.append("end_header")
    else:  # xyz
        out = []
    out += [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in cloud.coords]
    Path(path).write_text("\n".join(out) + "\n")


_TRANSFORM_SIZES = {"rotation": 9, "translation": 3}


def _transform_lines(rotation: np.ndarray, translation: np.ndarray) -> list[str]:
    """The ``rotation`` (9 row-major numbers) and ``translation`` (3 numbers)
    lines of a transform file, 17 significant digits."""
    return [
        f"{key} " + " ".join(f"{v:.17g}" for v in np.ravel(values))
        for key, values in zip(_TRANSFORM_SIZES, (rotation, translation))
    ]


def save_transform(tf: RigidTransform, path: str | Path) -> None:
    """Write a transform as text: its :func:`_transform_lines`."""
    Path(path).write_text("\n".join(_transform_lines(tf.rotation, tf.translation)) + "\n")


def load_transform(path: str | Path) -> RigidTransform:
    """Read a transform file written by :func:`save_transform`. Comments
    and unknown keys are skipped. A missing key, a key set twice, a wrong
    count, a non-numeric or non-finite number or a rotation that is not
    proper orthonormal raises :class:`CloudParseError` naming the key or
    the lines."""
    found: dict[str, tuple[int, list[float]]] = {}
    for lineno, text in _content_lines(Path(path).read_text().splitlines()):
        key, *toks = text.split()
        if key in found:
            raise CloudParseError(f"{path}: line {lineno}: duplicate key {key!r} (first set on line {found[key][0]})")
        if key in _TRANSFORM_SIZES:
            vals = _parse_floats(toks, lineno, str(path))
            if len(vals) != _TRANSFORM_SIZES[key]:
                raise CloudParseError(f"{path}: line {lineno}: {key} needs {_TRANSFORM_SIZES[key]} numbers")
            found[key] = (lineno, _finite(vals, key, lineno, str(path)))
    missing = [key for key in _TRANSFORM_SIZES if key not in found]
    if missing:
        raise CloudParseError(f"{path}: missing key {' and '.join(map(repr, missing))}")
    rotation_line, rotation = found["rotation"]
    try:
        return RigidTransform(np.reshape(rotation, (3, 3)), found["translation"][1])
    except ValueError as exc:  # counts and finiteness hold, so the rotation is refused
        raise CloudParseError(f"{path}: line {rotation_line}: {exc}") from None


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center a cloud on its centroid and scale the farthest point to radius 1.

    A fully coincident cloud has scale 0; that case warns and uses scale 1
    so the output is the centered (all-zero) cloud.
    """
    centroid = cloud.coords.mean(axis=0)
    centered = cloud.coords - centroid
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale <= 0.0:
        warnings.warn("all points coincident; normalizing with scale 1", stacklevel=2)
        scale = 1.0
    return PointCloud(centered / scale)


def seeded_rng(seed: int, name: str = "seed") -> np.random.Generator:
    """numpy's PCG64 generator over ``seed``. A negative seed, which PCG64
    refuses without naming it, is refused as the argument ``name``."""
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def sample_indices(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct indices from range(n), drawn by a partial Fisher-Yates
    shuffle over the PCG64(seed) stream (one bounded draw per output, all
    m drawn by one array-bounded call: output i swaps with i + draw i,
    draw i uniform below n - i)."""
    if not 1 <= m <= n:
        raise ValueError(f"sample size {m} out of range for {n} points")
    rng = seeded_rng(seed)
    targets = (np.arange(m) + rng.integers(np.arange(n, n - m, -1))).tolist()
    idx = list(range(n))
    for i, j in enumerate(targets):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:m], dtype=np.intp)


def apply_transform(cloud: PointCloud, tf: RigidTransform) -> PointCloud:
    """Rigidly move the cloud: each point p becomes R @ p + t."""
    return PointCloud(cloud.coords @ tf.rotation.T + tf.translation)


def align_inverse(cloud: PointCloud, tf: RigidTransform) -> PointCloud:
    """Undo a transform: each point g becomes R.T @ (g - t). Used to map a
    source cloud back onto the target it was registered against."""
    return PointCloud((cloud.coords - tf.translation) @ tf.rotation)
