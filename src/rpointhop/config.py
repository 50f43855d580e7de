"""The config text format and the configuration it describes.

:class:`HopConfig` and :class:`ModelConfig` hold a model's point budgets,
neighborhood sizes, LRF neighbors, energy threshold and seed, and refuse
out-of-range values on construction. :func:`parse_config` reads the flat
``key = value`` text format (one line per key, ``#`` comments, per-hop
lists for ``num_points`` and ``k_neighbors``) that ``rpointhop train
--config`` takes, naming the line of each refused key; :func:`format_config`
writes it back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import _content_lines


class _ConfigRefusal(ValueError):
    """A config value out of range; ``keys`` are the config text keys it
    concerns, so that :func:`parse_config` can name their lines."""

    def __init__(self, message: str, *keys: str) -> None:
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class HopConfig:
    """Point budget and neighborhood size for one hop."""

    num_points: int
    k_neighbors: int

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise _ConfigRefusal("num_points must be positive", "num_points")
        if self.k_neighbors < 8:
            raise _ConfigRefusal("k_neighbors must be >= 8 (one point per octant on average)", "k_neighbors")
        if self.k_neighbors > self.num_points:
            raise _ConfigRefusal("k_neighbors cannot exceed num_points at that hop", "k_neighbors", "num_points")


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
            raise _ConfigRefusal("at least one hop is required", "num_points", "k_neighbors")
        object.__setattr__(self, "hops", hops)
        if self.k_lrf < 3:
            raise _ConfigRefusal("k_lrf must be >= 3", "k_lrf")
        if self.k_lrf > hops[0].num_points:
            raise _ConfigRefusal("k_lrf cannot exceed the hop-1 point budget", "k_lrf", "num_points")
        for prev, nxt in zip(hops, hops[1:]):
            if nxt.num_points > prev.num_points:
                raise _ConfigRefusal("hop point budgets must be non-increasing", "num_points")
        if not 0.0 <= self.energy_threshold < np.inf:  # NaN fails this too
            raise _ConfigRefusal("energy_threshold must be finite and non-negative", "energy_threshold")
        if self.seed < 0:
            raise _ConfigRefusal(f"seed must be non-negative, got {self.seed}", "seed")


_CONFIG_KEYS = {"k_lrf", "num_points", "k_neighbors", "energy_threshold", "seed"}


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.replace(",", " ").split()]


def parse_config(text: str) -> ModelConfig:
    """Parse the flat ``key = value`` config format.

    ``num_points`` and ``k_neighbors`` take one integer per hop (whitespace
    or comma separated) and must be given together, with equal lengths; the
    remaining keys are scalars. Comment lines count toward line numbers.
    Unknown keys, keys set twice and values that do not parse are errors
    naming the line. So are pairing refusals and those of :class:`HopConfig`
    and :class:`ModelConfig`, which name the line of each key they concern
    that the text sets: ``config lines 2 and 3: k_neighbors cannot exceed
    num_points at that hop``.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, stripped in _content_lines(text.splitlines()):
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            first = values[key][0]
            raise ValueError(f"config line {lineno}: duplicate key {key!r} (first set on line {first})")
        values[key] = (lineno, val.strip())

    def parsed(key: str, parse, expected: str):
        lineno, val = values[key]
        try:
            return parse(val)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} expects {expected}, got {val!r}") from None

    pair = ("num_points", "k_neighbors")
    kwargs: dict = {}
    try:
        if (pair[0] in values) != (pair[1] in values):
            raise _ConfigRefusal("num_points and k_neighbors must be given together", *pair)
        if "num_points" in values:
            pts, ks = (parsed(key, _parse_ints, "one integer per hop") for key in pair)
            if len(pts) != len(ks):
                raise _ConfigRefusal("num_points and k_neighbors must have one entry per hop", *pair)
        for key, parse, expected in (
            ("k_lrf", int, "an integer"),
            ("energy_threshold", float, "a number"),
            ("seed", int, "an integer"),
        ):
            if key in values:
                kwargs[key] = parsed(key, parse, expected)
        if "num_points" in values:
            kwargs["hops"] = tuple(HopConfig(p, k) for p, k in zip(pts, ks))
        return ModelConfig(**kwargs)
    except _ConfigRefusal as exc:  # the defaults pass, so the text sets one of its keys at least
        lines = sorted(values[key][0] for key in exc.keys if key in values)
        where = f"lines {lines[0]} and {lines[1]}" if len(lines) > 1 else f"line {lines[0]}"
        raise ValueError(f"config {where}: {exc}") from None


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
