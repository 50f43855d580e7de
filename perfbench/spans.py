"""Outside-in tracing of rpointhop's layers.

The tracer wraps public callables of the program for the duration of a
``with tracer.recording(phase):`` block and restores the originals when the
block ends. Each wrapped call appends one span to an in-memory list: the
layer name, start and end (``time.perf_counter``), the index of the span
that was open when it started (its parent, -1 for none), the id of the
enclosing ``register()`` call (-1 outside one), the phase label and the
seconds the tracer spent after the call counting its work. That time lies
inside the parent's span, and the derived times leave it out. Spans are
written out once, when the run ends.

Each per-layer metric sums the spans of the phases it belongs to (see
:data:`PER_LAYER`): the register path over every ``register()`` call of the
run (the set-up sentinels and the timed pass), the fit path over the
``train()`` call, model I/O over save and load, and input synthesis over the
whole run. A ``train.`` prefix reads a register-path layer over ``train()``.

Names are patched where their caller looks them up. Modules bind imported
names at import time, so ``pipeline.fps_indices``, ``pipeline.saab_apply``
and ``registration.estimate_transform`` are patched in the modules that
call them, and methods are patched on their class. A hook whose target no
longer exists is recorded as absent: its metrics read 0 and its name is
listed in the run's detail record, so that a program that deleted or
renamed a callable still runs under the same benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGN_TIE_MARGIN = 1e-6  # a sign margin below this is a degenerate frame
BALL_SLACK = 1e-9  # saab_apply's own tolerance on the training norm ball


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _knn_work(args, kwargs, result) -> dict:
    return {"rows": len(result[0]) if np.ndim(result[0]) == 2 else 1}


def _fps_work(args, kwargs, result) -> dict:
    return {"picks": len(result)}


def _pca_work(args, kwargs, result) -> dict:
    return {"frames": len(result[0])}


def _signs_work(args, kwargs, result) -> dict:
    margins = result[1]
    return {
        "rows": margins.shape[0],
        "margins": margins.size,
        "ties": int(np.count_nonzero(margins < SIGN_TIE_MARGIN)),
    }


def _fit_work(args, kwargs, result) -> dict:
    return {"samples": len(_arg(args, kwargs, 0, "samples"))}


def _apply_work(args, kwargs, result) -> dict:
    layer = _arg(args, kwargs, 0, "layer")
    rows = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "v"), dtype=np.float64))
    over = np.linalg.norm(rows, axis=1) > layer.bias + BALL_SLACK
    return {"rows": len(rows), "out_of_ball": int(np.count_nonzero(over))}


def _match_work(args, kwargs, result) -> dict:
    return {"kept": len(result), "candidates": len(_arg(args, kwargs, 0, "target"))}


def _ransac_work(args, kwargs, result) -> dict:
    from rpointhop.registration import RansacParams

    corr = _arg(args, kwargs, 0, "corr")
    params = args[1] if len(args) > 1 else kwargs.get("params", RansacParams())
    radius = params.inlier_radius
    pred = corr.target_coords @ result.rotation.T + result.translation
    res = np.linalg.norm(pred - corr.source_coords, axis=1)
    return {"pairs": len(corr), "inliers": int(np.count_nonzero(res < radius))}


def _icp_work(args, kwargs, result) -> dict:
    return {"iters": result.iterations, "converged": int(result.converged)}


def _save_work(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``owner`` is a module path, optionally followed
    by a class name (``rpointhop.spatial:KnnIndex``)."""

    layer: str
    owner: str
    attr: str
    work: Callable[[tuple, dict, object], dict] | None = None


REGISTER_LAYER = "registration.register"

HOOKS = (
    Hook("spatial.knn", "rpointhop.spatial:KnnIndex", "query", _knn_work),
    Hook("spatial.fps", "rpointhop.pipeline", "fps_indices", _fps_work),
    Hook("lrf.local_pca", "rpointhop.pipeline", "local_pca_batch", _pca_work),
    Hook("lrf.resolve_signs", "rpointhop.pipeline", "resolve_signs_batch", _signs_work),
    Hook("pipeline.hop1_attrs", "rpointhop.pipeline", "build_hop1_attributes"),
    Hook("pipeline.later_attrs", "rpointhop.pipeline", "build_later_hop_attributes"),
    Hook("pipeline.extract", "rpointhop.registration", "extract_features"),
    Hook("pipeline.train", "rpointhop", "train"),
    Hook("pipeline.save_model", "rpointhop", "save_model", _save_work),
    Hook("pipeline.load_model", "rpointhop", "load_model"),
    Hook("saab.fit", "rpointhop.pipeline", "saab_fit", _fit_work),
    Hook("saab.fit", "rpointhop.saab", "saab_fit", _fit_work),
    Hook("saab.apply", "rpointhop.pipeline", "saab_apply", _apply_work),
    Hook("saab.tree_children", "rpointhop.saab:FeatureTree", "children"),
    Hook("saab.propagate_energy", "rpointhop.pipeline", "propagate_energy"),
    Hook("registration.match", "rpointhop.registration", "match", _match_work),
    Hook("registration.estimate", "rpointhop.registration", "estimate_transform"),
    Hook("registration.ransac", "rpointhop.registration", "ransac_estimate", _ransac_work),
    Hook("registration.icp", "rpointhop.registration", "icp_refine", _icp_work),
    Hook(REGISTER_LAYER, "rpointhop", "register"),
    Hook("bench.make_shape_corpus", "rpointhop.bench", "make_shape_corpus"),
    Hook("bench.make_partial", "rpointhop.bench", "make_partial"),
    Hook("bench.sample_rigid_transform", "rpointhop.bench", "sample_rigid_transform"),
    Hook("bench.add_noise", "rpointhop.bench", "add_noise"),
)

# input synthesis: set-up or the untimed part of a trial, never latency
SYNTH_LAYERS = (
    "bench.make_shape_corpus", "bench.make_partial",
    "bench.sample_rigid_transform", "bench.add_noise",
)

# phases a metric sums; None is every phase
REGISTER = ("checks", "timed")
TRAIN = ("train",)
PERSIST = ("persist",)
RUN = None

# per-layer metrics in output order: (name, unit, phases)
PER_LAYER = (
    ("spatial.knn.calls", "count", REGISTER),
    ("spatial.knn.rows", "count", REGISTER),
    ("spatial.knn.s", "s", REGISTER),
    ("spatial.fps.calls", "count", REGISTER),
    ("spatial.fps.picks", "count", REGISTER),
    ("spatial.fps.s", "s", REGISTER),
    ("lrf.local_pca.frames", "count", REGISTER),
    ("lrf.local_pca.s", "s", REGISTER),
    ("lrf.resolve_signs.rows", "count", REGISTER),
    ("lrf.resolve_signs.s", "s", REGISTER),
    ("lrf.sign_tie_frac", "ratio", REGISTER),
    ("pipeline.hop1_attrs.calls", "count", REGISTER),
    ("pipeline.hop1_attrs.self_s", "s", REGISTER),
    ("pipeline.later_attrs.calls", "count", REGISTER),
    ("pipeline.later_attrs.self_s", "s", REGISTER),
    ("pipeline.extract.calls", "count", REGISTER),
    ("pipeline.extract.s", "s", REGISTER),
    ("pipeline.extract.self_s", "s", REGISTER),
    ("saab.apply.calls", "count", REGISTER),
    ("saab.apply.rows", "count", REGISTER),
    ("saab.apply.s", "s", REGISTER),
    ("saab.apply.out_of_ball_frac", "ratio", REGISTER),
    ("saab.tree_children.calls", "count", REGISTER),
    ("saab.tree_children.s", "s", REGISTER),
    ("registration.match.calls", "count", REGISTER),
    ("registration.match.s", "s", REGISTER),
    ("registration.match.kept_frac", "ratio", REGISTER),
    ("registration.estimate.calls", "count", REGISTER),
    ("registration.estimate.s", "s", REGISTER),
    ("registration.ransac.s", "s", REGISTER),
    ("registration.ransac.self_s", "s", REGISTER),
    ("registration.ransac.inlier_frac", "ratio", REGISTER),
    ("registration.icp.calls", "count", REGISTER),
    ("registration.icp.s", "s", REGISTER),
    ("registration.icp.self_s", "s", REGISTER),
    ("registration.icp.iters", "count", REGISTER),
    ("registration.icp.converged_frac", "ratio", REGISTER),
    ("pipeline.train.self_s", "s", TRAIN),
    ("saab.fit.calls", "count", TRAIN),
    ("saab.fit.samples", "count", TRAIN),
    ("saab.fit.s", "s", TRAIN),
    ("saab.propagate_energy.s", "s", TRAIN),
    ("train.spatial.knn.s", "s", TRAIN),
    ("train.spatial.fps.s", "s", TRAIN),
    ("train.lrf.resolve_signs.s", "s", TRAIN),
    ("train.pipeline.later_attrs.self_s", "s", TRAIN),
    ("train.saab.apply.s", "s", TRAIN),
    ("train.saab.tree_children.s", "s", TRAIN),
    ("pipeline.save_model.s", "s", PERSIST),
    ("pipeline.load_model.s", "s", PERSIST),
    ("pipeline.model_bytes", "bytes", PERSIST),
    ("bench.make_shape_corpus.s", "s", RUN),
    ("bench.make_partial.calls", "count", RUN),
    ("bench.synth.s", "s", RUN),
    ("trace.overhead_s", "s", RUN),
    ("trace.overhead_frac", "ratio", RUN),
    ("trace.op_cover_frac", "ratio", RUN),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[list] = []  # [layer, start, end, parent, reg_id, phase, work_s]
        self.counters: dict[tuple[str, str], dict[str, int]] = {}  # (phase, layer) -> counts
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._reg_id = -1
        self._n_regs = 0
        self._phase = ""

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counters = self.counters.setdefault((self._phase, hook.layer), {})
        is_register = hook.layer == REGISTER_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_reg = self._reg_id
            if is_register:
                self._reg_id = self._n_regs
                self._n_regs += 1
            rec = [hook.layer, 0.0, 0.0, stack[-1] if stack else -1, self._reg_id, self._phase, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                self._reg_id = outer_reg
            if hook.work is not None:
                for key, value in hook.work(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
                rec[6] = time.perf_counter() - rec[2]
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Wrap every hook for the duration of the block."""
        saved = []
        self._phase = phase
        try:
            for hook in self.hooks:
                name = f"{hook.owner}.{hook.attr}"
                try:
                    owner = _resolve(hook.owner)
                except (ImportError, AttributeError):
                    owner = None
                original = vars(owner).get(hook.attr) if owner is not None else None
                if not inspect.isfunction(original):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((owner, hook.attr, original))
                setattr(owner, hook.attr, self._wrap(hook, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived numbers ----------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: inclusive and self seconds without the tracer's work
        counting. Inclusive time leaves out the counting done for every
        descendant; self time also leaves out the direct children."""
        n = len(self.spans)
        hidden = [0.0] * n  # counting time of all descendants
        children = [0.0] * n  # direct children's time, their counting included
        for i in range(n - 1, -1, -1):  # a child's index is above its parent's
            _, start, end, parent, _, _, work = self.spans[i]
            if parent >= 0:
                hidden[parent] += hidden[i] + work
                children[parent] += end - start + work
        inclusive = [rec[2] - rec[1] - hidden[i] for i, rec in enumerate(self.spans)]
        own = [rec[2] - rec[1] - children[i] for i, rec in enumerate(self.spans)]
        return inclusive, own

    def layer_times(self, phases=None) -> dict[str, dict[str, float]]:
        """Per layer, over spans of ``phases`` (None for all): call count,
        inclusive seconds and self seconds."""
        inclusive, own = self._durations()
        out: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            if phases is not None and rec[5] not in phases:
                continue
            row = out.setdefault(rec[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += inclusive[i]
            row["self_s"] += own[i]
        return out

    def work(self, phases=None) -> dict[str, dict[str, int]]:
        """Per layer, over ``phases`` (None for all): summed work counts."""
        out: dict[str, dict[str, int]] = {}
        for (phase, layer), counts in self.counters.items():
            if phases is None or phase in phases:
                row = out.setdefault(layer, {})
                for key, value in counts.items():
                    row[key] = row.get(key, 0) + value
        return out

    def child_cover(self, layer: str, phase: str) -> float:
        """Inclusive seconds of direct children of ``layer`` spans in ``phase``."""
        inclusive, _ = self._durations()
        roots = {i for i, rec in enumerate(self.spans) if rec[0] == layer and rec[5] == phase}
        return sum(inclusive[i] for i, rec in enumerate(self.spans) if rec[3] in roots)

    def metrics(self, overhead: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), in :data:`PER_LAYER` order.
        ``overhead`` supplies the ``trace.*`` values measured by the run."""
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        cache: dict = {}

        def views(phases):
            if phases not in cache:
                cache[phases] = (self.layer_times(phases), self.work(phases))
            return cache[phases]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name, unit, phases in PER_LAYER:
            times, counts = views(phases)

            def t(layer: str, key: str) -> float:
                return times.get(layer, zero)[key]

            def c(layer: str, key: str) -> int:
                return counts.get(layer, {}).get(key, 0)

            if name in overhead:
                value = overhead[name]
            elif name == "lrf.sign_tie_frac":
                value = ratio(c("lrf.resolve_signs", "ties"), c("lrf.resolve_signs", "margins"))
            elif name == "pipeline.model_bytes":
                value = ratio(c("pipeline.save_model", "bytes"), t("pipeline.save_model", "calls"))
            elif name == "saab.apply.out_of_ball_frac":
                value = ratio(c("saab.apply", "out_of_ball"), c("saab.apply", "rows"))
            elif name == "registration.match.kept_frac":
                value = ratio(c("registration.match", "kept"), c("registration.match", "candidates"))
            elif name == "registration.ransac.inlier_frac":
                value = ratio(c("registration.ransac", "inliers"), c("registration.ransac", "pairs"))
            elif name == "registration.icp.converged_frac":
                value = ratio(c("registration.icp", "converged"), t("registration.icp", "calls"))
            elif name == "bench.synth.s":
                value = sum(t(layer, "s") for layer in SYNTH_LAYERS)
            else:
                layer, key = name.removeprefix("train.").rsplit(".", 1)
                value = t(layer, key) if key in zero else c(layer, key)
            out[name] = (value, unit)
        return out

    def dump(self, path) -> None:
        """Write every span, with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [layer, start - t0, end - t0, parent, reg_id, phase, work]
            for layer, start, end, parent, reg_id, phase, work in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": rows}, fh)
