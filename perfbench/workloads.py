"""The benchmark's workloads, inputs, correctness checks and metrics.

Every input is synthesized here from the workload seed; the program only
receives the generated clouds. One process drives the program in a closed
loop with one caller: the next call starts when the previous one returns.

Each run trains a model in set-up, timing that one ``train()`` call, and
then times ``register()`` calls with the saved and reloaded model, so every
end-to-end metric is defined on every workload.

A ``register()`` that raises the program's typed refusal (``EstimationError``
or ``MatchingError``) is a failed operation: it counts in ``failed`` and in
``ok_frac``. Only a wrong output, a failed check or an untyped error makes a
run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import rpointhop
from rpointhop import bench
from rpointhop.pipeline import HopConfig, ModelConfig
from rpointhop.registration import MatchParams

import spans

WORKLOADS = ("register", "register_refine")

# end-to-end metrics in output order: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("register_p50_ms", "ms"),
    ("register_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("rot_err_p50_deg", "deg"),
    ("trans_err_p50", "unit"),
)

# Inputs. The training corpus is the acceptance suite's (clouds 0..49) on
# every seed, so that train time and the model do not change with the seed.
# Registration trials come in two parts. ``Sizes.panel`` trials are a fixed
# panel on held-out clouds 50.. ; the timed loop and every register metric
# use them. Per-trial errors span 5-35 degrees at 180 degrees, and with ICP
# per-trial latency spans 0.6-3.1 s, so medians over a seed-drawn mix move
# by 25-30% between seeds; on a fixed panel they move only when the program
# or the machine does. ``Sizes.drawn`` more trials are drawn from --seed on
# held-out clouds 1000 * (seed + 1).., disjoint from the corpus, the panel
# and other seeds. They run once, untimed, and are checked and counted in
# ``attempted`` and ``failed``.
CORPUS_SEED = 0
PANEL_CLOUD_SEED = 50
HELD_OUT_STRIDE = 1000

SENTINEL_TOL_DEG = 1e-6
SENTINEL_TOL_T = 1e-6
ORTHO_TOL = 1e-9

# the acceptance suite's two-hop partial-overlap configuration
PARTIAL_CONFIG = ModelConfig(
    hops=(HopConfig(768, 64), HopConfig(384, 32)), k_lrf=64, energy_threshold=0.001, seed=0
)


@dataclass(frozen=True)
class Recipe:
    """How a workload's registration trials are synthesized and run."""

    max_angle_deg: float
    partial_fraction: float
    noise_std: float
    use_ransac: bool
    icp: bool


# full overlap at up to 180 degrees per axis exercises the invariance claim;
# noise 0.01 gives a physical error floor instead of ~1e-7 deg rounding noise
FULL_180 = Recipe(max_angle_deg=180.0, partial_fraction=1.0, noise_std=0.01, use_ransac=False, icp=False)
# both clouds are cropped to 75% around independent anchors, so the overlap is
# partial; a typed refusal (EstimationError) is counted as a failed operation
PARTIAL_45 = Recipe(max_angle_deg=45.0, partial_fraction=0.75, noise_std=0.01, use_ransac=True, icp=True)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, the self-test shrinks them."""

    corpus_clouds: int = 50
    cloud_points: int = 1024
    default_config: ModelConfig = ModelConfig()
    partial_config: ModelConfig = PARTIAL_CONFIG
    match: MatchParams = MatchParams()
    panel: int = 10  # fixed trials: the timed loop and the register metrics
    drawn: int = 4  # seed-drawn trials, run once and checked
    setup_repeats: int = 3  # repeats of corpus synthesis and of save + load


@dataclass(frozen=True)
class Trial:
    source: rpointhop.PointCloud
    target: rpointhop.PointCloud
    rotation: np.ndarray  # ground truth: maps the target onto the source
    translation: np.ndarray
    seed: int  # register() seed


@dataclass
class Ledger:
    """Attempted operations, the ones that raised or failed a check, and
    among those the ones that make the run incorrect: everything but a
    typed refusal."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None, refused: bool = False) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            if not refused:
                self.wrong.append(f"{what}: {problem}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_trials(held_out, recipe: Recipe, entropy: list[int]) -> list[Trial]:
    """One trial per held-out cloud, drawn from PCG64(entropy)."""
    rng = np.random.Generator(np.random.PCG64(entropy))
    spec = bench.ExperimentSpec(max_angle_deg=recipe.max_angle_deg)
    trials = []
    for target in held_out:
        tf_seed, anchor_s, anchor_t, noise_seed, reg_seed = (int(v) for v in rng.integers(2**63, size=5))
        tf_gt, _ = bench.sample_rigid_transform(spec, tf_seed)
        source = rpointhop.apply_transform(target, tf_gt)
        if recipe.partial_fraction < 1.0:
            # independent anchors, as in bench.run_benchmark with partial_both
            source = bench.make_partial(source, recipe.partial_fraction, anchor_s)
            target = bench.make_partial(target, recipe.partial_fraction, anchor_t)
        source = bench.add_noise(source, recipe.noise_std, noise_seed)
        trials.append(Trial(source, target, tf_gt.rotation, tf_gt.translation, reg_seed))
    return trials


def fingerprint(corpus, held_out, trials) -> str:
    """Hash of every input the program receives; runs are comparable only
    when their fingerprints match."""
    h = hashlib.sha256()

    def add(arr) -> None:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())

    for cloud in (*corpus, *held_out):
        add(cloud.coords)
    for t in trials:
        for arr in (t.source.coords, t.target.coords, t.rotation, t.translation):
            add(arr)
        h.update(str(t.seed).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks and errors
# ---------------------------------------------------------------------------


def transform_problem(rotation, translation) -> str | None:
    """None for a finite proper rotation, else what is wrong with it."""
    r = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64)
    if r.shape != (3, 3) or t.shape != (3,):
        return f"bad transform shapes {r.shape}, {t.shape}"
    if not (np.isfinite(r).all() and np.isfinite(t).all()):
        return "non-finite transform"
    ortho = float(np.abs(r.T @ r - np.eye(3)).max())
    if ortho > ORTHO_TOL:
        return f"rotation not orthonormal (|RtR - I| = {ortho:.3e})"
    if np.linalg.det(r) <= 0.0:
        return "improper rotation (det R <= 0)"
    return None


def rotation_error_deg(r_pred, r_gt) -> float:
    """Geodesic angle of R_pred @ R_gt.T, accurate near 0 and 180 degrees."""
    e = np.asarray(r_pred) @ np.asarray(r_gt).T
    axis = (e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1])
    return math.degrees(math.atan2(math.hypot(*axis), float(np.trace(e)) - 1.0))


def translation_error(t_pred, t_gt) -> float:
    return float(np.linalg.norm(np.asarray(t_pred) - np.asarray(t_gt)))


TAIL_PERCENTILE = 90


def tail(values) -> float:
    """The 90th percentile, interpolated between order statistics. The timed
    loop runs whole passes over one fixed panel, and on k copies of the same
    latencies this percentile, like the median, does not depend on k."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def outcome_key(tf, problem: str | None):
    """What two runs of one trial must agree on: the problem, or the exact
    bytes of the transform."""
    if problem is not None:
        return problem
    return np.asarray(tf.rotation).tobytes() + np.asarray(tf.translation).tobytes()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _timed(fn: Callable):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _repeated(fn: Callable, repeats: int):
    """Last result and median wall time of ``repeats`` calls."""
    runs = [_timed(fn) for _ in range(repeats)]
    return runs[-1][0], statistics.median(s for _, s in runs)


@dataclass(frozen=True)
class Call:
    """One register() call: the transform (None when it raised), its wall
    time, what is wrong with it, and whether that is a typed refusal."""

    tf: object
    seconds: float
    problem: str | None
    refused: bool = False

    @property
    def key(self):
        return outcome_key(self.tf, self.problem)


def register_trial(model, trial: Trial, params: MatchParams, icp: bool) -> Call:
    t0 = time.perf_counter()
    try:
        tf = rpointhop.register(model, trial.source, trial.target, params, seed=trial.seed, icp=icp)[0]
    except (rpointhop.EstimationError, rpointhop.MatchingError) as exc:
        return Call(None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", refused=True)
    except Exception as exc:  # noqa: BLE001 - a failed operation is data here
        return Call(None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Call(tf, seconds, transform_problem(tf.rotation, tf.translation))


def run_trials(model, trials, params, icp, ledger, what: str) -> list[Call]:
    """One pass over ``trials``, each call recorded in the ledger."""
    calls = [register_trial(model, trial, params, icp) for trial in trials]
    for j, call in enumerate(calls):
        ledger.record(f"{what} {j}", call.problem, call.refused)
    return calls


def register_loop(model, trials, params, icp, seconds, ledger) -> tuple[list[float], list[Call]]:
    """Closed loop of whole passes over ``trials`` until ``seconds`` have
    passed, at least one. Returns every latency and the first pass's calls.
    A repeated trial must give the same result, bit for bit."""
    start = time.perf_counter()
    first = run_trials(model, trials, params, icp, ledger, "panel trial")
    latencies = [call.seconds for call in first]
    while time.perf_counter() - start < seconds:
        for j, trial in enumerate(trials):
            call = register_trial(model, trial, params, icp)
            latencies.append(call.seconds)
            problem, refused = call.problem, call.refused
            if call.key != first[j].key:
                problem, refused = "repeated trial gave a different result", False
            ledger.record(f"panel trial {j} repeat", problem, refused)
    return latencies, first


def traced_pairs(model, trials, params, icp, tracer, ledger) -> tuple[list[Call], list[Call]]:
    """Each trial once untraced and once traced, back to back, the order
    alternating between trials, so that drift in machine speed cancels out
    of the traced-minus-untraced difference. The two results must be
    bit-identical: the wrappers are transparent."""
    untraced, traced = [], []
    for j, trial in enumerate(trials):
        for is_traced in (False, True) if j % 2 == 0 else (True, False):
            with tracer.recording("timed") if is_traced else contextlib.nullcontext():
                call = register_trial(model, trial, params, icp)
            (traced if is_traced else untraced).append(call)
    for j, (a, b) in enumerate(zip(untraced, traced)):
        ledger.record(f"panel trial {j}", a.problem, a.refused)
        ledger.record(f"traced panel trial {j}", b.problem, b.refused)
        ledger.record(f"traced trial {j} matches untraced", None if a.key == b.key else "results differ")
    return untraced, traced


def persist(model, path: Path):
    """save_model then load_model: the model as a register caller gets it."""
    rpointhop.save_model(model, path)
    return rpointhop.load_model(path)


def roundtrip_problem(loaded, first_file: Path, second_file: Path) -> str | None:
    rpointhop.save_model(loaded, second_file)
    if first_file.read_bytes() != second_file.read_bytes():
        return "save_model -> load_model -> save_model changed the file"
    return None


def sentinel_checks(model, target, match: MatchParams, seed: int, ledger: Ledger) -> None:
    """Clean full-overlap registrations must recover the ground truth: once
    with the default estimator and once through RANSAC and ICP."""
    rng = np.random.Generator(np.random.PCG64([2, seed]))
    tf_gt, _ = bench.sample_rigid_transform(bench.ExperimentSpec(max_angle_deg=45.0), int(rng.integers(2**63)))
    trial = Trial(rpointhop.apply_transform(target, tf_gt), target, tf_gt.rotation, tf_gt.translation, 0)
    variants = (
        ("sentinel", match, False),
        ("sentinel ransac+icp", MatchParams(m1=match.m1, m2=match.m2, use_ransac=True), True),
    )
    for name, params, icp in variants:
        call = register_trial(model, trial, params, icp)
        problem = call.problem
        if problem is None:
            rot = rotation_error_deg(call.tf.rotation, trial.rotation)
            tr = translation_error(call.tf.translation, trial.translation)
            if rot > SENTINEL_TOL_DEG or tr > SENTINEL_TOL_T:
                problem = f"missed the ground truth by {rot:.3e} deg, {tr:.3e}"
        # a sentinel must succeed: a refusal here is a wrong result
        ledger.record(name, problem)


def trial_errors(trials, calls: list[Call]) -> tuple[list[float], list[float]]:
    """Geodesic rotation error and translation error per trial. A failed
    call scores as the identity: the caller got no motion."""
    rot, tr = [], []
    for trial, call in zip(trials, calls):
        ok = call.problem is None
        r_pred = call.tf.rotation if ok else np.eye(3)
        t_pred = call.tf.translation if ok else np.zeros(3)
        rot.append(rotation_error_deg(r_pred, trial.rotation))
        tr.append(translation_error(t_pred, trial.translation))
    return rot, tr


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict[str, tuple[float, str]]
    detail: dict


def _recording(tracer, phase: str):
    return tracer.recording(phase) if tracer is not None else contextlib.nullcontext()


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes()) -> RunResult:
    """Run one workload. With ``trace`` the metrics are the per-layer ones,
    else the end-to-end ones. The tracer labels each span with the phase it
    ran in: setup, inputs, train, persist, checks or timed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    refine = workload == "register_refine"
    recipe = PARTIAL_45 if refine else FULL_180
    config = sizes.partial_config if refine else sizes.default_config
    m = sizes.match
    params = MatchParams(m1=m.m1, m2=m.m2, use_ransac=recipe.use_ransac)
    tracer = spans.Tracer() if trace else None
    ledger = Ledger()
    setup: dict[str, float] = {}
    model_file, model_copy = workdir / "model.rph", workdir / "model-copy.rph"

    with _recording(tracer, "setup"):
        corpus, setup["corpus"] = _repeated(
            lambda: bench.make_shape_corpus(sizes.corpus_clouds, sizes.cloud_points, CORPUS_SEED),
            sizes.setup_repeats,
        )
    with _recording(tracer, "inputs"):
        panel_clouds = bench.make_shape_corpus(sizes.panel, sizes.cloud_points, PANEL_CLOUD_SEED)
        drawn_clouds = bench.make_shape_corpus(sizes.drawn, sizes.cloud_points, HELD_OUT_STRIDE * (seed + 1))
        panel = make_trials(panel_clouds, recipe, [0, 0])
        drawn = make_trials(drawn_clouds, recipe, [1, seed])
    held_out = panel_clouds + drawn_clouds
    detail = {"fingerprint": fingerprint(corpus, held_out, panel + drawn)}

    with _recording(tracer, "train"):
        model, setup["train"] = _timed(lambda: rpointhop.train(corpus, config))
    with _recording(tracer, "persist"):
        loaded, setup["save_load"] = _repeated(lambda: persist(model, model_file), sizes.setup_repeats)
        ledger.record("model round trip", roundtrip_problem(loaded, model_file, model_copy))
    with _recording(tracer, "checks"):
        sentinel_checks(loaded, held_out[-1], m, seed, ledger)
    drawn_calls = run_trials(loaded, drawn, params, recipe.icp, ledger, "drawn trial")

    if trace:
        untraced, first = traced_pairs(loaded, panel, params, recipe.icp, tracer, ledger)
        latencies = [call.seconds for call in first]
        untraced_s = sum(call.seconds for call in untraced)
        traced_s = sum(latencies)
        cover_frac = tracer.child_cover(spans.REGISTER_LAYER, "timed") / untraced_s
        overhead = {
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
            "trace.op_cover_frac": cover_frac,
        }
    else:
        latencies, first = register_loop(loaded, panel, params, recipe.icp, seconds, ledger)

    rot_errs, trans_errs = trial_errors(panel, first)
    drawn_rot, drawn_trans = trial_errors(drawn, drawn_calls)
    detail.update(
        register_samples=len(latencies),
        register_latencies_ms=[1e3 * x for x in latencies],
        register_tail_percentile=TAIL_PERCENTILE,
        failed_frac=len(ledger.failures) / ledger.attempted,
        failures=ledger.failures[:20],
        setup_parts_s=setup,
        panel_rot_err_deg=rot_errs,
        panel_trans_err=trans_errs,
        drawn_rot_err_deg=drawn_rot,
        drawn_trans_err=drawn_trans,
        drawn_latencies_ms=[1e3 * call.seconds for call in drawn_calls],
    )
    if tracer is not None:
        uncovered = 1.0 - cover_frac
        timed_register = tracer.layer_times(("timed",)).get(spans.REGISTER_LAYER, {"s": 0.0})
        detail.update(
            absent_hooks=tracer.absent,
            trace_overhead=overhead,
            # the spans under register() account for its untraced latency
            # when the uncovered share is within the tracing overhead
            trace_cover_holds=abs(uncovered) <= max(overhead["trace.overhead_frac"], 0.0),
            # share of the traced register() time that no child span covers
            register_self_frac=timed_register["self_s"] / timed_register["s"] if timed_register["s"] else None,
        )
        metrics = tracer.metrics(overhead)
        tracer.dump(workdir / f"spans-{workload}-{seed}.json")
    else:
        values = {
            "setup_s": sum(setup.values()),
            "train_s": setup["train"],
            "register_p50_ms": 1e3 * statistics.median(latencies),
            "register_tail_ms": 1e3 * tail(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": sum(call.problem is None for call in first) / len(first),
            "rot_err_p50_deg": statistics.median(rot_errs),
            "trans_err_p50": statistics.median(trans_errs),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for path in (model_file, model_copy):
        path.unlink(missing_ok=True)
    return RunResult(ledger, metrics, detail)
