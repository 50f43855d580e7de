"""Self-test of the benchmark at tiny sizes (about ten seconds on two cores).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rpointhop  # noqa: E402
from rpointhop.pipeline import HopConfig, ModelConfig  # noqa: E402
from rpointhop.registration import MatchParams  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    corpus_clouds=8,
    cloud_points=256,
    default_config=ModelConfig(hops=(HopConfig(192, 24), HopConfig(128, 16)), k_lrf=16),
    # a 75% crop of 256 points keeps 192
    partial_config=ModelConfig(hops=(HopConfig(160, 24), HopConfig(128, 16)), k_lrf=16),
    match=MatchParams(m1=64, m2=32),
    panel=2,
    drawn=2,
    setup_repeats=1,
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_emitted_metrics():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in spans.PER_LAYER]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = workloads.run(workload, seed=3, seconds=0.0, trace=trace, workdir=tmp_path, sizes=TINY)
    assert result.ledger.wrong == []
    expected = [(n, u) for n, u, _ in spans.PER_LAYER] if trace else workloads.END_TO_END
    assert [(name, unit) for name, (_, unit) in result.metrics.items()] == list(expected)
    for name, (value, _) in result.metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if trace:
        assert result.detail["absent_hooks"] == []
        assert result.metrics["spatial.knn.calls"][0] > 0
        assert result.metrics["pipeline.model_bytes"][0] > 0
        assert result.metrics["saab.fit.calls"][0] > 0
        # the sentinels run RANSAC and ICP on both workloads
        assert result.metrics["registration.icp.calls"][0] > 0
    else:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_same_seed_same_inputs(tmp_path):
    a = workloads.run("register_refine", 5, 0.0, False, tmp_path, TINY).detail["fingerprint"]
    b = workloads.run("register_refine", 5, 0.0, False, tmp_path, TINY).detail["fingerprint"]
    c = workloads.run("register_refine", 6, 0.0, False, tmp_path, TINY).detail["fingerprint"]
    assert a == b != c


def test_checks_fire_on_a_corrupted_transform(tmp_path, monkeypatch):
    real = rpointhop.register

    class Corrupt:
        def __init__(self, tf):
            self.rotation = tf.rotation * 1.01
            self.translation = tf.translation

    monkeypatch.setattr(rpointhop, "register", lambda *a, **k: (Corrupt(real(*a, **k)[0]), None, {}))
    result = workloads.run("register", 3, 0.0, False, tmp_path, TINY)
    failures = result.ledger.failures
    # two sentinels plus every panel and drawn trial
    assert len(failures) == 2 + TINY.panel + TINY.drawn
    assert all("not orthonormal" in f for f in failures)
    assert result.ledger.wrong == failures
    assert result.metrics["ok_frac"][0] == 0.0


def test_a_typed_refusal_fails_the_operation_not_the_run(tmp_path, monkeypatch):
    real = rpointhop.register

    def register(model, source, target, params, seed=0, icp=False):
        # refuse every trial registration, let the clean sentinels (seed 0) through
        if seed != 0:
            raise rpointhop.EstimationError("no RANSAC iteration produced 3 or more inliers")
        return real(model, source, target, params, seed=seed, icp=icp)

    monkeypatch.setattr(rpointhop, "register", register)
    result = workloads.run("register_refine", 3, 0.0, False, tmp_path, TINY)
    assert len(result.ledger.failures) == TINY.panel + TINY.drawn
    assert result.ledger.wrong == []
    assert result.metrics["ok_frac"][0] == 0.0
    # a refused trial scores as the identity in the error medians
    assert result.metrics["rot_err_p50_deg"][0] > 0.0


def test_tracer_counting_time_is_left_out_of_parent_times():
    tracer = spans.Tracer(hooks=())
    # parent 0..10 s; child 1..3 s, then 2 s of counting its work
    tracer.spans = [["p", 0.0, 10.0, -1, -1, "timed", 0.0], ["c", 1.0, 3.0, 0, -1, "timed", 2.0]]
    times = tracer.layer_times()
    assert times["p"] == {"calls": 1, "s": 8.0, "self_s": 6.0}
    assert times["c"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert tracer.layer_times(("train",)) == {}


def test_transform_problem_cases():
    r = np.eye(3)
    assert workloads.transform_problem(r, np.zeros(3)) is None
    assert "non-finite" in workloads.transform_problem(r, np.array([0.0, np.nan, 0.0]))
    assert "improper" in workloads.transform_problem(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    assert "orthonormal" in workloads.transform_problem(r * (1 + 1e-8), np.zeros(3))


def test_geodesic_error_is_accurate_near_zero_and_pi():
    for angle in (1e-9, 0.5, 90.0, 179.9999):
        theta = math.radians(angle)
        rz = np.array([[math.cos(theta), -math.sin(theta), 0], [math.sin(theta), math.cos(theta), 0], [0, 0, 1]])
        assert workloads.rotation_error_deg(rz, np.eye(3)) == pytest.approx(angle, rel=1e-9)


def test_tail_does_not_depend_on_the_number_of_passes():
    one_pass = [0.7, 0.6, 3.0, 0.8, 2.2, 1.9, 0.3, 2.9, 2.5, 1.4]
    assert workloads.tail(one_pass) == pytest.approx(2.91)
    for passes in (2, 3):
        assert workloads.tail(one_pass * passes) == pytest.approx(workloads.tail(one_pass))


def test_absent_hook_reads_zero(tmp_path):
    hooks = spans.HOOKS + (spans.Hook("saab.gone", "rpointhop.saab", "no_such_function"),)
    tracer = spans.Tracer(hooks)
    with tracer.recording("timed"):
        rpointhop.bench.make_shape_corpus(1, 32, 0)
    assert tracer.absent == ["rpointhop.saab.no_such_function"]
    metrics = tracer.metrics({"trace.overhead_s": 0.0, "trace.overhead_frac": 0.0, "trace.op_cover_frac": 0.0})
    assert metrics["bench.make_shape_corpus.s"][0] > 0
    assert metrics["bench.make_partial.calls"][0] == 0
    assert metrics["saab.tree_children.calls"][0] == 0
    # the wrappers are gone after the block
    assert "wrapper" not in rpointhop.bench.make_shape_corpus.__code__.co_name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "register", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
