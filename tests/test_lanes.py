"""The two lanes: train's per-cloud work and register's two extractions
share the calling thread and one persistent worker thread."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from rpointhop import PointCloud, apply_transform, extract_features, register, save_model, train
from rpointhop import pipeline, registration
from rpointhop.cloud import RigidTransform
from rpointhop.pipeline import _two_lanes
from rpointhop.registration import MatchParams
from rpointhop.spatial import fps_indices

from conftest import TINY_CONFIG, random_rotation

# the tiny model keeps 128 final-hop points
SMALL_MATCH = MatchParams(m1=64, m2=32)


def _inline(fn, items):
    return list(map(fn, items))


def _wait_child(pid: int, seconds: float) -> int | None:
    """The forked child's exit code, or None after killing it at the deadline."""
    deadline = time.monotonic() + seconds
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        return None
    return os.waitstatus_to_exitcode(status[1])


class TestTwoLanes:
    def test_results_in_input_order(self):
        assert _two_lanes(lambda x: x * x, range(7)) == [x * x for x in range(7)]
        assert _two_lanes(lambda x: x, []) == []

    def test_even_items_on_caller_odd_on_one_worker(self):
        names = _two_lanes(lambda _: threading.current_thread().name, range(6))
        caller = threading.current_thread().name
        assert names[0::2] == [caller] * 3
        assert len(set(names[1::2])) == 1 and names[1] != caller

    def test_earliest_failure_wins(self):
        def fn(x):
            if x in (1, 2):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 1"):
            _two_lanes(fn, range(4))

    def test_worker_jobs_settled_before_raise(self):
        running, done = threading.Event(), []

        def fn(x):
            if x == 0:  # fail while the worker runs item 1
                assert running.wait(10.0)
                raise KeyError("first")
            running.set()
            time.sleep(0.05)
            done.append(x)
            return x

        with pytest.raises(KeyError):
            _two_lanes(fn, range(8))
        # the running job finished before the raise; the queued ones never start
        assert done == [1]
        time.sleep(0.2)
        assert done == [1]

    def test_forked_child_gets_its_own_worker(self):
        _two_lanes(lambda x: x, range(2))  # the parent's worker thread exists
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork in a threaded process
            pid = os.fork()
        if pid == 0:  # child: the inherited executor has no thread to run its jobs
            code = 1
            try:
                code = 0 if _two_lanes(lambda x: x + 1, range(4)) == [1, 2, 3, 4] else 1
            finally:
                os._exit(code)  # never back into the test runner
        code = _wait_child(pid, 30.0)
        if code is None:
            pytest.fail("the forked child's lane job never ran")
        assert code == 0


class TestSamplingTurns:
    """Farthest point sampling takes turns under one lock."""

    def test_concurrent_samplers_match_serial(self):
        rng = np.random.default_rng(17)
        clouds = [rng.normal(size=(300, 3)) for _ in range(8)]
        want = [fps_indices(c, 200) for c in clouds]
        got = [None] * len(clouds)

        def work(i):
            got[i] = fps_indices(clouds[i], 200)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(clouds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_fork_while_another_thread_samples(self):
        # a thread samples without pause, so it mostly holds the lock when
        # the fork comes; the child must still be able to sample
        pts = np.random.default_rng(18).normal(size=(400, 3))
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                fps_indices(pts, 300)

        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            time.sleep(0.05)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # fork in a threaded process
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if len(fps_indices(pts, 10)) == 10 else 1
                finally:
                    os._exit(code)  # never back into the test runner
            code = _wait_child(pid, 30.0)
        finally:
            stop.set()
            spinner.join(60.0)
        assert not spinner.is_alive()
        assert code == 0, "the forked child could not sample"


class TestBitIdentity:
    def test_train_model_bytes(self, tiny_corpus, monkeypatch, tmp_path):
        save_model(train(tiny_corpus, TINY_CONFIG), tmp_path / "lanes.rph")
        monkeypatch.setattr(pipeline, "_two_lanes", _inline)
        save_model(train(tiny_corpus, TINY_CONFIG), tmp_path / "inline.rph")
        assert (tmp_path / "inline.rph").read_bytes() == (tmp_path / "lanes.rph").read_bytes()

    def test_extract_and_register(self, tiny_corpus, tiny_model, monkeypatch):
        rng = np.random.default_rng(8)
        target = tiny_corpus[3]
        source = apply_transform(target, RigidTransform(random_rotation(rng), rng.normal(size=3)))
        fields = ("point_indices", "coords", "features", "sign_margins", "eigen_gaps", "neighbor_table")

        def outputs():
            fs = extract_features(tiny_model, source, seed=5)
            tf, aligned, _ = register(tiny_model, source, target, SMALL_MATCH, seed=2)
            return [getattr(fs, f) for f in fields] + [tf.rotation, tf.translation, aligned.coords]

        with_lanes = outputs()
        monkeypatch.setattr(registration, "_two_lanes", _inline)
        inline = outputs()
        for a, b in zip(with_lanes, inline):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRegisterErrors:
    def test_target_error_wins_when_both_fail(self, tiny_model):
        # hop 1 needs 192 points
        small_target = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
        small_source = PointCloud(np.random.default_rng(1).normal(size=(20, 3)))
        with pytest.raises(ValueError, match="cloud has 10 points"):
            register(tiny_model, small_source, small_target, SMALL_MATCH)

    def test_source_error_reraised(self, tiny_corpus, tiny_model):
        small_source = PointCloud(np.random.default_rng(1).normal(size=(20, 3)))
        with pytest.raises(ValueError) as direct:
            extract_features(tiny_model, small_source)
        with pytest.raises(ValueError) as via_register:
            register(tiny_model, small_source, tiny_corpus[0], SMALL_MATCH)
        assert type(via_register.value) is type(direct.value)
        assert str(via_register.value) == str(direct.value)


def test_no_thread_per_call(tiny_corpus, tiny_model):
    # one persistent worker: a pool per call would hold a thread (and its
    # stack and buffers) per register()
    before = threading.active_count()
    for i in range(50):
        register(tiny_model, tiny_corpus[i % 4], tiny_corpus[(i + 1) % 4], SMALL_MATCH, seed=i)
    assert threading.active_count() <= before + 1
