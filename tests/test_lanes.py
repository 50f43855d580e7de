"""The two lanes: train's per-cloud work, register's two extractions and
the row halves of its matching share the calling thread and one worker
thread per call."""

import os
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rpointhop import (
    CloudTooSmallError,
    PointCloud,
    apply_transform,
    extract_features,
    register,
    save_model,
    train,
)
from rpointhop import pipeline, registration
from rpointhop.cloud import RigidTransform, sample_indices
from rpointhop.pipeline import FeatureSet, _start_runs, _two_lanes
from rpointhop.registration import MatchParams, _nearest_two, match
from rpointhop.spatial import fps_indices

from conftest import TINY_CONFIG, random_rotation

# the tiny model keeps 128 final-hop points
SMALL_MATCH = MatchParams(m1=64, m2=32)


def _inline(fn, items):
    return list(map(fn, items))


def _recording_lanes(monkeypatch, module) -> list:
    """Patch ``module._two_lanes`` with the real one, recording each call's
    items and results; returns the list of (items, results)."""
    calls = []

    def recording(fn, items):
        items = list(items)
        results = list(_two_lanes(fn, items))
        calls.append((items, results))
        return results

    monkeypatch.setattr(module, "_two_lanes", recording)
    return calls


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
        assert list(_two_lanes(lambda x: x * x, range(7))) == [x * x for x in range(7)]
        assert list(_two_lanes(lambda x: x, [])) == []

    def test_even_items_on_caller_odd_on_one_worker(self):
        names = list(_two_lanes(lambda _: threading.current_thread().name, range(6)))
        caller = threading.current_thread().name
        assert names[0::2] == [caller] * 3
        assert len(set(names[1::2])) == 1 and names[1] != caller

    def test_earliest_failure_wins(self):
        def fn(x):
            if x in (1, 2):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 1"):
            list(_two_lanes(fn, range(4)))

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
            list(_two_lanes(fn, range(8)))
        # the running job finished before the raise; the queued ones never start
        assert done == [1]
        time.sleep(0.2)
        assert done == [1]

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_worker_alive_after_the_call(self, fails):
        def fn(x):
            if fails and x == 2:
                raise ValueError("item 2")
            return x

        if fails:
            with pytest.raises(ValueError, match="item 2"):
                list(_two_lanes(fn, range(6)))
        else:
            assert list(_two_lanes(fn, range(6))) == list(range(6))
        assert not [t.name for t in threading.enumerate() if t.name.startswith("rpointhop-lane")]

    def test_a_caller_that_stops_early_settles_the_worker(self):
        # the caller takes item 0's result while the worker runs item 1 and
        # then closes the call: item 1 finishes before close() returns, the
        # queued odd items never start, and the worker is joined
        started, finished = [], []
        worker_busy = threading.Event()

        def fn(x):
            started.append(x)
            if x == 0:
                assert worker_busy.wait(10.0)
            else:
                worker_busy.set()
            time.sleep(0.5 if x == 1 else 0.05)  # item 1 still runs when the caller closes
            finished.append(x)
            return x

        results = _two_lanes(fn, range(10))
        assert next(results) == 0
        results.close()
        assert sorted(started) == sorted(finished) == [0, 1]
        time.sleep(0.2)
        assert sorted(started) == [0, 1]
        assert not [t.name for t in threading.enumerate() if t.name.startswith("rpointhop-lane")]

    def test_a_result_taken_and_dropped_is_freed_before_the_call_ends(self):
        # the lanes hold no result they have handed back, from either lane
        class Result:
            pass

        taken: list[weakref.ref] = []
        for result in _two_lanes(lambda _: Result(), range(7)):
            assert [r() for r in taken] == [None] * len(taken)
            taken.append(weakref.ref(result))
        del result
        assert [r() for r in taken] == [None] * 7

    def test_forked_child_gets_its_own_worker(self):
        list(_two_lanes(lambda x: x, range(2)))  # the parent has run a lane call
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork in a threaded process
            pid = os.fork()
        if pid == 0:  # child: inherits no worker thread, and its call starts its own
            code = 1
            try:
                code = 0 if list(_two_lanes(lambda x: x + 1, range(4))) == [1, 2, 3, 4] else 1
            finally:
                os._exit(code)  # never back into the test runner
        code = _wait_child(pid, 30.0)
        if code is None:
            pytest.fail("the forked child's lane job never ran")
        assert code == 0


class TestLaneSplits:
    """The two row splits that feed the lanes, checked at their call sites."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_match_splits_target_rows(self, monkeypatch, n):
        rng = np.random.default_rng(n)

        def feature_set(features, table):
            rows = len(features)
            return FeatureSet(
                point_indices=np.arange(rows),
                coords=rng.normal(size=(rows, 3)),
                features=features,
                sign_margins=np.ones(rows),
                eigen_gaps=np.ones(rows),
                neighbor_table=table,
            )

        target = feature_set(rng.normal(size=(n, 4)), np.arange(n)[:, None])
        source = feature_set(rng.normal(size=(6, 4)), rng.integers(0, 6, size=(6, 2)))
        calls = _recording_lanes(monkeypatch, registration)
        corr = match(target, source, MatchParams(m1=n, m2=n))

        ((parts, results),) = calls
        assert [len(p) for p in parts] == [-(-n // 2), n // 2]
        assert np.concatenate(parts).tobytes() == target.features.tobytes()
        want = _nearest_two(cdist(target.features, source.features), source.neighbor_table)
        for got, serial in zip(zip(*results), want):
            joined = np.concatenate(got)
            assert joined.dtype == serial.dtype and joined.tobytes() == serial.tobytes()
        first, d1, _ = want
        rows = corr.pairs[:, 0]
        assert sorted(rows.tolist()) == list(range(n))
        assert corr.pairs[:, 1].tolist() == first[rows].tolist()
        assert corr.feature_distances.tobytes() == d1[rows].tobytes()

    @pytest.mark.parametrize("k", [1, 3], ids=["one_cloud", "three_clouds"])
    def test_fit_samples_two_half_stacks(self, tiny_corpus, monkeypatch, k):
        # a one-cloud corpus gives one cloud and an empty stack
        budget = TINY_CONFIG.hops[0].num_points
        clouds = [c.coords for c in tiny_corpus[:k]]
        seeds = list(range(k))
        stack = np.stack([c[sample_indices(len(c), budget, s)] for c, s in zip(clouds, seeds)])
        calls = _recording_lanes(monkeypatch, pipeline)
        _start_runs(clouds, TINY_CONFIG, seeds, fit=True)

        ((parts, _),) = calls
        half = -(-k // 2)
        assert [p.shape for p in parts] == [stack[:half].shape, stack[half:].shape]
        assert np.concatenate(parts).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("k", [1, 2], ids=["extract", "pair"])
    def test_extraction_samples_one_stack(self, tiny_corpus, monkeypatch, k):
        budget = TINY_CONFIG.hops[0].num_points
        clouds = [c.coords for c in tiny_corpus[:k]]
        stack = np.stack([c[sample_indices(len(c), budget, 4)] for c in clouds])
        calls = _recording_lanes(monkeypatch, pipeline)
        _start_runs(clouds, TINY_CONFIG, [4] * k)

        ((parts, _),) = calls
        assert len(parts) == 1 and parts[0].tobytes() == stack.tobytes()


class TestSamplingTurns:
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
        # a thread samples without pause, so it is mostly mid-run when the
        # fork comes; the child must still be able to sample
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

    @pytest.mark.parametrize("slow", [0, 1], ids=["even_items_slow", "odd_items_slow"])
    def test_train_model_bytes_with_one_lane_behind(self, tiny_corpus, monkeypatch, tmp_path, slow):
        # train merges each hop's moments as the lanes hand them back; with
        # either lane's items slowed, the merge still runs in corpus order
        def slowed(fn, items):
            def step(item):
                i, x = item
                if i % 2 == slow:
                    time.sleep(0.005)
                return fn(x)

            return _two_lanes(step, enumerate(items))

        monkeypatch.setattr(pipeline, "_two_lanes", slowed)
        save_model(train(tiny_corpus, TINY_CONFIG), tmp_path / "slowed.rph")
        monkeypatch.setattr(pipeline, "_two_lanes", _inline)
        save_model(train(tiny_corpus, TINY_CONFIG), tmp_path / "inline.rph")
        assert (tmp_path / "inline.rph").read_bytes() == (tmp_path / "slowed.rph").read_bytes()

    def test_extract_and_register(self, tiny_corpus, tiny_model, monkeypatch):
        # extraction and matching use the lanes; inlined, every stage runs
        # serially on the caller
        rng = np.random.default_rng(8)
        target = tiny_corpus[3]
        source = apply_transform(target, RigidTransform(random_rotation(rng), rng.normal(size=3)))
        fields = ("point_indices", "coords", "features", "sign_margins", "eigen_gaps", "neighbor_table")

        def outputs():
            fs = extract_features(tiny_model, source, seed=5)
            out = [getattr(fs, f) for f in fields]
            for params, icp in ((SMALL_MATCH, False), (replace(SMALL_MATCH, use_ransac=True), True)):
                tf, aligned, _ = register(tiny_model, source, target, params, seed=2, icp=icp)
                out += [tf.rotation, tf.translation, aligned.coords]
            return out

        with_lanes = outputs()
        monkeypatch.setattr(pipeline, "_two_lanes", _inline)
        monkeypatch.setattr(registration, "_two_lanes", _inline)
        inline = outputs()
        for a, b in zip(with_lanes, inline):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTrainErrors:
    def test_first_small_cloud_wins(self, tiny_corpus):
        # hop 1 needs 192 points; clouds 2 and 4 fall short, and the corpus
        # is sampled in order before either half-stack is farthest point sampled
        rng = np.random.default_rng(3)
        corpus = list(tiny_corpus[:6])
        corpus[2] = PointCloud(rng.normal(size=(150, 3)))
        corpus[4] = PointCloud(rng.normal(size=(40, 3)))
        with pytest.raises(CloudTooSmallError, match=r"^cloud has 150 points but hop 1 needs 192$"):
            train(corpus, TINY_CONFIG)


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
    # each call joins its worker: a worker left running would hold a thread
    # (and its stack and buffers) per register()
    before = threading.active_count()
    for i in range(50):
        register(tiny_model, tiny_corpus[i % 4], tiny_corpus[(i + 1) % 4], SMALL_MATCH, seed=i)
    assert threading.active_count() <= before + 1
