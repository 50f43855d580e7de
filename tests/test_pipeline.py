"""Multi-hop feature pipeline: attributes, training, extraction, model files."""

import copy
import dataclasses
import functools
from collections import Counter
import json
import re
import struct
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpointhop import (
    CloudTooSmallError,
    FeatureSet,
    HopConfig,
    ModelConfig,
    ModelFormatError,
    PointCloud,
    TrainingError,
    apply_transform,
    extract_features,
    load_model,
    parse_config,
    save_model,
    train,
)
from rpointhop import pipeline
from rpointhop.bench import make_shape_corpus
from rpointhop.cloud import RigidTransform, normalize_unit_sphere, sample_indices
from rpointhop.config import format_config
from rpointhop.lrf import local_pca_batch
from rpointhop.pipeline import (
    _CHANNEL_BLOCK,
    _OctantMeans,
    _apply_blocks,
    _channel_blocks,
    _moments,
    _project_neighbors,
    _start_runs,
    build_hop1_attributes,
    build_later_hop_attributes,
    extract_pair,
)
from rpointhop.saab import HopPlan, SaabLayer, SampleMoments, saab_fit
from rpointhop.spatial import KnnIndex, fps_indices

from conftest import (
    PARTIAL_CONFIG,
    TINY_CONFIG,
    _dense_inputs,
    corpus_hop_tables,
    forward_plans,
    hop_oracle,
    knn_oracle,
    live_node_ids,
    moments_oracle,
    off_lattice_points,
    octant_loop_oracle,
    octant_oracle,
    projection_einsum_oracle,
    random_rotation,
)


# four hops: hop 4's step in train rebuilds the values of hops 2, 3 and 4
FOUR_HOP_CONFIG = ModelConfig(
    hops=(*TINY_CONFIG.hops, HopConfig(96, 16), HopConfig(64, 16)), k_lrf=TINY_CONFIG.k_lrf
)


def _carried(step) -> list[list]:
    """What each cloud carries across train's fits: read off the closure of
    the lane step that train hands to ``_two_lanes``."""
    return step.__closure__[step.__code__.co_freevars.index("carried")].cell_contents


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a

# three hops whose hop 3 takes 190 channels on ``tiny_corpus``
WIDE_CONFIG = ModelConfig(
    hops=(HopConfig(192, 16), HopConfig(160, 16), HopConfig(128, 16)), k_lrf=16, energy_threshold=1e-4
)


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


class TestConfigs:
    def test_hop_config_validation(self):
        HopConfig(64, 8)  # minimal valid
        with pytest.raises(ValueError, match="num_points"):
            HopConfig(0, 8)
        with pytest.raises(ValueError, match=">= 8"):
            HopConfig(64, 7)
        with pytest.raises(ValueError, match="exceed num_points"):
            HopConfig(8, 9)

    def test_model_config_defaults(self):
        cfg = ModelConfig()
        assert [h.num_points for h in cfg.hops] == [1024, 768, 512, 384]
        assert [h.k_neighbors for h in cfg.hops] == [64, 32, 48, 48]
        assert cfg.k_lrf == 64
        assert cfg.energy_threshold == 0.001
        assert cfg.seed == 0

    def test_model_config_validation(self):
        with pytest.raises(ValueError, match="at least one hop"):
            ModelConfig(hops=())
        with pytest.raises(ValueError, match="k_lrf"):
            ModelConfig(k_lrf=2)
        with pytest.raises(ValueError, match="k_lrf"):
            ModelConfig(hops=(HopConfig(32, 8),), k_lrf=33)
        with pytest.raises(ValueError, match="non-increasing"):
            ModelConfig(hops=(HopConfig(64, 8), HopConfig(128, 8)), k_lrf=16)
        with pytest.raises(ValueError, match="energy_threshold"):
            ModelConfig(energy_threshold=-0.1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            ModelConfig(seed=-3)  # PCG64 takes no negative seed

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_energy_threshold(self, value):
        with pytest.raises(ValueError, match="energy_threshold must be finite"):
            ModelConfig(energy_threshold=value)
        with pytest.raises(ValueError, match="energy_threshold must be finite"):
            parse_config(f"energy_threshold = {value}\n")


# ---------------------------------------------------------------------------
# octants and attributes
# ---------------------------------------------------------------------------


class TestOctants:
    def test_all_eight_sign_patterns(self):
        # octant id = 4*(x<0) + 2*(y<0) + (z<0); order +++, ++-, +-+, ...
        signs = np.array(
            [
                [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
                [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
            ],
            dtype=np.float64,
        )
        # neighbor j carries the j-th unit vector, so octant o's mean is e_o
        means = _OctantMeans(signs[None, :, :], np.arange(8)[None, :]).dense(np.eye(8))
        assert np.array_equal(means[0], np.eye(8))

    def test_weights_take_one_byte_per_neighbor(self):
        # an operator holds only its pattern: int32 row pointers and column
        # indices, 4 bytes per neighbor and 32 per point; dense makes its
        # unit weights and octant counts per product, in float64 all the same
        p, n, k = 20, 50, 12
        rng = np.random.default_rng(3)
        means = _OctantMeans(rng.normal(size=(p, k, 3)), rng.integers(0, n, (p, k)))
        assert sorted(vars(means)) == ["indices", "indptr"]
        assert means.indptr.dtype == means.indices.dtype == np.int32
        assert means.indices.nbytes == 4 * p * k and means.indptr.nbytes == 32 * p + 4
        assert means.dense(rng.normal(size=(n, 4))).dtype == np.float64

    def test_zero_counts_as_positive(self):
        means = _OctantMeans(np.zeros((1, 1, 3)), np.zeros((1, 1), dtype=np.intp)).dense(np.ones((1, 1)))
        assert means[0, :, 0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("p, n, k, c", [(40, 60, 13, 5), (16, 16, 8, 1), (24, 200, 48, 33)])
    def test_matches_one_hot_oracle_bit_for_bit(self, p, n, k, c):
        rng = np.random.default_rng(p * k + c)
        proj = rng.normal(size=(p, k, 3))
        proj[rng.random(proj.shape) < 0.1] = 0.0  # on an octant boundary
        proj[rng.random(proj.shape) < 0.05] = -0.0
        proj[0, :, :] = 1.0  # row 0: seven empty octants
        values = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, c))
        nbr_idx = rng.integers(0, n, size=(p, k))
        means = _OctantMeans(proj, nbr_idx).dense(values)
        expected = octant_oracle(proj, values[nbr_idx])
        assert means.shape == expected.shape == (p, 8, c)
        assert means.tobytes() == expected.tobytes()
        assert means.tobytes() == octant_loop_oracle(proj, values, nbr_idx).tobytes()
        assert not means[0, 1:].any()

    @pytest.mark.parametrize(
        "config, counts",
        [
            (ModelConfig(), (1024, 768, 512, 384)),
            (ModelConfig(), (768, 512, 384, 384)),
            (TINY_CONFIG, (192, 128)),
            (TINY_CONFIG, (128, 128)),
        ],
        ids=["default-fit", "default-extract", "tiny-fit", "tiny-extract"],
    )
    def test_matches_column_loop_at_every_hop_shape(self, config, counts):
        # the rows each hop computes in a fit and in an extraction, with the
        # tables a corpus cloud gives: hop h's KNN over its prefix of the
        # farthest-first working cloud, projected into hop-1 frames; hop 1
        # averages its own projections through the arange table, later hops
        # average value rows up to the default model's widest (216)
        cloud = make_shape_corpus(1, 1024, seed=0)[0]
        coords = _start_runs([normalize_unit_sphere(cloud).coords], config, [0], fit=True)[0].coords
        rng = np.random.default_rng(counts[0])
        for h, (hop, count, width) in enumerate(zip(config.hops, counts, (3, 24, 138, 216))):
            points = coords[: hop.num_points]
            table, _ = KnnIndex(points).query(points[:count], max(config.k_lrf, hop.k_neighbors))
            nbr_idx = table[:, : hop.k_neighbors]
            if h == 0:
                axes, _ = local_pca_batch(points, table[:, : config.k_lrf])
            proj, _ = _project_neighbors(points, nbr_idx, axes[:count])
            if h == 0:
                values, nbr_idx = proj.reshape(-1, 3), np.arange(nbr_idx.size).reshape(nbr_idx.shape)
            else:
                size = (hop.num_points, width)
                values = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6, size=size)
            means = _OctantMeans(proj, nbr_idx).dense(values)
            assert means.shape == (count, 8, width)
            assert means.tobytes() == octant_loop_oracle(proj, values, nbr_idx).tobytes(), f"hop {h + 1}"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        p=st.integers(1, 40),
        k=st.integers(8, 64),
        extra=st.integers(0, 40),
        c=st.integers(1, 40),
        pool=st.integers(1, 104),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_column_loop_property(self, p, k, extra, c, pool, zero_frac, seed):
        # rows draw their neighbors from the first ``pool`` of N >= k value
        # rows, so a small pool repeats indices within a row; projections
        # on a boundary are +0.0 or -0.0, both in the "+" half
        n = k + extra
        rng = np.random.default_rng(seed)
        proj = rng.normal(size=(p, k, 3))
        on_boundary = rng.random(proj.shape) < zero_frac
        proj[on_boundary] = np.where(rng.random(proj.shape) < 0.5, 0.0, -0.0)[on_boundary]
        values = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, c))
        nbr_idx = rng.integers(0, min(pool, n), size=(p, k))
        means = _OctantMeans(proj, nbr_idx).dense(values)
        assert means.tobytes() == octant_loop_oracle(proj, values, nbr_idx).tobytes()

    @pytest.mark.parametrize(
        "p, n, k, c",
        [(12, 30, 9, 5), (10, 40, 16, 21), (9, 20, 8, 1), (7, 50, 12, 24), (6, 16, 8, 17)],
    )
    def test_prefixes_match_column_loop(self, p, n, k, c):
        # every row prefix, 0 rows included
        rng = np.random.default_rng(p * c + k)
        proj = rng.normal(size=(p, k, 3))
        proj[rng.random(proj.shape) < 0.1] = 0.0
        values = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, c))
        nbr_idx = rng.integers(0, n, size=(p, k))
        means = _OctantMeans(proj, nbr_idx)
        want = octant_loop_oracle(proj, values, nbr_idx)
        assert len(means) == p
        assert means.dense(values).tobytes() == want.tobytes()
        for rows in range(p + 1):
            got = means.dense(values, rows)
            assert got.shape == want[:rows].shape
            assert got.tobytes() == want[:rows].tobytes(), rows

    def test_hop1_layout_matches_one_hot_oracle(self):
        # hop 1 averages the projections themselves, one value row per
        # (point, neighbor)
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(30, 3))
        coords[5] = coords[0]  # a neighbor at the query point projects to 0
        nbr_idx = np.argsort(((coords[:, None] - coords[None]) ** 2).sum(-1), axis=1)[:, :12]
        axes = np.tile(np.eye(3), (30, 1, 1))
        attrs, _ = build_hop1_attributes(coords, nbr_idx, axes)
        proj, _ = projection_einsum_oracle(coords, nbr_idx, axes)
        assert attrs.tobytes() == octant_oracle(proj, proj).reshape(30, 24).tobytes()


class TestHop1Attributes:
    def test_cube_corner_example(self):
        # 8 neighbors at the cube corners around the first point: after sign
        # resolution each octant holds exactly one corner whose coordinates
        # equal the octant's own sign pattern, whatever the flips were
        corners = np.array(
            [
                [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
                [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
            ],
            dtype=np.float64,
        )
        coords = np.vstack([np.zeros(3), corners])
        nbr_idx = np.tile(np.arange(1, 9), (9, 1))
        axes = np.tile(np.eye(3), (9, 1, 1))
        attrs, margins = build_hop1_attributes(coords, nbr_idx, axes)
        assert attrs.shape == (9, 24)
        assert np.allclose(attrs[0], corners.ravel())
        # perfect cube: every axis is a moment tie
        assert np.abs(margins[0]).max() < 1e-12

    def test_empty_octants_stay_zero(self):
        # all neighbors on one ray: only a single octant is populated
        coords = np.array(
            [[0.0, 0, 0], [1.0, 0.1, 0.1], [2.0, 0.1, 0.1], [4.0, 0.1, 0.1]]
        )
        nbr_idx = np.tile(np.array([1, 2, 3]), (4, 1))
        axes = np.tile(np.eye(3), (4, 1, 1))
        attrs, _ = build_hop1_attributes(coords, nbr_idx, axes)
        # x: median 2, left mass 1 < right mass 2 -> +1; y, z: all equal -> tie -> -1,
        # so the flipped projections (x, -y, -z) land in octant 3 (+, -, -)
        row = attrs[0].reshape(8, 3)
        assert np.allclose(row[3], [7.0 / 3.0, -0.1, -0.1])
        others = np.delete(row, 3, axis=0)
        assert np.abs(others).max() == 0.0

    def test_rows_subset_matches_all_rows(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(30, 3))
        table = KnnIndex(coords).query(coords, 10)[0]
        axes, _ = local_pca_batch(coords, table)
        full = build_hop1_attributes(coords, table, axes)
        part = build_hop1_attributes(coords, table[:12], axes[:12])  # extraction's hop-1 rows
        for got, want in zip(part, full):
            assert np.array_equal(got, want[:12])

    def test_rigid_invariance(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(40, 3))
        table = KnnIndex(coords).query(coords, 12)[0]
        axes, _ = local_pca_batch(coords, table)
        attrs0, margins = build_hop1_attributes(coords, table, axes)

        r = random_rotation(rng)
        t = rng.normal(size=3) * 3
        moved = coords @ r.T + t
        axes_m, _ = local_pca_batch(moved, table)
        attrs1, _ = build_hop1_attributes(moved, table, axes_m)

        stable = margins.min(axis=1) > 1e-6
        assert stable.sum() > 30
        assert np.abs(attrs0[stable] - attrs1[stable]).max() < 1e-9


class TestLaterHopAttributes:
    def test_rows_subset_matches_all_rows(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(30, 3))
        table = KnnIndex(coords).query(coords, 10)[0]
        axes, _ = local_pca_batch(coords, table)
        values = rng.normal(size=(30, 4))
        full, full_margins = build_later_hop_attributes(coords, table, axes)
        part, part_margins = build_later_hop_attributes(coords, table[:12], axes[:12])
        assert np.array_equal(part.dense(values), full.dense(values)[:12])
        assert np.array_equal(part_margins, full_margins[:12])

    def test_channel_means_hand_example(self):
        # 2 points, each the other's sole neighbor plus itself; scalar channel
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
        nbr_idx = np.array([[0, 1, 2]] * 3)
        axes = np.tile(np.eye(3), (3, 1, 1))
        values = np.array([[2.0], [4.0], [8.0]])
        attrs, margins = build_later_hop_attributes(coords, nbr_idx, axes)
        means = attrs.dense(values)
        assert means.shape == (3, 8, 1)
        # point 0 neighborhood projections rel to itself: (0,0,0), (1,0,0), (0,1,0)
        # flips: x {0,1,0} median 0 -> left 0 < right 1 -> +1; same for y; z tie -> -1
        # octants: 0 (incl. z=0 -> nonneg), values 2, 4, 8 all in octant 0
        assert means[0, 0, 0] == pytest.approx((2.0 + 4.0 + 8.0) / 3.0)
        assert np.abs(means[0, 1:, 0]).max() == 0.0

    def test_rigid_invariance_of_channel_means(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(30, 3))
        table = KnnIndex(coords).query(coords, 10)[0]
        axes, _ = local_pca_batch(coords, table)
        values = rng.normal(size=(30, 5))
        m0, margins = build_later_hop_attributes(coords, table, axes)
        m0 = m0.dense(values)

        r = random_rotation(rng)
        moved = coords @ r.T + rng.normal(size=3)
        axes_m, _ = local_pca_batch(moved, table)
        m1 = build_later_hop_attributes(moved, table, axes_m)[0].dense(values)

        stable = margins.min(axis=1) > 1e-6
        assert np.abs(m0[stable] - m1[stable]).max() < 1e-9


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TestTrain:
    def test_model_shape(self, tiny_model):
        assert tiny_model.hop1_layer.input_dim == 24
        assert len(tiny_model.later_hops) == 1
        assert tiny_model.feature_dim > 0
        assert tiny_model.feature_dim == tiny_model.tree.output_dim()

    def test_deterministic_retrain(self, tiny_corpus, tmp_path):
        from conftest import TINY_CONFIG

        a = train(tiny_corpus, TINY_CONFIG)
        b = train(tiny_corpus, TINY_CONFIG)
        pa, pb = tmp_path / "a.rph", tmp_path / "b.rph"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_empty_corpus(self):
        with pytest.raises(TrainingError, match="empty corpus"):
            train([])

    def test_cloud_too_small(self, tiny_corpus):
        small = PointCloud(tiny_corpus[0].coords[:100])
        with pytest.raises(CloudTooSmallError, match="hop 1 needs 192"):
            train([small], TINY_CONFIG)

    def test_overpruning_multi_hop_message(self, tiny_corpus):
        cfg = ModelConfig(
            hops=TINY_CONFIG.hops, k_lrf=TINY_CONFIG.k_lrf, energy_threshold=1.0,
        )
        with pytest.raises(TrainingError, match="entering hop 2"):
            train(tiny_corpus[:3], cfg)

    def test_overpruning_final_hop_message(self, tiny_corpus):
        cfg = ModelConfig(hops=(HopConfig(192, 24),), k_lrf=16, energy_threshold=1.0)
        with pytest.raises(TrainingError, match="final hop 1"):
            train(tiny_corpus[:3], cfg)

    def test_tree_structure_sound(self, tiny_model):
        tree = tiny_model.tree
        for node in tree.nodes[1:]:
            parent = tree.nodes[node.parent]
            assert node.cumulative == pytest.approx(parent.cumulative * node.fraction)
            assert parent.status != "discarded"
        hops = {n.hop for n in tree.nodes}
        assert hops == {0, 1, 2}
        # final-hop survivors are exactly the output nodes
        finals = [n for n in tree.nodes if n.hop == 2 and n.status != "discarded"]
        assert all(n.status == "output" for n in finals)
        assert len(finals) == tiny_model.feature_dim

    def test_later_hop_layers_cover_surviving_parents(self, tiny_model):
        survivors = {n.node_id for n in tiny_model.tree.nodes if n.hop == 1 and n.status != "discarded"}
        assert set(tiny_model.later_hops[0]) == survivors

    def test_traced_peak_stays_below_the_widest_hops_dense_inputs(self, tiny_corpus):
        # a later hop's inputs are held as octant operators and reduced to
        # moments one cloud at a time per lane, and no corpus pool is built,
        # so train never holds the corpus's dense inputs of its widest hop
        # (190 channels at hop 3)
        config = WIDE_CONFIG
        tracemalloc.start()
        try:
            model = train(tiny_corpus, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # hop h's inputs: one channel per survivor of hop h - 1 (hop 1: the
        # root's one), 24 or 8 wide
        survivors = Counter(n.hop for n in model.tree.nodes if n.status != "discarded")
        dense = max(
            len(tiny_corpus) * hop.num_points * (8 if h else 24) * survivors[h] * 8
            for h, hop in enumerate(config.hops)
        )
        assert survivors[2] == 190
        assert dense == len(tiny_corpus) * 128 * 8 * 190 * 8 == 12451840
        assert peak < dense

    def test_traced_peak_holds_a_block_of_dense_means_per_lane(self, tiny_corpus):
        # a lane makes a later hop's dense means and plan products one block
        # of at most 32 channels at a time, so beside the held operators
        # train's peak holds only a few blocks: 5.5 MB while each lane made
        # one cloud's (128, 8, 190) means of hop 3 whole, below 2.9 MB since
        tracemalloc.start()
        try:
            model = train(tiny_corpus, WIDE_CONFIG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(forward_plans(model)[2].biases) == 190  # train's plan of hop 3
        assert peak < 3.5e6

    def test_each_clouds_inputs_go_once_its_next_values_exist(self, tiny_corpus, monkeypatch):
        # with the lanes run serially, cloud j's step of hop 2 applies hop
        # 1's plan to the first n_2 rows of its hop-1 inputs, a copy it
        # carries: by then every cloud's whole hop-1 inputs are gone, and so
        # are the hop-2 values the clouds before it rebuilt; after the final
        # hop no cloud carries anything
        steps = []
        monkeypatch.setattr(pipeline, "_two_lanes", lambda fn, items: steps.append(fn) or [fn(x) for x in items])
        budgets = [hop.num_points for hop in FOUR_HOP_CONFIG.hops]
        inputs: list[weakref.ref] = []  # each cloud's whole hop-1 inputs
        rows: list[weakref.ref] = []  # each cloud's carried hop-1 rows
        values: list[weakref.ref] = []  # hop 2's values, as hop 2's steps rebuilt them
        hop_inputs, apply_blocks = pipeline._HopRun.hop_inputs, pipeline._apply_blocks

        def recording(run, h):
            x, neighbors = hop_inputs(run, h)
            if h == 0:
                inputs.append(weakref.ref(_root(x)))
            return x, neighbors

        def applying(plan, x, n, values_in=None):
            out = apply_blocks(plan, x, n, values_in)
            if not isinstance(x, _OctantMeans):  # hop 1's plan
                assert x.shape == (budgets[1], 24, 1) and x.base is None and n == budgets[1] and values_in is None
                if len(rows) < len(inputs):  # hop 2's steps: each cloud once, in corpus order
                    assert all(r() is None for r in inputs) and all(r() is None for r in values)
                    rows.append(weakref.ref(x))
                    values.append(weakref.ref(out))
            return out

        monkeypatch.setattr(pipeline._HopRun, "hop_inputs", recording)
        monkeypatch.setattr(pipeline, "_apply_blocks", applying)
        train(tiny_corpus, FOUR_HOP_CONFIG)
        assert len(inputs) == len(rows) == len(values) == len(tiny_corpus)
        assert _carried(steps[-1]) == [[]] * len(tiny_corpus)
        assert all(r() is None for r in rows + values)

    def test_runs_hold_only_what_the_next_hop_reads_across_each_fit(self, tiny_corpus, monkeypatch):
        # with the lanes run serially, every cloud's moments of hop h are
        # taken before hop h's fits: by then each run's per-point arrays
        # hold hop h + 1's rows, hop 1's whole inputs are gone, hop 2's
        # neighbor rows are int32, and each cloud carries the first n_2 rows
        # of its hop-1 inputs, a copy, and for each later non-final hop it
        # has passed the whole operator hop_inputs built; at the final hop it
        # carries nothing.
        # Each hop makes one lane call, for its values, inputs and moments
        steps = []
        monkeypatch.setattr(pipeline, "_two_lanes", lambda fn, items: steps.append(fn) or [fn(x) for x in items])
        config = FOUR_HOP_CONFIG
        budgets = [hop.num_points for hop in config.hops]
        last = len(budgets) - 1
        runs: list[pipeline._HopRun] = []
        built: dict[int, list[weakref.ref]] = {}  # hop -> each cloud's inputs, as hop_inputs made them
        hop_inputs, fit = pipeline._HopRun.hop_inputs, pipeline.saab_fit

        def recording(run, h):
            x, neighbors = hop_inputs(run, h)
            if h == 0:
                runs.append(run)
            built.setdefault(h, []).append(weakref.ref(_root(x) if h == 0 else x))
            return x, neighbors

        fits: Counter = Counter()

        def checking_fit(moments):
            h = max(built)
            fits[h] += 1
            rows = budgets[min(h + 1, last)]
            carried = _carried(steps[-1])
            assert len(carried) == len(runs)
            for i, (run, kept) in enumerate(zip(runs, carried)):
                held = (run.coords, run.orig_indices, run.axes, run.eigen_gaps, run.min_margin)
                assert [len(a) for a in held] == [rows] * 5, h + 1
                if h == 0:
                    assert run.hop2_table.dtype == np.int32 and len(run.hop2_table) == budgets[1]
                if h == last:
                    assert kept == [], h + 1
                else:
                    assert kept[0].shape == (budgets[1], 24, 1) and kept[0].base is None, h + 1
                    assert all(op is built[g][i]() for g, op in enumerate(kept[1:], 1)), h + 1
                    assert [len(op) for op in kept[1:]] == budgets[1 : h + 1], h + 1
            if h in (0, last):  # hop 1 keeps a copy of its rows, the final hop nothing
                assert all(r() is None for r in built[h]), h + 1
            return fit(moments)

        monkeypatch.setattr(pipeline._HopRun, "hop_inputs", recording)
        monkeypatch.setattr(pipeline, "saab_fit", checking_fit)
        train(tiny_corpus, config)
        n = len(tiny_corpus)
        assert len(runs) == n and sorted(fits) == [0, 1, 2, 3] and fits[0] == 1
        assert [len(r) for _, r in sorted(built.items())] == [n] * 4
        assert len(steps) == 1 + 4  # sampling, then one per hop

    def test_later_fits_hold_hop1_rows_and_an_operator_per_hop_passed(self, tiny_corpus, monkeypatch):
        # with the lanes run serially, at every later hop's fit each cloud
        # carries its hop-1 rows and, whole, the operator hop_inputs built
        # at each later non-final hop it has passed (nothing at the final
        # hop), and every array _apply_blocks returned, the values a cloud's
        # step rebuilt, is already gone
        steps = []
        monkeypatch.setattr(pipeline, "_two_lanes", lambda fn, items: steps.append(fn) or [fn(x) for x in items])
        config = FOUR_HOP_CONFIG
        budgets = [hop.num_points for hop in config.hops]
        rebuilt: list[weakref.ref] = []
        built: dict[int, list[weakref.ref]] = {}  # later hop -> each cloud's operator
        hop_inputs, apply_blocks, fit = pipeline._HopRun.hop_inputs, pipeline._apply_blocks, pipeline.saab_fit
        hop = [0]  # the hop whose inputs were built last

        def recording(run, h):
            hop[0] = h
            x, neighbors = hop_inputs(run, h)
            if h:
                built.setdefault(h, []).append(weakref.ref(x))
            return x, neighbors

        def applying(plan, x, n, values=None):
            out = apply_blocks(plan, x, n, values)
            rebuilt.append(weakref.ref(out))
            return out

        checked = set()

        def checking_fit(moments):
            h = hop[0]
            if h and h not in checked:
                checked.add(h)
                final = h == len(budgets) - 1
                carried = _carried(steps[-1])
                for i, kept in enumerate(carried):
                    if final:
                        assert kept == []
                    else:
                        assert [len(a) for a in kept] == budgets[1:2] + budgets[1 : h + 1]
                        assert all(op is built[g][i]() for g, op in enumerate(kept[1:], 1)), h + 1
                # hop h's step applies the plans of hops 1..h
                assert len(rebuilt) == h * (h + 1) // 2 * len(carried) and all(r() is None for r in rebuilt), h + 1
            return fit(moments)

        monkeypatch.setattr(pipeline._HopRun, "hop_inputs", recording)
        monkeypatch.setattr(pipeline, "_apply_blocks", applying)
        monkeypatch.setattr(pipeline, "saab_fit", checking_fit)
        train(tiny_corpus, config)
        assert checked == {1, 2, 3}
        # hop 2's step rebuilds hop 2's values, hop 3's those of hops 2 and 3, hop 4's those of hops 2-4
        assert len(rebuilt) == 6 * len(tiny_corpus)

    def test_each_clouds_moments_go_once_merged(self, tiny_corpus, monkeypatch):
        # with the real lanes, train merges each cloud's moments as the
        # lanes hand them back: when the calling thread starts a cloud's
        # step, the moments of every cloud but the two before it are gone
        # (the merge holds the last pair it read), and at every fit no
        # cloud's are alive
        lanes, fit = pipeline._two_lanes, pipeline.saab_fit
        taken: list[dict[int, weakref.ref]] = []  # per hop: cloud -> its moments
        alive, checked = [], []

        def recording(fn, items):
            if not isinstance(items, range):  # farthest point sampling's half-stacks
                return lanes(fn, items)
            held: dict[int, weakref.ref] = {}
            taken.append(held)

            def step(i):
                if threading.current_thread() is threading.main_thread():
                    checked.append(i)
                    alive.extend((len(taken), j) for j, r in list(held.items()) if j < i - 2 and r() is not None)
                moments = fn(i)
                held[i] = weakref.ref(moments)
                return moments

            return lanes(step, items)

        def checking_fit(moments):
            alive.extend(("fit", j) for held in taken for j, r in held.items() if r() is not None)
            return fit(moments)

        monkeypatch.setattr(pipeline, "_two_lanes", recording)
        monkeypatch.setattr(pipeline, "saab_fit", checking_fit)
        train(tiny_corpus, TINY_CONFIG)
        n = len(tiny_corpus)
        assert [len(held) for held in taken] == [n] * len(TINY_CONFIG.hops)
        assert checked == list(range(0, n, 2)) * len(TINY_CONFIG.hops)
        assert alive == []

    @staticmethod
    def _check_layers_fit_merged_cloud_moments(model, corpus):
        # replay train's runs with its forward plans, which carry every
        # survivor: at each hop the corpus-order merge of the clouds' moments
        # is the stacked pool's, and each layer is the fit of its channel's
        # merged moments
        config = model.config
        rng = np.random.Generator(np.random.PCG64(config.seed))
        runs = [  # one cloud at a time: train samples the corpus in two stacks
            _start_runs([normalize_unit_sphere(cloud).coords], config, [int(rng.integers(2**63))], fit=True)[0]
            for cloud in corpus
        ]
        hop_layers = ({0: model.hop1_layer}, *model.later_hops)
        values = [None] * len(runs)
        for h, (plan, layers) in enumerate(zip(forward_plans(model), hop_layers)):
            inputs = [run.hop_inputs(h)[0] for run in runs]
            merged = functools.reduce(SampleMoments.merge, [_moments(x, v) for x, v in zip(inputs, values)])
            pool = np.concatenate([_dense_inputs(x, v) for x, v in zip(inputs, values)])  # (B·P, N, C)
            assert len(merged) == len(pool) and pool.shape[2] == len(layers)
            for c, pid in enumerate(sorted(layers)):
                x = pool[:, :, c]
                got = merged[c]
                for name, value, want in (
                    ("mean", got.mean, x.mean(axis=0)),
                    ("cov", got.cov, np.cov(x, rowvar=False, bias=True)),
                    ("max_sq_norm", got.max_sq_norm, (x * x).sum(axis=1).max()),
                ):
                    assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max(), (h, pid, name)
                want_layer = saab_fit(got)
                for f in dataclasses.fields(SaabLayer):
                    assert np.array_equal(getattr(layers[pid], f.name), getattr(want_layer, f.name)), (h, pid, f.name)
            values = [plan.apply(_dense_inputs(x, v)) for x, v in zip(inputs, values)]

    def test_layers_fit_merged_cloud_moments(self, tiny_model, tiny_corpus):
        self._check_layers_fit_merged_cloud_moments(tiny_model, tiny_corpus)

    def test_layers_fit_merged_cloud_moments_at_four_hops(self, tiny_corpus):
        # hops 3 and 4 fit the moments of values train rebuilds in each step
        model = train(tiny_corpus, FOUR_HOP_CONFIG)
        assert len(model.later_hops) == 3
        self._check_layers_fit_merged_cloud_moments(model, tiny_corpus)

    def test_moments_leave_hop1_inputs_unchanged(self, tiny_corpus):
        # hop 1's plan apply reads the same (P, 24, 1) array after its
        # moments are taken, so the reduction must not center it in place
        run = _start_runs([normalize_unit_sphere(tiny_corpus[0]).coords], TINY_CONFIG, [3], fit=True)[0]
        x = run.hop_inputs(0)[0]
        assert x.shape == (TINY_CONFIG.hops[0].num_points, 24, 1)
        before = x.tobytes()
        _moments(x)
        assert x.tobytes() == before


class TestChannelBlocks:
    """Train's moments and plan applies of a later hop's operator, made one
    block of channels at a time, give the bits of the whole."""

    @staticmethod
    def _same(got: SampleMoments, want: SampleMoments) -> None:
        # same bits and the same memory: a fit's matmuls read each channel's
        # covariance, and their loops, so their bits, depend on its strides
        # (those of axes longer than 1)
        assert got.count == want.count
        for name in ("mean", "cov", "max_sq_norm"):
            a, b = getattr(got, name), getattr(want, name)
            layout = [(s, d) for s, d in zip(a.strides, a.shape) if d > 1]
            assert a.shape == b.shape and layout == [(s, d) for s, d in zip(b.strides, b.shape) if d > 1], name
            assert a.tobytes() == b.tobytes(), name

    @staticmethod
    def _operator(
        rng: np.random.Generator, p: int, c: int, k: int = 12, n: int = 90
    ) -> tuple[_OctantMeans, np.ndarray]:
        proj = rng.normal(size=(p, k, 3))
        values = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-2, 2, size=c) + rng.normal(size=c)
        return _OctantMeans(proj, rng.integers(0, n, size=(p, k))), values

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 300),
        n=st.sampled_from([8, 24]),
        c=st.one_of(
            st.just(1),
            st.integers(2, _CHANNEL_BLOCK - 1),
            st.just(_CHANNEL_BLOCK),
            st.integers(_CHANNEL_BLOCK + 1, 3 * _CHANNEL_BLOCK).filter(lambda c: c % _CHANNEL_BLOCK),
        ),
    )
    @example(seed=0, p=50, n=8, c=_CHANNEL_BLOCK + 1)  # a fixed-width cut would leave one channel alone
    @settings(max_examples=40, deadline=None)
    def test_moments_match_the_whole_einsum(self, seed, p, n, c):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(p, n, c)) * 10.0 ** rng.uniform(-2, 2) + rng.normal()
        before = x.tobytes()
        self._same(_moments(x), moments_oracle(x))
        assert x.tobytes() == before
        means, values = self._operator(rng, p, c)
        self._same(_moments(means, values), moments_oracle(means, values))

    @pytest.mark.parametrize("c", [1, 2, 31, 32, 33, 64, 65, 190])
    def test_blocks_cover_the_channels_at_most_32_wide_and_none_alone(self, c):
        blocks = _channel_blocks(c)
        assert [i for b in blocks for i in range(c)[b]] == list(range(c))
        widths = [b.stop - b.start for b in blocks]
        assert len(blocks) == -(-c // _CHANNEL_BLOCK) and max(widths) - min(widths) <= 1
        assert max(widths) <= _CHANNEL_BLOCK == 32 and (min(widths) > 1 or c == 1)

    @pytest.mark.parametrize("k", [1, 8])  # one-filter layers take matmul's vector loops
    @pytest.mark.parametrize("c", [1, 5, 32, 33, 70])
    def test_blocked_apply_is_the_whole_plans(self, c, k, monkeypatch):
        # with three blocks, the middle one's parents keep no child
        rng = np.random.default_rng(c)
        p, rows = 300, 257
        means, values = self._operator(rng, p, c)
        slots = np.flatnonzero(rng.random(c * k) < 0.6)
        blocks = _channel_blocks(c)
        idle = blocks[1] if len(blocks) > 2 else None
        if idle:
            slots = slots[(slots < idle.start * k) | (slots >= idle.stop * k)]
        plan = HopPlan(rng.normal(size=(c, 8, k)), rng.uniform(1, 2, size=c), slots)
        kept = [b for b in blocks if plan.block(b)[0].slots.size]
        assert kept == [b for b in blocks if b != idle]
        applied, apply = [], HopPlan.apply
        monkeypatch.setattr(HopPlan, "apply", lambda sub, x: applied.append(x.shape[2]) or apply(sub, x))
        got = _apply_blocks(plan, means, rows, values)
        # the idle block is neither made dense nor applied
        assert applied == [b.stop - b.start for b in kept]
        want = apply(plan, means.dense(values, rows))
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.tobytes() == want.tobytes()

    def test_the_190_channel_hops_real_inputs(self, tiny_corpus):
        # replay train's runs on its forward plans, which carry every
        # survivor: 190 channels enter hop 3
        model = train(tiny_corpus, WIDE_CONFIG)
        runs = _start_runs(
            [normalize_unit_sphere(cloud).coords for cloud in tiny_corpus], WIDE_CONFIG, range(len(tiny_corpus)), fit=True
        )
        plans = forward_plans(model)
        assert [len(plan.biases) for plan in plans] == [1, 24, 190]
        values = [None] * len(runs)
        for h, plan in enumerate(plans):
            rows = WIDE_CONFIG.hops[min(h + 1, 2)].num_points
            assert len(_channel_blocks(len(plan.biases))) == [1, 1, 6][h]
            for i, run in enumerate(runs):
                x, _ = run.hop_inputs(h)
                self._same(_moments(x, values[i]), moments_oracle(x, values[i]))
                want = plan.apply(_dense_inputs(x, values[i])[:rows])
                got = _apply_blocks(plan, x, rows, values[i])
                assert got.tobytes() == want.tobytes(), h + 1
                values[i] = got

    @pytest.mark.parametrize("wide", [True, False], ids=["blocks", "one_block"])
    def test_extraction_is_the_whole_plans_replay(self, tiny_corpus, tiny_model, wide):
        # extraction applies each live plan a block of channels at a time; the
        # 190-channel config's last live plan takes more than a block of
        # parents, and the features keep the bits of each whole plan applied
        # to its hop's whole dense inputs
        model = train(tiny_corpus, WIDE_CONFIG) if wide else tiny_model
        parents = len(model.plans[-1].biases)
        plan = model.plans[-1]
        live = [b for b in _channel_blocks(parents) if plan.block(b)[0].slots.size]
        assert (parents > _CHANNEL_BLOCK and len(live) > 2) == wide
        for seed, cloud in enumerate(tiny_corpus[:3]):
            (run,) = _start_runs([cloud.coords], model.config, [seed])
            values = None
            for h, plan in enumerate(model.plans):
                x, neighbors = run.hop_inputs(h)
                values = plan.apply(_dense_inputs(x, values))
            want = {
                "point_indices": run.orig_indices,
                "coords": run.coords,
                "features": values,
                "sign_margins": run.min_margin,
                "eigen_gaps": run.eigen_gaps,
                "neighbor_table": neighbors,
            }
            for fs in (extract_features(model, cloud, seed), extract_pair(model, cloud, cloud, seed)[1]):
                for name, value in want.items():
                    got = getattr(fs, name)
                    assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                    assert got.tobytes() == value.tobytes(), name


# ---------------------------------------------------------------------------
# frozen hop plans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["tiny", "one_hop", "three_hop", "four_hop"])
def plan_model(request, tiny_model, tiny_corpus):
    if request.param == "tiny":
        return tiny_model
    hops = {
        "one_hop": TINY_CONFIG.hops[:1],
        "three_hop": (*TINY_CONFIG.hops, HopConfig(64, 16)),
        "four_hop": FOUR_HOP_CONFIG.hops,
    }[request.param]
    return train(tiny_corpus[:3], ModelConfig(hops=hops, k_lrf=TINY_CONFIG.k_lrf))


# models with dead-end channels: survivors none of whose descendants survive
# the final hop (three_hop keeps 21 of its 24 hop-1 channels live)
DEAD_END_HOPS = {
    "three_hop": (*TINY_CONFIG.hops, HopConfig(64, 16)),
    "four_hop": (*TINY_CONFIG.hops, HopConfig(96, 16), HopConfig(64, 16)),
}


@pytest.fixture(scope="module", params=sorted(DEAD_END_HOPS))
def dead_end_model(request, tiny_corpus):
    return train(tiny_corpus[:3], ModelConfig(hops=DEAD_END_HOPS[request.param], k_lrf=TINY_CONFIG.k_lrf))


class TestHopPlans:
    def test_one_plan_per_hop(self, plan_model):
        assert len(plan_model.plans) == len(plan_model.config.hops)
        assert plan_model.plans[0].filters.shape[0] == 1  # hop 1: the root's one channel
        assert plan_model.plans[-1].slots.size == plan_model.feature_dim

    def test_plans_match_tree_walk_oracle(self, plan_model, tiny_corpus):
        # the reference walk computes every point of every hop, as a fit
        # does, and every surviving channel, as training does; extraction
        # computes only the points a later hop reads and the live channels,
        # the outputs and their ancestors
        cloud = tiny_corpus[5]
        config = plan_model.config
        (run,) = _start_runs([cloud.coords], config, [2], fit=True)
        hop_layers = ({0: plan_model.hop1_layer}, *plan_model.later_hops)
        live = live_node_ids(plan_model.tree)
        parent_ids, live_columns, values = [0], [0], None
        for h, (hop, plan) in enumerate(zip(config.hops, plan_model.plans)):
            x, neighbors = run.hop_inputs(h)
            x = _dense_inputs(x, values)
            assert len(x) == hop.num_points
            want, parent_ids = hop_oracle(plan_model.tree, hop_layers[h], parent_ids, x)
            live_ids = [i for i in parent_ids if i in live]
            got = plan.apply(x[:, :, live_columns])
            assert plan.filters.shape[0] == len(live_columns) and got.shape[1] == len(live_ids)
            live_columns = [parent_ids.index(i) for i in live_ids]
            assert np.array_equal(got, want[:, live_columns]), f"hop {h + 1}"
            values = want
        assert np.array_equal(got, want)  # the final hop: every output, in full
        # each hop's points are farthest point sampled from the previous hop's
        kept = sample_indices(len(cloud), config.hops[0].num_points, 2)
        for hop in config.hops[1:]:
            kept = kept[fps_indices(cloud.coords[kept], hop.num_points, start=0)]
        assert np.array_equal(run.orig_indices, kept)
        want = {
            "point_indices": kept,
            "coords": cloud.coords[kept],
            "features": values,
            "sign_margins": run.min_margin,
            "eigen_gaps": run.eigen_gaps,
            "neighbor_table": neighbors,
        }
        assert set(want) == {f.name for f in dataclasses.fields(FeatureSet)}
        fs = extract_features(plan_model, cloud, seed=2)
        for name, value in want.items():
            assert np.array_equal(getattr(fs, name), value), name

    def test_live_features_equal_forward_plan_features(self, dead_end_model, tiny_corpus):
        # training's forward plans keep every survivor; the final one's
        # slots take every output, which the live plans also give
        forward = forward_plans(dead_end_model)
        live_widths = [plan.slots.size for plan in dead_end_model.plans]
        forward_widths = [plan.slots.size for plan in forward]
        assert live_widths[-1] == forward_widths[-1] == dead_end_model.feature_dim
        assert all(a < b for a, b in zip(live_widths[:-1], forward_widths[:-1]))
        full = copy.copy(dead_end_model)
        object.__setattr__(full, "plans", forward)
        for seed, cloud in enumerate(tiny_corpus[3:6]):
            got = extract_features(dead_end_model, cloud, seed=seed)
            want = extract_features(full, cloud, seed=seed)
            for f in dataclasses.fields(FeatureSet):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name

    def test_plans_keep_the_live_channels(self, dead_end_model):
        # each plan keeps the live nodes of its hop, and its parents are the
        # previous plan's kept children, the root's for hop 1
        tree = dead_end_model.tree
        live = live_node_ids(tree)
        child = {(n.parent, n.channel): n.node_id for n in tree.nodes[1:]}
        hop_layers = ({0: dead_end_model.hop1_layer}, *dead_end_model.later_hops)
        parent_ids = [0]
        for h, (plan, layers) in enumerate(zip(dead_end_model.plans, hop_layers)):
            assert plan.biases.tolist() == [layers[pid].bias for pid in parent_ids], f"hop {h + 1}"
            for c, pid in enumerate(parent_ids):
                assert np.array_equal(plan.filters[c, :, : layers[pid].kept_dim], layers[pid].filters.T)
            k = plan.filters.shape[2]
            kept = [child[parent_ids[s // k], s % k] for s in plan.slots.tolist()]
            assert kept == sorted(i for i in live if tree.nodes[i].hop == h + 1), f"hop {h + 1}"
            parent_ids = kept

    def test_loaded_model_derives_the_same_plans(self, plan_model, tmp_path):
        save_model(plan_model, tmp_path / "m.rph")
        loaded = load_model(tmp_path / "m.rph")
        assert len(loaded.plans) == len(plan_model.plans)
        for got, want in zip(loaded.plans, plan_model.plans):
            for f in dataclasses.fields(HopPlan):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name

    def test_train_applies_each_plan_to_the_next_hops_rows(self, plan_model, tiny_corpus, monkeypatch):
        # each cloud's step of hop h >= 2 rebuilds hop h's values, applying
        # the plans of hops 1..h - 1 in turn; every plan applies at the next
        # hop's rows, and the final hop's plan, whose outputs are never read,
        # not at all (the lanes run serially, so the calls come in corpus
        # order)
        monkeypatch.setattr(pipeline, "_two_lanes", lambda fn, items: [fn(x) for x in items])
        calls, rows = [], []
        apply_blocks, apply = pipeline._apply_blocks, HopPlan.apply

        def recording_blocks(plan, x, n, values=None):
            calls.append((plan, n))
            return apply_blocks(plan, x, n, values)

        def recording(plan, x):
            rows.append(len(x))
            return apply(plan, x)

        monkeypatch.setattr(pipeline, "_apply_blocks", recording_blocks)
        monkeypatch.setattr(HopPlan, "apply", recording)
        model = train(tiny_corpus[:3], plan_model.config)
        budgets = [hop.num_points for hop in plan_model.config.hops]
        forward = forward_plans(model)
        want = [j for h in range(1, len(budgets)) for _ in range(3) for j in range(h)]
        assert len(calls) == len(want)
        for (plan, n), j in zip(calls, want):
            for f in dataclasses.fields(HopPlan):
                assert np.array_equal(getattr(plan, f.name), getattr(forward[j], f.name)), (j, f.name)
            assert n == budgets[j + 1]
        # the plan's blocks apply at its rows too
        assert set(rows) == {budgets[j + 1] for j in want} and len(rows) >= len(want)

    @pytest.mark.parametrize("k", [1, 3], ids=["one_cloud", "three_clouds"])
    def test_one_fps_call_per_stack(self, plan_model, tiny_corpus, monkeypatch, k):
        # train samples its corpus in two half-stacks, one per lane, in
        # corpus order (a 1-cloud corpus leaves the second half empty); an
        # extraction samples a stack of one, and a register pair one (2, n, 3)
        # stack, on the calling thread
        calls = []
        real = pipeline.fps_indices

        def recording(points, m, start=0):
            calls.append((threading.current_thread().name, np.array(points), m, start))
            return real(points, m, start)

        monkeypatch.setattr(pipeline, "fps_indices", recording)
        config = plan_model.config
        budget = config.hops[0].num_points
        caller = threading.current_thread().name
        multi_hop = len(config.hops) > 1

        def samples(clouds, seeds):
            return np.stack([c.coords[sample_indices(len(c), budget, s)] for c, s in zip(clouds, seeds)])

        def assert_calls(stacks, lanes):
            # the lanes' calls may end in either order; the caller's comes first here
            assert len(calls) == (len(stacks) if multi_hop else 0)
            calls.sort(key=lambda call: call[0] != caller)
            for (lane, points, m, start), stack, on_caller in zip(calls, stacks, lanes):
                assert (lane == caller) == on_caller
                assert points.shape == stack.shape and points.tobytes() == stack.tobytes()
                assert (m, start) == (config.hops[1].num_points, 0)
            calls.clear()

        corpus = [normalize_unit_sphere(c) for c in tiny_corpus[:k]]
        rng = np.random.Generator(np.random.PCG64(config.seed))
        stack = samples(corpus, [int(rng.integers(2**63)) for _ in corpus])
        half = -(-k // 2)
        train(tiny_corpus[:k], config)
        assert_calls([stack[:half], stack[half:]], [True, False])

        extract_features(plan_model, tiny_corpus[4], seed=1)
        assert_calls([samples(tiny_corpus[4:5], [1])], [True])

        target, source = tiny_corpus[5], tiny_corpus[6]
        extract_pair(plan_model, target, source, 7)
        assert_calls([samples([target, source], [7, 7])], [True])


class TestFarthestFirstRows:
    @pytest.mark.parametrize("fit", [True, False], ids=["fit", "extract"])
    @pytest.mark.parametrize(
        "budgets", [(192,), (192, 192, 96), (192, 128, 64)], ids=["one_hop", "equal_budgets", "three_hop"]
    )
    def test_every_hop_is_a_prefix_of_nested_fps(self, tiny_corpus, budgets, fit):
        cloud = tiny_corpus[1]
        config = ModelConfig(hops=tuple(HopConfig(n, 16) for n in budgets), k_lrf=16)
        (run,) = _start_runs([cloud.coords], config, [3], fit=fit)
        # sampling each hop's points from the previous hop's
        nested = [sample_indices(len(cloud), budgets[0], 3)]
        for n in budgets[1:]:
            nested.append(nested[-1][fps_indices(cloud.coords[nested[-1]], n, start=0)])
        # hop 2's points first, then the rest in sampling order; one hop keeps sampling order
        picks = nested[1] if len(budgets) > 1 else nested[0][:0]
        rest = nested[0][~np.isin(nested[0], picks)]
        assert np.array_equal(run.orig_indices, np.concatenate([picks, rest]))
        assert np.array_equal(run.coords, cloud.coords[run.orig_indices])
        for h, n in enumerate(budgets[1:], start=1):
            assert np.array_equal(run.orig_indices[:n], nested[h])
        # a fit computes every point; extraction only those the next hop keeps
        wants = list(budgets) if fit else [*budgets[1:], budgets[-1]]
        for h, want in enumerate(wants):
            # a hop's rows, as the previous hop_inputs call cut the run to them
            if h:
                assert np.array_equal(run.orig_indices, nested[h])
                assert len(run.axes) == len(run.min_margin) == want
            x, neighbors = run.hop_inputs(h)
            assert np.array_equal(run.coords, cloud.coords[run.orig_indices])
            assert len(x) == len(neighbors) == want
        # nothing is cut at the final hop
        assert len(run.orig_indices) == budgets[-1]
        assert len(run.axes) == len(run.min_margin) == wants[-1]


class TestHop2Table:
    """Hop 2's neighbor rows, read off hop 1's exact table."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        coords=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_matches_the_knn_oracle_property(self, coords, data):
        # lattice points tie on distance everywhere, and copies shuffled in
        # duplicate them; a narrow table or a short prefix leaves rows with
        # fewer than k entries inside the prefix, which the tree answers
        pts = np.asarray(coords, dtype=np.float64)
        copies = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=8), label="copies")
        pts = np.vstack([pts, pts[copies]])
        pts = pts[data.draw(st.permutations(range(len(pts))), label="order")]
        n = data.draw(st.integers(1, len(pts)), label="n")
        k = data.draw(st.integers(1, n), label="k")
        rows = data.draw(st.integers(1, n), label="rows")
        width = data.draw(st.integers(1, len(pts)), label="width")
        queried = data.draw(st.integers(rows, len(pts)), label="table rows")
        table = KnnIndex(pts).query(pts[:queried], width)[0]
        got = pipeline._prefix_table(table, pts[:n], k, rows)
        want = np.array([knn_oracle(pts[:n], pts[i], k)[0] for i in range(rows)])
        assert got.dtype == np.intp and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width, n, k", [(24, 120, 12), (40, 184, 16), (16, 100, 9)])
    def test_off_lattice_rows_equal_the_prefix_query(self, seed, width, n, k):
        # inexact d² round near-ties either way, and copies tie exactly;
        # narrow tables leave short rows for the tree
        pts = off_lattice_points(seed)
        rows = n // 2
        table = KnnIndex(pts).query(pts[:rows], width)[0]
        got = pipeline._prefix_table(table, pts[:n], k, rows)
        want = KnnIndex(pts[:n]).query(pts[:rows], k)[0]
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_only_short_rows_query_the_tree(self, monkeypatch):
        rng = np.random.default_rng(0)
        pts = rng.integers(-4, 5, size=(200, 3)).astype(np.float64)  # ties and duplicates, exact d²
        table = KnnIndex(pts).query(pts[:100], 24)[0]
        n, k = 120, 12
        short = int(np.count_nonzero((table < n).sum(axis=1) < k))
        assert 0 < short < 100
        queried = []
        real = KnnIndex.query

        def recording(index, queries, kk):
            queried.append((len(index), len(queries), kk))
            return real(index, queries, kk)

        monkeypatch.setattr(KnnIndex, "query", recording)
        got = pipeline._prefix_table(table, pts[:n], k, 100)
        assert queried == [(n, short, k)]
        monkeypatch.undo()
        assert np.array_equal(got, [knn_oracle(pts[:n], pts[i], k)[0] for i in range(100)])

    @pytest.mark.parametrize("fit", [True, False], ids=["fit", "extract"])
    @pytest.mark.parametrize(
        "config", [ModelConfig(), PARTIAL_CONFIG, TINY_CONFIG], ids=["default", "partial", "tiny"]
    )
    def test_runs_read_the_trees_rows(self, config, fit):
        # read off hop 1's table, or queried where it holds too few (about
        # half the partial model's rows), the rows are the tree's
        _, want = corpus_hop_tables(config, fit)[1]
        cloud = make_shape_corpus(1, 1024, seed=0)[0]
        (run,) = _start_runs([normalize_unit_sphere(cloud).coords], config, [0], fit=fit)
        run.hop_inputs(0)
        assert run.hop2_table is not None
        _, got = run.hop_inputs(1)
        assert run.hop2_table is None  # held only until hop 2 reads it
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


class TestExtractFeatures:
    def test_shapes_and_indices(self, tiny_model, tiny_corpus):
        cloud = tiny_corpus[0]
        fs = extract_features(tiny_model, cloud, seed=3)
        assert len(fs) == 128  # final hop budget
        assert fs.features.shape == (128, tiny_model.feature_dim)
        assert np.array_equal(fs.coords, cloud.coords[fs.point_indices])
        assert fs.sign_margins.shape == (128,)
        assert fs.eigen_gaps.shape == (128,)

    def test_negative_seed_is_refused_by_name(self, tiny_model, tiny_corpus):
        cloud = tiny_corpus[0]
        with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
            extract_features(tiny_model, cloud, seed=-1)
        with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
            extract_pair(tiny_model, cloud, cloud, -1)

    def test_neighbor_table_is_final_hop_neighborhood(self, tiny_model, tiny_corpus):
        fs = extract_features(tiny_model, tiny_corpus[0], seed=3)
        assert fs.neighbor_table.shape == (128, 16)
        assert np.array_equal(fs.neighbor_table, KnnIndex(fs.coords).query(fs.coords, 16)[0])

    def test_one_hop_neighbor_table(self, tiny_corpus):
        model = train(tiny_corpus[:3], ModelConfig(hops=(HopConfig(192, 24),), k_lrf=16))
        fs = extract_features(model, tiny_corpus[0], seed=3)
        assert fs.neighbor_table.shape == (192, 24)
        assert np.array_equal(fs.neighbor_table, KnnIndex(fs.coords).query(fs.coords, 24)[0])

    def test_deterministic_per_seed(self, tiny_model, tiny_corpus):
        a = extract_features(tiny_model, tiny_corpus[1], seed=9)
        b = extract_features(tiny_model, tiny_corpus[1], seed=9)
        assert np.array_equal(a.point_indices, b.point_indices)
        assert np.array_equal(a.features, b.features)

    def test_seed_changes_sampling(self, tiny_model, tiny_corpus):
        a = extract_features(tiny_model, tiny_corpus[1], seed=0)
        b = extract_features(tiny_model, tiny_corpus[1], seed=1)
        assert not np.array_equal(a.point_indices, b.point_indices)

    def test_rigid_invariance_of_features(self, tiny_model, tiny_corpus):
        rng = np.random.default_rng(7)
        cloud = tiny_corpus[2]
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        moved = apply_transform(cloud, tf)

        a = extract_features(tiny_model, cloud, seed=4)
        b = extract_features(tiny_model, moved, seed=4)
        # same seed -> same hop-1 sample of the same row ordering
        assert np.array_equal(a.point_indices, b.point_indices)
        stable = (a.sign_margins > 1e-6) & (a.eigen_gaps > 1e-6)
        assert stable.sum() > 0.8 * len(a)
        diff = np.abs(a.features[stable] - b.features[stable]).max()
        assert diff < 1e-8, f"feature invariance violated: {diff:.3e}"

    def test_feature_set_validation(self):
        with pytest.raises(ValueError, match="one row per point"):
            FeatureSet(
                point_indices=np.arange(3),
                coords=np.zeros((3, 3)),
                features=np.zeros((2, 4)),
                sign_margins=np.zeros(3),
                eigen_gaps=np.zeros(3),
                neighbor_table=np.arange(3)[:, None],
            )
        with pytest.raises(ValueError, match="non-finite"):
            FeatureSet(
                point_indices=np.arange(2),
                coords=np.zeros((2, 3)),
                features=np.array([[np.nan], [0.0]]),
                sign_margins=np.zeros(2),
                eigen_gaps=np.zeros(2),
                neighbor_table=np.arange(2)[:, None],
            )

        def with_table(table):
            return FeatureSet(
                point_indices=np.arange(3),
                coords=np.zeros((3, 3)),
                features=np.zeros((3, 2)),
                sign_margins=np.zeros(3),
                eigen_gaps=np.zeros(3),
                neighbor_table=table,
            )

        assert with_table(np.arange(3)[:, None]).neighbor_table.tolist() == [[0], [1], [2]]
        assert with_table(np.array([[0, 1], [1, 2], [2, 0]])).neighbor_table.shape == (3, 2)
        with pytest.raises(ValueError, match="one row per point"):
            with_table(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="one row per point"):
            with_table(np.arange(3))
        with pytest.raises(ValueError, match="integer"):
            with_table(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="lie in"):
            with_table(np.array([[0], [1], [3]]))
        with pytest.raises(ValueError, match="lie in"):
            with_table(np.array([[0], [-1], [2]]))


DEGENERATE_KINDS = ("duplicated", "coincident", "coplanar", "collinear", "lattice")


def degenerate_cloud(kind: str, n: int, rng: np.random.Generator) -> PointCloud:
    """n points of one degenerate kind, scaled and moved as a whole."""
    if kind == "duplicated":  # about four copies of each position
        base = rng.normal(size=(max(n // 4, 1), 3))
        pts = base[rng.integers(len(base), size=n)]
    elif kind == "coincident":
        pts = np.zeros((n, 3))
    elif kind == "coplanar":  # one coordinate shared exactly
        pts = rng.normal(size=(n, 3))
        pts[:, rng.integers(3)] = rng.normal()
    elif kind == "collinear":
        pts = rng.normal(size=(n, 1)) * rng.normal(size=3)
    else:  # integer lattice: ties in every distance, repeated points
        pts = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
    return PointCloud(pts * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=3) * 5)


class TestDegenerateClouds:
    """Extraction on degenerate clouds, at scales far outside the training
    norm ball, gives finite features; a cloud below the hop-1 budget gives
    an error naming both counts."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(DEGENERATE_KINDS),
        n=st.integers(192, 320),
        cloud_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_finite_features(self, tiny_model, kind, n, cloud_seed, seed):
        cloud = degenerate_cloud(kind, n, np.random.default_rng(cloud_seed))
        fs = extract_features(tiny_model, cloud, seed)
        final = tiny_model.config.hops[-1].num_points
        assert fs.features.shape == (final, tiny_model.feature_dim)
        assert np.isfinite(fs.features).all()
        assert np.isfinite(fs.sign_margins).all() and (fs.sign_margins >= 0).all()
        assert np.isfinite(fs.eigen_gaps).all()
        assert np.array_equal(fs.coords, cloud.coords[fs.point_indices])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(DEGENERATE_KINDS),
        n=st.integers(1, 191),
        cloud_seed=st.integers(0, 2**32 - 1),
    )
    def test_cloud_below_hop1_budget(self, tiny_model, kind, n, cloud_seed):
        cloud = degenerate_cloud(kind, n, np.random.default_rng(cloud_seed))
        with pytest.raises(CloudTooSmallError, match=f"cloud has {n} points but hop 1 needs 192"):
            extract_features(tiny_model, cloud)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


class TestModelFile:
    def test_round_trip_preserves_everything(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        back = load_model(path)
        assert back.config == tiny_model.config
        assert back.feature_dim == tiny_model.feature_dim
        assert np.array_equal(back.hop1_layer.filters, tiny_model.hop1_layer.filters)
        assert back.hop1_layer.bias == tiny_model.hop1_layer.bias
        assert np.array_equal(back.hop1_layer.energies, tiny_model.hop1_layer.energies)
        for mine, theirs in zip(tiny_model.later_hops, back.later_hops):
            assert sorted(mine) == sorted(theirs)
            for pid in mine:
                assert np.array_equal(mine[pid].filters, theirs[pid].filters)
        assert len(back.tree.nodes) == len(tiny_model.tree.nodes)
        for a, b in zip(tiny_model.tree.nodes, back.tree.nodes):
            assert (a.node_id, a.hop, a.parent, a.channel, a.status) == (
                b.node_id, b.hop, b.parent, b.channel, b.status,
            )
            assert a.cumulative == pytest.approx(b.cumulative, abs=0)

    def test_save_load_save_byte_identical(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.rph", tmp_path / "b.rph"
        save_model(tiny_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_features_identical(self, tiny_model, tiny_corpus, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        back = load_model(path)
        a = extract_features(tiny_model, tiny_corpus[0], seed=1)
        b = extract_features(back, tiny_corpus[0], seed=1)
        assert np.array_equal(a.features, b.features)

    def test_bad_magic(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_unsupported_version(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("length", 2**40),
            ("input_dim", 10**13),
            ("input_dim", 3 * 10**9),
            ("input_dim", 2**62),
            ("n_ac", 2**61 + 1),
        ],
    )
    def test_declared_size_past_the_end_is_truncated(self, tiny_model, tmp_path, field, value):
        # a header length or hop-1 layer shape past the end of the file is
        # refused before read() tries to allocate it, which would raise
        # MemoryError or OverflowError; the float count of a (2**61 + 1, 24)
        # array must not wrap, as 24 does modulo 2**64
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        blob = raw[16 : 16 + blob_len]
        if field != "length":
            header = json.loads(blob)
            header["hop1"][field] = value
            blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        length = value if field == "length" else len(blob)
        path.write_bytes(raw[:8] + struct.pack("<Q", length) + blob + raw[16 + blob_len :])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    @staticmethod
    def _unknown_status(model):
        tree = copy.deepcopy(model.tree)
        tree.nodes[-1].status = "pending"
        return tree, model.later_hops

    @staticmethod
    def _discarded_parent_keeps_layer(model):
        tree = copy.deepcopy(model.tree)
        tree.nodes[min(model.later_hops[0])].status = "discarded"
        return tree, model.later_hops

    @staticmethod
    def _surviving_parent_without_layer(model):
        layers = dict(model.later_hops[0])
        del layers[min(layers)]
        return model.tree, (layers,)

    @staticmethod
    def _channel_past_kept_dim(model):
        tree = copy.deepcopy(model.tree)
        last = tree.nodes[-1]
        last.channel = model.later_hops[0][last.parent].kept_dim
        return tree, model.later_hops

    @staticmethod
    def _child_count_differs(model):
        tree = copy.deepcopy(model.tree)
        tree.nodes.pop()
        return tree, model.later_hops

    @staticmethod
    def _later_width_not_eight(model):
        def narrow(layer):
            return dataclasses.replace(layer, dc_filter=layer.dc_filter[:4], ac_filters=layer.ac_filters[:, :4])

        return model.tree, ({pid: narrow(layer) for pid, layer in model.later_hops[0].items()},)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("_unknown_status", "stored tree differs from the layers' tree at node 216"),
            ("_discarded_parent_keeps_layer", "stored tree differs from the layers' tree at node 1"),
            ("_surviving_parent_without_layer", "do not match the surviving parents"),
            ("_channel_past_kept_dim", "stored tree differs from the layers' tree at node 216"),
            ("_child_count_differs", "stored tree differs from the layers' tree at node 216"),
            ("_later_width_not_eight", "hop 2 layers take 4-wide inputs"),
        ],
    )
    def test_tree_must_fit_the_layers(self, tiny_model, tmp_path, corrupt, message):
        tree, later_hops = getattr(self, corrupt)(tiny_model)
        # save_model reads only these four attributes, so a plain namespace
        # writes a well-formed file whose tree and layers disagree
        fake = SimpleNamespace(
            config=tiny_model.config, hop1_layer=tiny_model.hop1_layer,
            later_hops=later_hops, tree=tree,
        )
        path = tmp_path / "m.rph"
        save_model(fake, path)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("config", "k_lrf"), 2, "k_lrf must be >= 3"),
            (("config", "hops", 0, 1), 7, "k_neighbors must be >= 8"),
            (("tree", 0), [0, -1, 0, 1.0, 1.0], "not enough values to unpack"),
            (("config", "seed"), "zero", "expected an integer"),
            (("config", "energy_threshold"), float("nan"), "energy_threshold must be finite"),
            # a discarded final-hop node turned output, and a cumulative energy
            (("tree", -1, 5), "output", "stored tree differs from the layers' tree at node 216"),
            (("tree", 1, 4), 123.0, "stored tree differs from the layers' tree at node 1"),
            # the last layer's last energy
            (("arrays", -1), -0.5, "negative energy fraction under node"),
            (("config", "seed"), -1, "seed must be non-negative, got -1"),
            # fields of the wrong JSON type: int() or float() would coerce each
            (("config", "hops", 0, 0), 192.9, "expected an integer, got 192.9"),
            (("config", "hops", 0, 0), "192", "expected an integer, got '192'"),
            (("config", "k_lrf"), 24.7, "expected an integer, got 24.7"),
            (("config", "seed"), True, "expected an integer, got True"),
            (("config", "energy_threshold"), "0.001", "expected a number, got '0.001'"),
            (("hop1", "n_ac"), 23.0, "expected an integer, got 23.0"),
            (("hop1", "input_dim"), "24", "expected an integer, got '24'"),
            (("hop1", "bias"), "1.17", "expected a number, got '1.17'"),
            (("later", 0, 0, 0), 1.0, "expected an integer, got 1.0"),
            (("tree", 1, 0), 1.0, "expected an integer, got 1.0"),
            (("tree", 1, 5), 0, "expected a string, got 0"),
        ],
    )
    def test_invalid_header_field(self, tiny_model, tmp_path, keys, value, message):
        # each edit fails config validation, unpacking, a field's JSON type,
        # the model's tree derivation or the check of the stored tree
        # against it inside load_model; keys under "arrays" index the floats
        # after the header
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + blob_len])
        arrays = np.frombuffer(raw[16 + blob_len :], dtype="<f8").copy()
        node = {"arrays": arrays} if keys[0] == "arrays" else header
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + arrays.tobytes())
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "key",
        [b'"use_aux_attributes":false,', b'"normalize":true,', b'"normalize":false,'],
        ids=["use_aux_attributes", "normalize_true", "normalize_false"],
    )
    def test_header_with_removed_aux_key_loads(self, tiny_model, tiny_corpus, tmp_path, key):
        # older model files hold "use_aux_attributes" and "normalize"
        # between the energy threshold and the seed; the keys are read past
        # and the model is the same
        path, old_path = tmp_path / "m.rph", tmp_path / "old.rph"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        blob = raw[16 : 16 + blob_len].replace(b'"seed":', key + b'"seed":')
        assert len(blob) == blob_len + len(key)
        old_path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + blob_len :])
        new, old = load_model(path), load_model(old_path)
        assert old.config == new.config
        for seed, cloud in enumerate(tiny_corpus[5:]):
            a, b = extract_features(new, cloud, seed), extract_features(old, cloud, seed)
            for f in dataclasses.fields(FeatureSet):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (seed, f.name)

    def test_aux_wide_hop1_layer_is_rejected(self, tiny_model, tmp_path):
        # older model files trained with aux attributes have a 31-wide
        # hop-1 layer: 24 octant means, a normal and four shape features
        layer = tiny_model.hop1_layer
        wide = dataclasses.replace(
            layer,
            dc_filter=np.pad(layer.dc_filter, (0, 7)),
            ac_filters=np.pad(layer.ac_filters, ((0, 0), (0, 7))),
        )
        fake = SimpleNamespace(
            config=tiny_model.config, hop1_layer=wide, later_hops=tiny_model.later_hops, tree=tiny_model.tree
        )
        path = tmp_path / "m.rph"
        save_model(fake, path)
        with pytest.raises(ModelFormatError, match="hop 1 layers take 31-wide inputs"):
            load_model(path)

    def test_tiny_model_file_is_small(self, tiny_model, tmp_path):
        path = tmp_path / "m.rph"
        save_model(tiny_model, path)
        assert path.stat().st_size < 1_000_000


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------


class TestConfigText:
    def test_format_parse_round_trip_default(self):
        cfg = ModelConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_format_parse_round_trip_custom(self):
        cfg = ModelConfig(
            hops=(HopConfig(500, 40), HopConfig(250, 20)),
            k_lrf=32,
            energy_threshold=1.25e-4,
            seed=42,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_parse_example(self):
        cfg = parse_config(
            "# a comment\n"
            "k_lrf = 12\n"
            "num_points = 128, 64\n"
            "k_neighbors = 16 8\n"
            "energy_threshold = 0.01\n"
            "seed = 3\n"
        )
        assert cfg.k_lrf == 12
        assert [h.num_points for h in cfg.hops] == [128, 64]
        assert [h.k_neighbors for h in cfg.hops] == [16, 8]
        assert cfg.energy_threshold == 0.01
        assert cfg.seed == 3

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match="line 2.*unknown key"):
            parse_config("k_lrf = 8\nbogus = 1\n")

    @pytest.mark.parametrize("key", ["use_aux_attributes", "normalize"])
    def test_removed_aux_key_names_line(self, key):
        # removed options are not keys: a config that sets one fails
        # instead of training a model that ignores it
        with pytest.raises(ValueError, match=re.escape(f"config line 2: unknown key '{key}'")):
            parse_config(f"seed = 1\n{key} = true\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("seed = 1\nseed = 2\n", "config line 2: duplicate key 'seed' (first set on line 1)"),
            (
                "num_points = 128 64\nk_neighbors = 16 8\n# again\nnum_points = 128\n",
                "config line 4: duplicate key 'num_points' (first set on line 1)",
            ),
            ("k_lrf = 8\nk_lrf = abc\n", "config line 2: duplicate key 'k_lrf' (first set on line 1)"),
        ],
    )
    def test_duplicate_key_names_both_lines(self, text, where):
        # a repeated key is refused, not silently overridden by its last line
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_config(text)

    def test_missing_equals_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("k_lrf 8\n")

    def test_points_and_neighbors_must_pair(self):
        # pairing refusals name their keys' lines, as range refusals do
        with pytest.raises(ValueError) as info:
            parse_config("num_points = 128 64\n")
        assert str(info.value) == "config line 1: num_points and k_neighbors must be given together"
        with pytest.raises(ValueError) as info:
            parse_config("num_points = 128 64\nk_neighbors = 16\n")
        assert str(info.value) == "config lines 1 and 2: num_points and k_neighbors must have one entry per hop"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("k_lrf = abc\n", "line 1: k_lrf expects an integer, got 'abc'"),
            ("k_lrf = 8\nseed = 1.5\n", "line 2: seed expects an integer, got '1.5'"),
            ("energy_threshold = 1e-3x\n", "line 1: energy_threshold expects a number"),
            ("num_points = 128 64\nk_neighbors = 16, eight\n", "line 2: k_neighbors expects one integer per hop"),
            ("num_points = 12.5\nk_neighbors = 8\n", "line 1: num_points expects one integer per hop"),
            ("k_lrf = 16\nseed = -4\n", "line 2: seed must be non-negative, got -4"),
        ],
    )
    def test_bad_number_names_line_and_key(self, text, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("k_lrf = 2\n", "config line 1: k_lrf must be >= 3"),
            ("seed = 1\nnum_points = 64\nk_neighbors = 7\n", "config line 3: k_neighbors must be >= 8"),
            ("num_points = 0\nk_neighbors = 8\n", "config line 1: num_points must be positive"),
            (
                "num_points = 64\n# wider than the hop\nk_neighbors = 70\n",
                "config lines 1 and 3: k_neighbors cannot exceed num_points at that hop",
            ),
            (
                "k_neighbors = 16\nk_lrf = 100\nnum_points = 64\n",
                "config lines 2 and 3: k_lrf cannot exceed the hop-1 point budget",
            ),
            # the default k_lrf of 64 is set by no line
            ("num_points = 32\nk_neighbors = 16\n", "config line 1: k_lrf cannot exceed the hop-1 point budget"),
            ("num_points = 64 128\nk_neighbors = 16 16\n", "config line 1: hop point budgets must be non-increasing"),
            ("seed = 0\nenergy_threshold = -0.5\n", "config line 2: energy_threshold must be finite and non-negative"),
            ("num_points =\nk_neighbors =\n", "config lines 1 and 2: at least one hop is required"),
        ],
        ids=[
            "k_lrf", "k_neighbors", "num_points", "k_neighbors_over_num_points", "k_lrf_over_budget",
            "default_k_lrf_over_budget", "budgets_increase", "energy_threshold", "no_hop",
        ],
    )
    def test_range_error_names_its_keys_lines(self, text, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_config(text)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: HopConfig(64, 7), "k_neighbors must be >= 8 (one point per octant on average)"),
            (lambda: HopConfig(8, 9), "k_neighbors cannot exceed num_points at that hop"),
            (lambda: ModelConfig(k_lrf=2), "k_lrf must be >= 3"),
            (lambda: ModelConfig(hops=(HopConfig(32, 8),), k_lrf=33), "k_lrf cannot exceed the hop-1 point budget"),
        ],
        ids=["k_neighbors", "k_neighbors_over_num_points", "k_lrf", "k_lrf_over_budget"],
    )
    def test_refusals_built_by_hand_name_no_line(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ModelConfig()
