"""Multi-hop feature pipeline: attributes, training, extraction, model files."""

import copy
import dataclasses
import json
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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
from rpointhop.lrf import local_pca_batch
from rpointhop.pipeline import (
    _HopRun,
    _OctantMeans,
    _channel_blocks,
    _dense_inputs,
    _project_neighbors,
    build_hop1_attributes,
    build_later_hop_attributes,
    format_config,
)
from rpointhop.saab import HopPlan, SaabLayer
from rpointhop.spatial import KnnIndex, fps_indices

from conftest import (
    TINY_CONFIG,
    hop_oracle,
    octant_loop_oracle,
    octant_oracle,
    projection_einsum_oracle,
    random_rotation,
    saab_fit_oracle,
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
        means = _OctantMeans(signs[None, :, :], np.eye(8), np.arange(8)[None, :]).dense()
        assert np.array_equal(means[0], np.eye(8))

    def test_zero_counts_as_positive(self):
        means = _OctantMeans(np.zeros((1, 1, 3)), np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp)).dense()
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
        means = _OctantMeans(proj, values, nbr_idx).dense()
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
        coords = _HopRun(normalize_unit_sphere(cloud).coords, config, seed=0, fit=True).coords
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
            means = _OctantMeans(proj, values, nbr_idx).dense()
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
        means = _OctantMeans(proj, values, nbr_idx).dense()
        assert means.tobytes() == octant_loop_oracle(proj, values, nbr_idx).tobytes()

    @pytest.mark.parametrize(
        "p, n, k, c",
        [(12, 30, 9, 5), (10, 40, 16, 21), (9, 20, 8, 1), (7, 50, 12, 24), (6, 16, 8, 17)],
    )
    def test_prefixes_and_channel_blocks_match_column_loop(self, p, n, k, c):
        # every row prefix, 0 rows included, of every channel block: train's
        # own blocks, and blocks of 8 with a trailing partial one (or, below
        # 8 channels, fewer channels than one block)
        rng = np.random.default_rng(p * c + k)
        proj = rng.normal(size=(p, k, 3))
        proj[rng.random(proj.shape) < 0.1] = 0.0
        values = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, c))
        nbr_idx = rng.integers(0, n, size=(p, k))
        means = _OctantMeans(proj, values, nbr_idx)
        want = octant_loop_oracle(proj, values, nbr_idx)
        blocks = [*_channel_blocks(c), *(slice(lo, min(lo + 8, c)) for lo in range(0, c, 8)), slice(None)]
        assert len(means) == p
        assert means.dense().tobytes() == want.tobytes()
        for rows in range(p + 1):
            for block in blocks:
                got = means.dense(rows, block)
                assert got.shape == want[:rows, :, block].shape
                assert got.tobytes() == want[:rows, :, block].tobytes(), (rows, block)

    @pytest.mark.parametrize("c", [1, 2, 3, 7, 8, 16, 17, 24, 134, 138, 146, 216])
    def test_channel_blocks_split_evenly_between_the_lanes(self, c):
        blocks = _channel_blocks(c)
        assert blocks[0].start == 0 and blocks[-1].stop == c
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        widths = [b.stop - b.start for b in blocks]
        assert min(widths) >= 1 and max(widths) <= pipeline._BLOCK_CHANNELS
        assert max(widths) - min(widths) <= 1
        assert len(blocks) % 2 == 0 or c == 1

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
        full, full_margins = build_later_hop_attributes(coords, table, axes, values)
        part, part_margins = build_later_hop_attributes(coords, table[:12], axes[:12], values)
        assert np.array_equal(part.dense(), full.dense()[:12])
        assert np.array_equal(part_margins, full_margins[:12])

    def test_channel_means_hand_example(self):
        # 2 points, each the other's sole neighbor plus itself; scalar channel
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
        nbr_idx = np.array([[0, 1, 2]] * 3)
        axes = np.tile(np.eye(3), (3, 1, 1))
        values = np.array([[2.0], [4.0], [8.0]])
        attrs, margins = build_later_hop_attributes(coords, nbr_idx, axes, values)
        means = attrs.dense()
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
        m0, margins = build_later_hop_attributes(coords, table, axes, values)
        m0 = m0.dense()

        r = random_rotation(rng)
        moved = coords @ r.T + rng.normal(size=3)
        axes_m, _ = local_pca_batch(moved, table)
        m1 = build_later_hop_attributes(moved, table, axes_m, values)[0].dense()

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

    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_model_bits_do_not_depend_on_the_block_width(
        self, tiny_corpus, tiny_model, width, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(pipeline, "_BLOCK_CHANNELS", width)
        save_model(train(tiny_corpus, TINY_CONFIG), tmp_path / "blocks.rph")
        save_model(tiny_model, tmp_path / "model.rph")
        assert (tmp_path / "blocks.rph").read_bytes() == (tmp_path / "model.rph").read_bytes()

    def test_traced_peak_stays_below_the_widest_hops_dense_inputs(self, tiny_corpus):
        # a later hop's inputs are held as octant operators, and pools are
        # built a block of channels at a time, so train never holds the
        # corpus's dense inputs of its widest hop (190 channels at hop 3)
        config = ModelConfig(
            hops=(HopConfig(192, 16), HopConfig(160, 16), HopConfig(128, 16)), k_lrf=16, energy_threshold=1e-4
        )
        tracemalloc.start()
        try:
            model = train(tiny_corpus, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = max(
            len(tiny_corpus) * hop.num_points * plan.filters.shape[1] * plan.filters.shape[0] * 8
            for hop, plan in zip(config.hops, model.plans)
        )
        assert model.plans[-1].filters.shape[0] > 100
        assert peak < dense

    def test_layers_fit_corpus_pooled_inputs(self, tiny_model, tiny_corpus):
        # replay train's runs with the model's own plans and dense inputs:
        # each hop's layer below parent c is the former Saab fit of channel
        # c's samples, stacked cloud by cloud in corpus order
        config = tiny_model.config
        rng = np.random.Generator(np.random.PCG64(config.seed))
        runs = [
            _HopRun(normalize_unit_sphere(cloud).coords, config, int(rng.integers(2**63)), fit=True)
            for cloud in tiny_corpus
        ]
        hop_layers = ({0: tiny_model.hop1_layer}, *tiny_model.later_hops)
        for h, (plan, layers) in enumerate(zip(tiny_model.plans, hop_layers)):
            inputs = [_dense_inputs(run.hop_inputs(h)[0]) for run in runs]
            want = {
                pid: saab_fit_oracle(np.vstack([x[:, :, c] for x in inputs]))
                for c, pid in enumerate(sorted(layers))
            }
            assert sorted(want) == sorted(layers)
            for pid, layer in layers.items():
                for f in dataclasses.fields(SaabLayer):
                    assert np.array_equal(getattr(layer, f.name), getattr(want[pid], f.name)), (h, pid, f.name)
            for run, x in zip(runs, inputs):
                run.values = plan.apply(x)


# ---------------------------------------------------------------------------
# frozen hop plans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["tiny", "one_hop", "three_hop"])
def plan_model(request, tiny_model, tiny_corpus):
    if request.param == "tiny":
        return tiny_model
    hops = {
        "one_hop": TINY_CONFIG.hops[:1],
        "three_hop": (*TINY_CONFIG.hops, HopConfig(64, 16)),
    }[request.param]
    return train(tiny_corpus[:3], ModelConfig(hops=hops, k_lrf=TINY_CONFIG.k_lrf))


class TestHopPlans:
    def test_one_plan_per_hop(self, plan_model):
        assert len(plan_model.plans) == len(plan_model.config.hops)
        assert plan_model.plans[0].filters.shape[0] == 1  # hop 1: the root's one channel
        assert plan_model.plans[-1].slots.size == plan_model.feature_dim

    def test_plans_match_tree_walk_oracle(self, plan_model, tiny_corpus):
        # the reference walk computes every point of every hop, as a fit
        # does; extraction computes only the points a later hop reads
        cloud = tiny_corpus[5]
        config = plan_model.config
        run = _HopRun(cloud.coords, config, seed=2, fit=True)
        hop_layers = ({0: plan_model.hop1_layer}, *plan_model.later_hops)
        parent_ids = [0]
        for h, (hop, plan) in enumerate(zip(config.hops, plan_model.plans)):
            x, neighbors = run.hop_inputs(h)
            x = _dense_inputs(x)
            assert len(x) == hop.num_points
            assert run.values is None  # the previous hop's outputs are dropped once read
            want, parent_ids = hop_oracle(plan_model.tree, hop_layers[h], parent_ids, x)
            run.values = plan.apply(x)
            assert np.array_equal(run.values, want), f"hop {h + 1}"
        # each hop's points are farthest point sampled from the previous hop's
        kept = sample_indices(len(cloud), config.hops[0].num_points, 2)
        for hop in config.hops[1:]:
            kept = kept[fps_indices(cloud.coords[kept], hop.num_points, start=0)]
        assert np.array_equal(run.orig_indices, kept)
        want = {
            "point_indices": kept,
            "coords": cloud.coords[kept],
            "features": run.values,
            "sign_margins": run.min_margin,
            "eigen_gaps": run.eigen_gaps,
            "neighbor_table": neighbors,
        }
        assert set(want) == {f.name for f in dataclasses.fields(FeatureSet)}
        fs = extract_features(plan_model, cloud, seed=2)
        for name, value in want.items():
            assert np.array_equal(getattr(fs, name), value), name

    def test_train_applies_each_plan_to_the_next_hops_rows(self, plan_model, tiny_corpus, monkeypatch):
        rows = []
        real = HopPlan.apply

        def recording(plan, x):
            rows.append(len(x))
            return real(plan, x)

        monkeypatch.setattr(HopPlan, "apply", recording)
        train(tiny_corpus[:3], plan_model.config)
        # the final hop's outputs are never read, so its plan is not applied
        assert rows == [hop.num_points for hop in plan_model.config.hops[1:] for _ in range(3)]

    def test_one_fps_run_per_cloud(self, plan_model, tiny_corpus, monkeypatch):
        budgets = []
        real = pipeline.fps_indices

        def counting(points, m, start=0):
            budgets.append(m)
            return real(points, m, start)

        monkeypatch.setattr(pipeline, "fps_indices", counting)
        hops = plan_model.config.hops
        want = [hops[1].num_points] if len(hops) > 1 else []
        extract_features(plan_model, tiny_corpus[4], seed=1)
        assert budgets == want
        budgets.clear()
        train(tiny_corpus[:2], plan_model.config)
        assert budgets == 2 * want


class TestFarthestFirstRows:
    @pytest.mark.parametrize("fit", [True, False], ids=["fit", "extract"])
    @pytest.mark.parametrize(
        "budgets", [(192,), (192, 192, 96), (192, 128, 64)], ids=["one_hop", "equal_budgets", "three_hop"]
    )
    def test_every_hop_is_a_prefix_of_nested_fps(self, tiny_corpus, budgets, fit):
        cloud = tiny_corpus[1]
        config = ModelConfig(hops=tuple(HopConfig(n, 16) for n in budgets), k_lrf=16)
        run = _HopRun(cloud.coords, config, seed=3, fit=fit)
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
        for h, n in enumerate(budgets):
            x, neighbors = run.hop_inputs(h)
            assert np.array_equal(run.coords, cloud.coords[run.orig_indices])
            if h:
                assert np.array_equal(run.orig_indices, nested[h])
            # a fit computes every point; extraction only those the next hop keeps
            want = n if fit else budgets[min(h + 1, len(budgets) - 1)]
            assert len(x) == len(neighbors) == len(run.axes) == len(run.min_margin) == want
            if h + 1 < len(budgets):
                run.values = np.zeros((budgets[h + 1], 1))


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
            (("config", "seed"), "zero", "invalid literal for int"),
            (("config", "energy_threshold"), float("nan"), "energy_threshold must be finite"),
            # a discarded final-hop node turned output, and a cumulative energy
            (("tree", -1, 5), "output", "stored tree differs from the layers' tree at node 216"),
            (("tree", 1, 4), 123.0, "stored tree differs from the layers' tree at node 1"),
            # the last layer's last energy
            (("arrays", -1), -0.5, "negative energy fraction under node"),
        ],
    )
    def test_invalid_header_field(self, tiny_model, tmp_path, keys, value, message):
        # each edit fails config validation, unpacking, int(), the model's
        # tree derivation or the check of the stored tree against it inside
        # load_model; keys under "arrays" index the floats after the header
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

    def test_missing_equals_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("k_lrf 8\n")

    def test_points_and_neighbors_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            parse_config("num_points = 128 64\n")
        with pytest.raises(ValueError, match="one entry per hop"):
            parse_config("num_points = 128 64\nk_neighbors = 16\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("k_lrf = abc\n", "line 1: k_lrf expects an integer, got 'abc'"),
            ("k_lrf = 8\nseed = 1.5\n", "line 2: seed expects an integer, got '1.5'"),
            ("energy_threshold = 1e-3x\n", "line 1: energy_threshold expects a number"),
            ("num_points = 128 64\nk_neighbors = 16, eight\n", "line 2: k_neighbors expects one integer per hop"),
            ("num_points = 12.5\nk_neighbors = 8\n", "line 1: num_points expects one integer per hop"),
        ],
    )
    def test_bad_number_names_line_and_key(self, text, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_config(text)

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ModelConfig()
