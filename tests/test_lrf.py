"""Local reference frames: PCA, sign disambiguation, projection invariance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpointhop import ModelConfig
from rpointhop.lrf import local_pca_batch, resolve_signs_batch
from rpointhop.pipeline import _project_neighbors
from rpointhop.spatial import KnnIndex

from conftest import (
    PARTIAL_CONFIG,
    TINY_CONFIG,
    corpus_hop_tables,
    pca_gather_oracle,
    pca_oracle,
    projection_einsum_oracle,
    random_rotation,
    sign_oracle,
    signs_median_oracle,
)

HOP_SHAPES = pytest.mark.parametrize(
    "config, fit",
    [
        (ModelConfig(), True),
        (ModelConfig(), False),
        (PARTIAL_CONFIG, True),
        (PARTIAL_CONFIG, False),
        (TINY_CONFIG, True),
        (TINY_CONFIG, False),
    ],
    ids=["default-fit", "default-extract", "partial-fit", "partial-extract", "tiny-fit", "tiny-extract"],
)


def _neighbor_major(proj: np.ndarray) -> np.ndarray:
    """The (N, k, 3) view of a (k, 3, N) copy of ``proj``: the layout
    ``_project_neighbors`` hands to ``resolve_signs_batch``."""
    return np.ascontiguousarray(proj.transpose(1, 2, 0)).transpose(2, 0, 1)


def _same_bits(got, want) -> bool:
    """Each array of ``got`` has the shape and the bytes of its twin in ``want``."""
    return all(
        np.shape(g) == np.shape(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want)
    )


def _pca(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame of one neighborhood as a one-row batch: (axes (3,3), eigenvalues (3,))."""
    axes, lam = local_pca_batch(pts, np.arange(len(pts))[None, :])
    return axes[0], lam[0]


def _sign(values) -> tuple[float, float]:
    """(flip, margin) of one axis: ``values`` fill axis 0 of a one-row batch."""
    proj = np.zeros((1, len(values), 3))
    proj[0, :, 0] = values
    flips, margins = resolve_signs_batch(proj)
    return flips[0, 0], margins[0, 0]


# ---------------------------------------------------------------------------
# local PCA
# ---------------------------------------------------------------------------


class TestLocalPca:
    def test_collinear_hand_example(self):
        # x-axis points {-1, 0, 1, 2}: mean 0.5, centered {-1.5,-0.5,0.5,1.5},
        # population variance 5/4 = 1.25 along x and 0 elsewhere
        pts = np.array([[-1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        axes, lam = _pca(pts)
        assert np.allclose(lam, [1.25, 0.0, 0.0], atol=1e-12)
        assert abs(abs(axes[0, 0]) - 1.0) < 1e-12  # first axis is +-x

    def test_axes_orthonormal_rows(self):
        rng = np.random.default_rng(0)
        axes, _ = _pca(rng.normal(size=(20, 3)))
        assert np.abs(axes @ axes.T - np.eye(3)).max() < 1e-12

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            _, lam = _pca(rng.normal(size=(15, 3)) * [3.0, 1.0, 0.2])
            assert lam[0] >= lam[1] >= lam[2] >= -1e-12

    def test_reconstructs_covariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 3))
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / pts.shape[0]
        axes, lam = _pca(pts)
        assert np.abs(axes.T @ np.diag(lam) @ axes - cov).max() < 1e-12

    def test_eigenvalues_rotation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 3))
        r = random_rotation(rng)
        _, lam0 = _pca(pts)
        _, lam1 = _pca(pts @ r.T)
        assert np.abs(lam0 - lam1).max() < 1e-10


class TestLocalPcaBatch:
    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(50, 3))
        nbr = np.stack([rng.permutation(50)[:12] for _ in range(8)])
        axes_b, lam_b = local_pca_batch(coords, nbr)
        for i in range(8):
            axes_s, lam_s = pca_oracle(coords[nbr[i]])
            assert np.abs(lam_b[i] - lam_s).max() < 1e-12
            # eigenvectors match up to per-axis sign
            dots = np.abs(np.einsum("ij,ij->i", axes_b[i], axes_s))
            assert np.abs(dots - 1.0).max() < 1e-9

    def test_shapes(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(20, 3))
        nbr = np.arange(20).reshape(4, 5)
        axes, lam = local_pca_batch(coords, nbr)
        assert axes.shape == (4, 3, 3) and lam.shape == (4, 3)
        assert (np.diff(lam, axis=1) <= 1e-12).all()


# ---------------------------------------------------------------------------
# sign disambiguation
# ---------------------------------------------------------------------------


class TestDisambiguateAxis:
    def test_left_heavy_example(self):
        # median 0; left mass |-3|+|-1| = 4 beats right mass 1+2 = 3 -> -1
        assert _sign([-3.0, -1.0, 0.0, 1.0, 2.0])[0] == -1

    def test_right_heavy_example(self):
        # median 0; left mass 3, right mass 1+3 = 4 -> +1
        assert _sign([-3.0, 0.0, 1.0, 3.0, 0.0])[0] == 1

    def test_tie_falls_negative(self):
        assert _sign([-1.0, 0.0, 1.0])[0] == -1

    def test_even_count_hand_example(self):
        # median 1.5; left {0,1} mass 2, right {2,10} mass 9 -> +1
        assert _sign([0.0, 1.0, 2.0, 10.0])[0] == 1
        # negated: median -1.5; left {-10,-2} mass 9 beats right mass 2 -> -1
        assert _sign([0.0, -1.0, -2.0, -10.0])[0] == -1

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 65))
            v = rng.normal(size=n)
            if _sign(v)[1] < 1e-9:
                continue  # documented unstable ties
            assert _sign(-v)[0] == -_sign(v)[0]
            checked += 1
        assert checked > 150

    def test_antisymmetry_even_counts_exact(self):
        # even counts exercise the averaged median; negation must still flip
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(size=2 * int(rng.integers(2, 33)))
            if _sign(v)[1] < 1e-9:
                continue
            assert _sign(-v)[0] == -_sign(v)[0]


class TestMomentMargin:
    def test_hand_example(self):
        assert _sign([-3.0, -1.0, 0.0, 1.0, 2.0])[1] == pytest.approx(1.0)

    def test_symmetric_set_is_zero(self):
        assert _sign([-2.0, -1.0, 0.0, 1.0, 2.0])[1] == pytest.approx(0.0)

    def test_negation_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(3, 40)))
            assert _sign(v)[1] == pytest.approx(_sign(-v)[1], abs=1e-12)


class TestResolveSignsBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(60, 3))
        table = KnnIndex(coords).query(coords[:10], 16)[0]
        axes, _ = local_pca_batch(coords, table)
        proj = np.einsum("pkc,pac->pka", coords[table] - coords[:10, None, :], axes)
        flips_b, margins_b = resolve_signs_batch(proj)
        for i in range(10):
            for a in range(3):
                flip, margin = sign_oracle(proj[i, :, a])
                assert flips_b[i, a] == flip
                assert abs(margins_b[i, a] - margin) < 1e-12

    @HOP_SHAPES
    def test_matches_median_form_at_every_hop_shape(self, config, fit):
        # the raw projections each hop of a corpus cloud resolves, handed
        # over C-ordered and neighbor-major
        hops = corpus_hop_tables(config, fit)
        points, table = hops[0]
        axes, _ = local_pca_batch(points, table[:, : config.k_lrf])
        for h, ((points, table), hop) in enumerate(zip(hops, config.hops)):
            nbr_idx = table[:, : hop.k_neighbors]
            rows = len(nbr_idx)
            raw = np.einsum("pkc,pac->pka", points[nbr_idx] - points[:rows, None, :], axes[:rows])
            want = signs_median_oracle(raw)
            assert _same_bits(resolve_signs_batch(raw), want), f"hop {h + 1}, C-ordered"
            assert _same_bits(resolve_signs_batch(_neighbor_major(raw)), want), f"hop {h + 1}, neighbor-major"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        p=st.integers(1, 12),
        k=st.integers(3, 65),
        levels=st.sampled_from([2, 3, 5, None]),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        coplanar=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_median_form_property(self, p, k, levels, zero_frac, coplanar, seed):
        # odd and even k; values drawn from a few levels tie at the median;
        # zeros are +0.0 or -0.0; a coplanar neighborhood projects to zeros
        # on its normal axis
        rng = np.random.default_rng(seed)
        if levels is None:
            proj = rng.normal(size=(p, k, 3)) * 10.0 ** rng.uniform(-3, 3, size=(p, 1, 3))
        else:
            proj = rng.integers(-(levels // 2), levels - levels // 2, size=(p, k, 3)) * 0.1
        zero = rng.random(proj.shape) < zero_frac
        proj[zero] = np.where(rng.random(proj.shape) < 0.5, 0.0, -0.0)[zero]
        if coplanar:
            proj[:, :, 2] = np.where(rng.random((p, k)) < 0.5, 0.0, -0.0)
        want = signs_median_oracle(proj)
        assert _same_bits(resolve_signs_batch(proj), want)
        assert _same_bits(resolve_signs_batch(_neighbor_major(proj)), want)


class TestLayoutOracles:
    """The contiguous kernels give the bits of their former (P, k, 3) forms."""

    @HOP_SHAPES
    def test_local_pca_matches_gather_form(self, config, fit):
        points, table = corpus_hop_tables(config, fit)[0]
        lrf_table = table[:, : config.k_lrf]
        assert _same_bits(local_pca_batch(points, lrf_table), pca_gather_oracle(points, lrf_table))

    @HOP_SHAPES
    def test_projection_matches_einsum_form(self, config, fit):
        hops = corpus_hop_tables(config, fit)
        points, table = hops[0]
        axes, _ = local_pca_batch(points, table[:, : config.k_lrf])
        for h, ((points, table), hop) in enumerate(zip(hops, config.hops)):
            nbr_idx = table[:, : hop.k_neighbors]
            got = _project_neighbors(points, nbr_idx, axes[: len(nbr_idx)])
            want = projection_einsum_oracle(points, nbr_idx, axes[: len(nbr_idx)])
            assert got[0].shape == (len(nbr_idx), hop.k_neighbors, 3)
            assert _same_bits(got, want), f"hop {h + 1}"

    def test_local_pca_matches_gather_form_on_lattices(self):
        # coplanar and collinear neighborhoods with repeated points: exact
        # zeros in the centered offsets and the covariance. Two zero
        # coordinates of opposite signs, +0.0 and -0.0 mixed, make every
        # product of their covariance entry -0.0, which einsum sums from
        # +0.0 to +0.0
        rng = np.random.default_rng(16)
        for trial in range(30):
            a, b = trial % 3, (trial + 1) % 3
            pts = rng.integers(-2, 3, size=(40, 3)) * 0.1
            pts[:, a] = np.where(rng.random(40) < 0.5, 0.0, -0.0)
            if trial % 2:
                pts[:, b] = -pts[:, a]
            table = rng.integers(0, 40, size=(25, 3 + trial))
            assert _same_bits(local_pca_batch(pts, table), pca_gather_oracle(pts, table)), trial


def _traced_peak(fn, *args) -> int:
    """tracemalloc's peak of one ``fn(*args)`` call, after a first untraced
    call has made numpy's one-off allocations."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTracedPeaks:
    """Hop 1's attributes allocate little beside the (k, 3, P) neighbor
    block: at the partial model's hop 1 (768 points, 64 neighbors) each lane
    of a fit runs them on one cloud at a time."""

    def test_signs_hold_one_buffer_beside_the_deviations_clip(self):
        # the sort buffer takes the deviations, so beside its input the call
        # holds that buffer and the lower mass's clipped deviations; a
        # separate deviations array made it 3x
        proj = _neighbor_major(np.random.default_rng(4).normal(size=(768, 64, 3)))
        peak = _traced_peak(resolve_signs_batch, proj)
        assert peak < 2.5 * proj.nbytes, peak / proj.nbytes

    def test_projection_frees_its_offsets_before_sign_resolution(self):
        # the block and sign resolution's buffers, about 3x the block; the
        # gathered offsets and the scratch row held through sign resolution
        # made it 5.4x
        points, table = corpus_hop_tables(PARTIAL_CONFIG, True)[0]
        axes, _ = local_pca_batch(points, table[:, : PARTIAL_CONFIG.k_lrf])
        nbr_idx = table[:, : PARTIAL_CONFIG.hops[0].k_neighbors]
        assert nbr_idx.shape == (768, 64)
        block = nbr_idx.size * 3 * 8
        peak = _traced_peak(_project_neighbors, points, nbr_idx, axes)
        assert peak < 3.5 * block, peak / block


# ---------------------------------------------------------------------------
# frames and projection
# ---------------------------------------------------------------------------


class TestComputeLrf:
    def test_basic_frame(self):
        rng = np.random.default_rng(10)
        coords = rng.normal(size=(40, 3))
        table = KnnIndex(coords).query(coords, 12)[0]
        axes, lam = local_pca_batch(coords, table)
        # each frame's neighborhood holds its origin, the point itself
        assert np.array_equal(table[:, 0], np.arange(40))
        gram = np.einsum("nij,nkj->nik", axes, axes)
        assert np.abs(gram - np.eye(3)).max() < 1e-12
        assert (lam[:, 0] >= lam[:, 1]).all() and (lam[:, 1] >= lam[:, 2]).all()


class TestProjectionInvariance:
    """Sign-resolved local coordinates must not change under rigid motion."""

    def test_rigid_invariance(self):
        # the pipeline's path: frames from local_pca_batch, then the
        # sign-resolved projection of every point's KNN neighborhood
        rng = np.random.default_rng(12)
        worst, checked = 0.0, 0
        for _ in range(25):
            nbrs = rng.normal(size=(24, 3))
            table = KnnIndex(nbrs).query(nbrs, 16)[0]
            r = random_rotation(rng)
            t = rng.normal(size=3) * 5
            moved = nbrs @ r.T + t
            p0, margins = _project_neighbors(nbrs, table, local_pca_batch(nbrs, table)[0])
            p1, _ = _project_neighbors(moved, table, local_pca_batch(moved, table)[0])
            stable = margins.min(axis=1) > 1e-6  # sign ties may flip an axis
            worst = max(worst, float(np.abs(p0[stable] - p1[stable]).max(initial=0.0)))
            checked += int(stable.sum())
        assert checked > 0.9 * 25 * 24
        assert worst < 1e-9, f"worst deviation {worst:.3e}"

    def test_projection_hand_example(self):
        # identity frames; at point 0 the neighbors' x, y and z values
        # {0, 1, -0.5}, {0, 2, -3} and {0, 3, -1} split at median 0 into
        # masses 0.5 < 1, 3 > 2 and 1 < 3, so the flips are (+1, -1, +1)
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-0.5, -3.0, -1.0]])
        table = np.tile(np.arange(3), (3, 1))
        proj, _ = _project_neighbors(coords, table, np.tile(np.eye(3), (3, 1, 1)))
        assert np.array_equal(proj[0, 1], [1.0, -2.0, 3.0])
        assert np.array_equal(proj[0, 2], [-0.5, 3.0, -1.0])

    def test_projection_recovers_local_offsets(self):
        rng = np.random.default_rng(13)
        nbrs = rng.normal(size=(16, 3)) + 7.0
        table = np.tile(np.arange(16), (16, 1))
        proj, _ = _project_neighbors(nbrs, table, local_pca_batch(nbrs, table)[0])
        # distances from the origin are preserved by the orthonormal map
        d_in = np.linalg.norm(nbrs[table] - nbrs[:, None, :], axis=2)
        d_out = np.linalg.norm(proj, axis=2)
        assert np.abs(d_in - d_out).max() < 1e-12
