"""Saab layers (fit/apply), channel-wise fitting, and the channel energy tree."""

import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpointhop.saab import (
    STATUS_DISCARDED,
    STATUS_INTERMEDIATE,
    STATUS_OUTPUT,
    FeatureTree,
    HopPlan,
    SaabLayer,
    SampleMoments,
    cw_saab_fit,
    freeze_hop,
    propagate_energy,
    saab_apply,
    saab_fit,
)

from rpointhop.pipeline import _moments, _start_runs

from conftest import _dense_inputs, hop_oracle, plan_take_oracle, saab_fit_oracle


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


class TestSaabFit:
    def test_two_sample_hand_example(self):
        # samples (1,0), (0,1): DC filter (1,1)/sqrt(2), both DC coefficients
        # 1/sqrt(2) so dc variance is 0; the sole AC direction is (1,-1)/sqrt(2)
        # with eigenvalue 0.5; energies normalize to [0, 1]; bias = max norm = 1
        layer = saab_fit(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert layer.input_dim == 2
        assert layer.kept_dim == 2
        assert np.allclose(layer.dc_filter, [1 / np.sqrt(2)] * 2)
        ac = layer.ac_filters[0]
        assert np.allclose(np.abs(ac), [1 / np.sqrt(2)] * 2)
        assert ac[0] == pytest.approx(-ac[1])
        assert np.allclose(layer.energies, [0.0, 1.0], atol=1e-12)
        assert layer.bias == pytest.approx(1.0)

    def test_constant_samples_degenerate(self):
        # identical samples: no variance anywhere; only the DC filter remains
        # and the degenerate energy vector is [1.0]. A repeated nonzero row's
        # centered residuals are rounding noise, whose eigenvalues sit below
        # the rounding of the samples' squares
        pools = [np.ones((2, 4))] + [
            np.tile(scale * np.pad(row, (0, n - len(row))), (126, 1))
            for row in ([0.3, 1.7], [1.0, 0.1, 2.3])
            for n in (8, 24)
            for scale in (1e-6, 1e-3, 1.1, 1e3, 1e6)
        ]
        for x in pools:
            layer = saab_fit(x)
            assert layer.kept_dim == 1, x[0]
            assert layer.ac_filters.shape == (0, x.shape[1])
            assert np.array_equal(layer.energies, [1.0]), (x[0], layer.energies)
            assert layer.bias == pytest.approx(np.linalg.norm(x[0]))  # ||(1,1,1,1)|| = 2

    def test_filter_bank_orthonormal(self):
        rng = np.random.default_rng(0)
        layer = saab_fit(rng.normal(size=(100, 7)))
        f = layer.filters
        assert np.abs(f @ f.T - np.eye(f.shape[0])).max() < 1e-9

    def test_energies_normalized_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            layer = saab_fit(rng.normal(size=(60, 5)) * rng.uniform(0.1, 3.0))
            assert layer.energies.sum() == pytest.approx(1.0, abs=1e-12)
            assert (layer.energies >= 0.0).all()

    def test_energies_descending_in_ac_block(self):
        rng = np.random.default_rng(2)
        layer = saab_fit(rng.normal(size=(80, 6)))
        assert (np.diff(layer.energies[1:]) <= 1e-15).all()

    def test_bias_is_max_training_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        assert saab_fit(x).bias == pytest.approx(np.linalg.norm(x, axis=1).max())

    def test_ac_count_capped_at_n_minus_1(self):
        rng = np.random.default_rng(4)
        layer = saab_fit(rng.normal(size=(200, 6)))
        assert layer.ac_filters.shape[0] <= 5

    def test_full_rank_layer_is_invertible(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 6))
        layer = saab_fit(x)
        assert layer.kept_dim == 6
        y = saab_apply(layer, x)
        back = (y - layer.bias) @ layer.filters
        assert np.abs(back - x).max() < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="2 samples"):
            saab_fit(np.ones((1, 4)))
        with pytest.raises(ValueError, match="2-D"):
            saab_fit(np.ones(4))
        with pytest.raises(ValueError, match="non-finite"):
            saab_fit(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("s, n", [(20000, 8), (40000, 24)])
    def test_traced_peak_stays_below_one_and_a_half_inputs(self, s, n):
        # the fit holds one (S, N) buffer beside its input, the copy that
        # SampleMoments.of centers in place; its squared norms and products
        # are reduced by einsum, which allocates no (S, N) temporary
        x = np.random.default_rng(s + n).normal(size=(s, n))
        saab_fit(x)  # the first call may allocate numpy's and LAPACK's one-off state
        tracemalloc.start()
        try:
            saab_fit(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes, peak / x.nbytes


_EPS, _FMAX = np.finfo(np.float64).eps, np.finfo(np.float64).max
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


def _fit_outcome(x: np.ndarray, errstate: dict | None) -> tuple[SaabLayer | Exception, list[str]]:
    """What ``saab_fit(x)`` does under ``np.errstate(**errstate)`` (numpy's
    default when None): the layer or the exception, and every warning raised
    on the way, in order."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**(errstate or {})):
        warnings.simplefilter("always")
        try:
            result = saab_fit(x)
        except (ValueError, FloatingPointError) as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def _assert_same_layer(got: SaabLayer, want: SaabLayer, x: np.ndarray) -> None:
    """``got`` is ``want`` to rounding: the same DC filter, the bias and
    energies to rounding, and the AC filters both keep up to per-filter sign,
    each within the rounding a perturbation of the covariance moves an
    eigenvector by (its size over the eigen-gap); any filter only one side
    keeps carries no more than rounding noise's energy."""
    s, n = x.shape
    peak = float(np.abs(x).max())
    # a bound on the rounding of a covariance entry: a sum of s products of
    # two entries, each product rounded at worst to the subnormal spacing
    noise = s * (_EPS * peak * peak + n * _SUBNORMAL)
    with np.errstate(all="ignore"):
        cov = np.cov(x, rowvar=False, bias=True).reshape(n, n)
        ac = np.eye(n) - np.outer(want.dc_filter, want.dc_filter)
        spectrum = np.linalg.eigvalsh(ac @ cov @ ac)[::-1]
    total = np.trace(cov)
    rel = noise / total if total > 0 else np.inf  # a pool of one repeated row has no energy to resolve
    assert np.array_equal(got.dc_filter, want.dc_filter)
    assert abs(got.bias - want.bias) <= 4 * (_EPS * want.bias + np.sqrt(n * _SUBNORMAL))
    kept = min(got.kept_dim, want.kept_dim)
    for layer in (got, want):
        assert (layer.energies[kept:] <= 64 * rel).all(), (got.energies, want.energies)
    assert np.abs(got.energies[:kept] - want.energies[:kept]).max() <= 64 * rel, (got.energies, want.energies)
    for i, (a, b) in enumerate(zip(got.ac_filters, want.ac_filters)):
        gap = np.abs(np.delete(spectrum, i) - spectrum[i]).min()
        err = min(np.abs(a - b).max(), np.abs(a + b).max())
        assert err <= 64 * (_EPS + (noise / gap if gap > 0 else np.inf)), (i, err, gap)


def _check_fit(x: np.ndarray, errstate: dict | None) -> SaabLayer | ValueError:
    """``saab_fit(x)`` under ``errstate`` against the former fit, and what
    it gave: the typed refusal, or a layer with finite fields.

    No errstate reaches the fit: it raises no FloatingPointError and warns
    of nothing under any of them. The fit refuses every pool whose squares
    overflow and none whose moments are surely finite (each a sum of s
    products of two entries), and matches the former fit wherever that
    gives finite fields."""
    s, n = x.shape
    peak = float(np.abs(x).max())
    got, caught = _fit_outcome(x, errstate)
    assert not isinstance(got, FloatingPointError) and not caught, (got, caught)
    squares_overflow = max(math.hypot(*row) for row in x) > math.sqrt(_FMAX)
    moments_finite = 4 * s * n * n * (peak / math.sqrt(_FMAX)) ** 2 < 1
    if isinstance(got, ValueError):
        assert str(got) == "samples contain non-finite values" and not moments_finite, str(got)
        return got
    assert not squares_overflow
    for f in dataclasses.fields(SaabLayer):
        assert np.isfinite(getattr(got, f.name)).all(), f.name
    with np.errstate(all="ignore"):
        want = saab_fit_oracle(x)
    if all(np.isfinite(getattr(want, f.name)).all() for f in dataclasses.fields(SaabLayer)):
        _assert_same_layer(got, want, x)
    else:
        assert not moments_finite
    return got


def _samples(
    seed: int, s: int, n: int, scale: float, zero_frac: float, const_cols: int, ties: int, huge: int
) -> np.ndarray:
    """(s, n) samples from ``seed``: normal entries times ``scale``, whole
    zero rows, constant columns, rows tied at the largest norm (sign flips
    and permutations of the largest row) and rows scaled near 1e155, where
    squares overflow."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(s, n)) * scale
    x[rng.random(s) < zero_frac] = 0.0
    x[:, rng.permutation(n)[:const_cols]] = rng.normal() * scale
    top = x[np.argmax(np.linalg.norm(x, axis=1))].copy()
    for i in rng.integers(0, s, size=ties):
        x[i] = rng.permutation(top) * rng.choice([-1.0, 1.0], size=n)
    for i in rng.integers(0, s, size=huge):
        x[i] = rng.normal(size=n) * 10.0 ** rng.uniform(153.5, 155.5)
    return x


_ERRSTATES = pytest.mark.parametrize(
    "errstate", [None, {"all": "warn"}, {"all": "raise"}], ids=["default", "warn", "raise"]
)


class TestSaabFitOracle:
    """The fit against ``conftest.saab_fit_oracle``, the former array fit,
    under numpy's default errstate, warnings on, and errors raised."""

    @_ERRSTATES
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([1, 2, 3, 8, 24]),
        s=st.integers(2, 300),
        log_scale=st.sampled_from([-153.0, -150.0, -100.0, -10.0, 0.0, 10.0, 100.0, 150.0]),
        zero_frac=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
        const_cols=st.integers(0, 24),
        ties=st.integers(0, 4),
        huge=st.sampled_from([0, 0, 0, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_and_warnings_match_the_former_fit(
        self, errstate, n, s, log_scale, zero_frac, const_cols, ties, huge, seed
    ):
        _check_fit(_samples(seed, s, n, 10.0**log_scale, zero_frac, const_cols, ties, huge), errstate)

    @_ERRSTATES
    @pytest.mark.parametrize(
        "x, pinned",
        [
            pytest.param(np.zeros((5, 8)), (1, 0.0), id="zeros"),
            pytest.param(np.full((4, 3), 7.0), (1, np.sqrt(147.0)), id="constant"),
            pytest.param(np.array([[1e155, 0.0], [1.0, 2.0], [0.0, 0.0]]), None, id="huge-row"),
            # squares finite, their sum overflows
            pytest.param(np.array([[1.3e154, 1.3e154], [1.0, 0.0]]), None, id="sum-overflow"),
            # row 0's square overflows; row 1's sum overflows in add.reduce's
            # order but not, on this build, in einsum's
            pytest.param(
                np.array(
                    [[1e155, 0.0, 0.0], [7.829961352384447e153, 7.702611980628696e153, 7.689654568462277e153]]
                ),
                None,
                id="reduce-only-overflow",
            ),
            # squares underflow
            pytest.param(np.array([[1e-160, 1.0], [2.0, 1e-170], [0.0, 3.0]]), (2, 3.0), id="tiny-entries"),
            # three rows tie at norm 5
            pytest.param(np.array([[3.0, 4.0], [4.0, -3.0], [-5.0, 0.0], [0.0, 1.0]]), (2, 5.0), id="tied-norms"),
            # every square underflows to zero: the moments, and the bias, are zero
            pytest.param(np.array([[1e-200, 0.0], [0.0, 2e-200]]), (1, 0.0), id="subnormal-squares"),
        ],
    )
    def test_edge_pools_match_the_former_fit(self, errstate, x, pinned):
        # pinned: the layer's (kept_dim, bias), or None for the refusal, which
        # every errstate gives without a warning
        _check_fit(x, errstate)
        got, caught = _fit_outcome(x, errstate)
        assert caught == []
        if pinned is None:
            assert isinstance(got, ValueError)
        else:
            assert isinstance(got, SaabLayer) and (got.kept_dim, got.bias) == pinned

    def test_errstate_does_not_change_a_fit(self):
        # products of entries near 1e-160 underflow; an errstate that raises
        # on underflow gives the moments and the layer of numpy's default
        pool = np.random.default_rng(0).standard_normal((50, 8)) * 1e-160
        moments = SampleMoments.of(pool[:, :, None].copy())
        layer = saab_fit(pool)
        with np.errstate(all="raise"):
            raised_moments = SampleMoments.of(pool[:, :, None].copy())
            raised_layer = saab_fit(pool)
        for name in ("mean", "cov", "max_sq_norm"):
            assert getattr(raised_moments, name).tobytes() == getattr(moments, name).tobytes(), name
        assert layer.kept_dim == 8
        for f in dataclasses.fields(SaabLayer):
            assert np.asarray(getattr(raised_layer, f.name)).tobytes() == np.asarray(getattr(layer, f.name)).tobytes()

    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_signed_permutations_of_one_row_match_the_former_fit(self, n):
        # every row ties at one norm in exact arithmetic, but the rounded
        # sums differ by a few ulps: the bias is the largest to rounding
        for seed in range(100):
            rng = np.random.default_rng(seed)
            row = rng.normal(size=n)
            x = np.array([rng.permutation(row) * rng.choice([-1.0, 1.0], size=n) for _ in range(40)])
            assert isinstance(_check_fit(x, None), SaabLayer), seed

    @pytest.mark.parametrize("s, n", [(19200, 8), (3000, 24), (50, 1)])
    def test_corpus_sized_pools_match_the_former_fit(self, s, n):
        rng = np.random.default_rng(s + n)
        x = rng.normal(size=(s, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
        assert isinstance(_check_fit(x, None), SaabLayer)


def _pool_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """numpy's mean, population covariance and largest squared row norm of
    (S, N) samples."""
    return x.mean(axis=0), np.cov(x, rowvar=False, bias=True), float((x * x).sum(axis=1).max())


def _assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), what


class TestSampleMoments:
    @pytest.mark.parametrize("seed", range(12))
    def test_merged_random_splits_give_the_pools_moments(self, seed):
        # cut a (S, N, C) pool at random rows, one-row sets among the parts,
        # reduce each part and merge the parts in order
        rng = np.random.default_rng(seed)
        s, n, c = int(rng.integers(2, 400)), int(rng.choice([3, 8, 24])), int(rng.integers(1, 5))
        pool = rng.normal(size=(s, n, c)) * 10.0 ** rng.uniform(-3, 3, size=(n, c)) + rng.normal(size=(n, c))
        cuts = set(rng.integers(1, s, size=rng.integers(0, 8)).tolist())
        cuts |= {1, s - 1} if seed % 2 else set()  # leading and trailing one-row sets
        edges = [0, *sorted(cuts), s]
        parts = [_moments(pool[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert len(merged) == s
        for ch in range(c):
            mean, cov, max_sq_norm = _pool_moments(pool[:, :, ch])
            _assert_close(merged[ch].mean, mean, (ch, "mean"))
            _assert_close(merged[ch].cov, cov, (ch, "cov"))
            _assert_close(merged[ch].max_sq_norm, max_sq_norm, (ch, "max_sq_norm"))

    def test_len_is_the_count(self):
        x = np.random.default_rng(1).normal(size=(37, 8, 3))
        moments = _moments(x)
        assert len(moments) == moments.count == 37
        assert len(moments[2]) == 37
        assert len(moments.merge(_moments(x[:5]))) == 42

    @staticmethod
    def _message(fn, arg) -> str:
        with pytest.raises(ValueError) as info:
            fn(arg)
        return str(info.value)

    def test_refusals_are_the_array_paths(self):
        good = _moments(np.random.default_rng(3).normal(size=(6, 4, 1)))[0]
        few = SampleMoments(1, good.mean, good.cov, good.max_sq_norm)
        assert self._message(saab_fit, few) == self._message(saab_fit, np.ones((1, 4)))
        nan = self._message(saab_fit, np.array([[1.0, np.nan], [0.0, 1.0]]))
        for field in ("mean", "cov", "max_sq_norm"):
            for bad in (np.nan, np.inf):
                value = np.array(getattr(good, field), dtype=np.float64)
                value.flat[0] = bad
                broken = dataclasses.replace(good, **{field: value})
                assert self._message(saab_fit, broken) == nan, (field, bad)

    def test_channel_axis_is_refused(self):
        moments = _moments(np.random.default_rng(4).normal(size=(6, 4, 2)))
        with pytest.raises(ValueError, match="one channel"):
            saab_fit(moments)


# ---------------------------------------------------------------------------
# applying
# ---------------------------------------------------------------------------


class TestSaabApply:
    def test_hand_example(self):
        layer = saab_fit(np.array([[1.0, 0.0], [0.0, 1.0]]))
        (y,) = saab_apply(layer, np.array([[1.0, 0.0]]))
        assert y.shape == (2,)
        assert y[0] == pytest.approx(1 / np.sqrt(2) + 1.0)
        assert abs(y[1] - 1.0) == pytest.approx(1 / np.sqrt(2))

    def test_batch_matches_single(self):
        # a one-row batch's product takes another matmul loop than a longer
        # batch's, so a row agrees with the batch's to rounding, not bit for bit
        rng = np.random.default_rng(10)
        layer = saab_fit(rng.normal(size=(30, 5)))
        batch = rng.normal(size=(8, 5)) * 0.1
        out = saab_apply(layer, batch)
        assert out.shape == (8, layer.kept_dim)
        for i in range(8):
            np.testing.assert_array_max_ulp(saab_apply(layer, batch[i : i + 1])[0], out[i], maxulp=4)

    def test_nonnegative_inside_training_ball(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 6))
        layer = saab_fit(x)
        # convex combinations of training samples stay inside the norm ball
        weights = rng.dirichlet(np.ones(100), size=500)
        probes = weights @ x
        assert (saab_apply(layer, probes) >= -1e-9).all()

    def test_training_samples_nonnegative(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 4))
        layer = saab_fit(x)
        assert (saab_apply(layer, x) >= -1e-9).all()

    def test_over_norm_not_clamped_and_logged(self, caplog):
        layer = saab_fit(np.array([[0.1, 0.0], [0.0, 0.1]]))
        big = np.array([[100.0, -100.0]])  # far outside the 0.1 norm ball
        with caplog.at_level(logging.DEBUG, logger="rpointhop.saab"):
            y = saab_apply(layer, big)
        assert any("exceed the training norm ball" in r.message for r in caplog.records)
        assert y.min() < 0.0  # not clamped

    def test_cascade_minus_bias_is_linear(self):
        rng = np.random.default_rng(13)
        layer = saab_fit(rng.normal(size=(40, 5)))
        zero = saab_apply(layer, np.zeros((1, 5)))
        u = rng.normal(size=(1, 5))
        v = rng.normal(size=(1, 5))
        lhs = saab_apply(layer, u + v) - zero
        rhs = (saab_apply(layer, u) - zero) + (saab_apply(layer, v) - zero)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_bias_zero_variant_is_pure_projection(self):
        rng = np.random.default_rng(14)
        layer = saab_fit(rng.normal(size=(40, 5)))
        bare = dataclasses.replace(layer, bias=0.0)
        u = rng.normal(size=(1, 5))
        assert np.allclose(saab_apply(bare, u), u @ layer.filters.T)

    @pytest.mark.parametrize("n", [24, 8])
    @pytest.mark.parametrize("filters", ["all", "four", "one"])
    def test_same_bits_as_the_matmul_form(self, n, filters):
        # saab_apply runs as a one-channel plan; its outputs keep the bits of
        # x @ filters.T + bias on batches and strided batches
        rng = np.random.default_rng(n)
        if filters == "one":  # a DC-only layer: the product is a matrix-vector one
            layer = SaabLayer(np.full(n, 1.0 / np.sqrt(n)), np.empty((0, n)), 2.5, np.array([1.0]))
        else:
            rank = n if filters == "all" else 3
            layer = saab_fit(rng.normal(size=(200, rank)) @ rng.normal(size=(rank, n)) + rng.normal(size=n))
        assert layer.kept_dim == {"all": n, "four": 4, "one": 1}[filters]
        for rows in (1, 2, 7, 128, 384, 768):
            x = rng.normal(size=(rows, n, 2)) * 10.0 ** rng.uniform(-3, 3, size=(rows, n, 2))
            for batch in (np.ascontiguousarray(x[:, :, 0]), x[:, :, 1]):
                assert saab_apply(layer, batch).tobytes() == (batch @ layer.filters.T + layer.bias).tobytes()

    def test_width_mismatch(self):
        layer = saab_fit(np.random.default_rng(15).normal(size=(10, 4)))
        with pytest.raises(ValueError, match="input_dim"):
            saab_apply(layer, np.zeros((1, 5)))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 1), ()])
    def test_only_batches(self, shape):
        # one vector is refused even at the layer's width: wrap it as (1, N)
        layer = saab_fit(np.random.default_rng(15).normal(size=(10, 4)))
        with pytest.raises(ValueError, match="input_dim"):
            saab_apply(layer, np.zeros(shape))


# ---------------------------------------------------------------------------
# channel-wise fitting
# ---------------------------------------------------------------------------


class TestCwSaabFit:
    def test_per_channel_layers(self):
        rng = np.random.default_rng(16)
        blocks = {0: rng.normal(size=(30, 8)), 2: rng.normal(size=(30, 8))}
        layers = cw_saab_fit(blocks)
        assert sorted(layers) == [0, 2]
        for ch, layer in layers.items():
            ref = saab_fit(blocks[ch])
            assert np.array_equal(layer.filters, ref.filters)
            assert layer.bias == ref.bias

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no channels"):
            cw_saab_fit({})

    @_ERRSTATES
    def test_block_whose_squares_overflow_is_refused(self, errstate):
        # the fit's typed refusal, not a layer with an infinite bias
        blocks = {0: np.ones((3, 2)), 1: np.array([[1e155, 0.0], [1.0, 2.0], [0.0, 0.0]])}
        with np.errstate(**(errstate or {})), pytest.raises(ValueError, match="non-finite"):
            cw_saab_fit(blocks)

    def test_param_count_beats_joint_fit(self):
        # K independent 8-wide transforms store far fewer parameters than one
        # joint transform over the concatenated 8K-wide input
        rng = np.random.default_rng(17)
        for k in (2, 4, 8):
            blocks = {c: rng.normal(size=(200, 8)) for c in range(k)}
            cw_params = sum(l.param_count() for l in cw_saab_fit(blocks).values())
            joint = saab_fit(np.hstack([blocks[c] for c in range(k)]))
            assert cw_params < joint.param_count(), f"K={k}"


# ---------------------------------------------------------------------------
# energy tree
# ---------------------------------------------------------------------------


class TestFeatureTree:
    def test_fresh_tree_has_root(self):
        tree = FeatureTree()
        root = tree.nodes[0]
        assert root.parent == -1 and root.cumulative == 1.0
        assert root.status == STATUS_INTERMEDIATE
        assert tree.output_dim() == 0

    def test_one_hop_propagation(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.6, 0.3, 0.1]}, threshold=0.25)
        kids = tree.children(0)
        assert [n.cumulative for n in kids] == pytest.approx([0.6, 0.3, 0.1])
        assert [n.status for n in kids] == [
            STATUS_INTERMEDIATE, STATUS_INTERMEDIATE, STATUS_DISCARDED,
        ]
        assert [n.channel for n in kids] == [0, 1, 2]
        assert [n.hop for n in kids] == [1, 1, 1]

    def test_cumulative_multiplies_down(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.6, 0.3, 0.1]}, threshold=0.25)
        survivors = [n.node_id for n in tree.children(0) if n.status != STATUS_DISCARDED]
        assert survivors == [1, 2]
        propagate_energy(
            tree, {nid: [0.5, 0.5] for nid in survivors}, threshold=0.25, final=True,
        )
        hop2 = tree.nodes[4:]
        assert [n.cumulative for n in hop2] == pytest.approx([0.3, 0.3, 0.15, 0.15])
        assert [n.status for n in hop2] == [
            STATUS_OUTPUT, STATUS_OUTPUT, STATUS_DISCARDED, STATUS_DISCARDED,
        ]
        assert tree.output_dim() == 2

    def test_exact_threshold_is_discarded(self):
        # survival is strict: cumulative == threshold does not survive
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.25, 0.75]}, threshold=0.25)
        kids = tree.children(0)
        assert kids[0].status == STATUS_DISCARDED
        assert kids[1].status == STATUS_INTERMEDIATE

    def test_zero_threshold_keeps_positive_only(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.5, 0.5, 0.0]}, threshold=0.0)
        assert [n.status for n in tree.children(0)] == [
            STATUS_INTERMEDIATE, STATUS_INTERMEDIATE, STATUS_DISCARDED,
        ]

    def test_node_ids_deterministic_across_parents(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.5, 0.5]}, threshold=0.0)
        # supply parents out of order; children must appear in parent-id order
        propagate_energy(tree, {2: [1.0], 1: [1.0]}, threshold=0.0, final=True)
        hop2 = tree.nodes[3:]
        assert [n.hop for n in hop2] == [2, 2]
        assert [n.parent for n in hop2] == [1, 2]
        assert [n.node_id for n in hop2] == [3, 4]

    def test_errors(self):
        tree = FeatureTree()
        with pytest.raises(ValueError, match="non-negative"):
            propagate_energy(tree, {0: [1.0]}, threshold=-0.1)
        for threshold in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold must be finite"):
                propagate_energy(tree, {0: [1.0]}, threshold=threshold)
        with pytest.raises(ValueError, match="no parent"):
            propagate_energy(tree, {}, threshold=0.1)
        with pytest.raises(ValueError, match="negative energy"):
            propagate_energy(tree, {0: [-0.1, 1.1]}, threshold=0.1)

        bad_root = FeatureTree()
        bad_root.nodes[0].cumulative = 0.9
        with pytest.raises(ValueError, match="root energy"):
            propagate_energy(bad_root, {0: [1.0]}, threshold=0.1)

    def test_discarded_parent_rejected(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.99, 0.01]}, threshold=0.1)
        assert tree.nodes[2].status == STATUS_DISCARDED
        with pytest.raises(ValueError, match="discarded"):
            propagate_energy(tree, {2: [1.0]}, threshold=0.1)

    def test_parents_spanning_hops_rejected(self):
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.5, 0.5]}, threshold=0.0)
        with pytest.raises(ValueError, match="multiple hops"):
            propagate_energy(tree, {0: [1.0], 1: [1.0]}, threshold=0.0)


# ---------------------------------------------------------------------------
# frozen hops
# ---------------------------------------------------------------------------


class TestFreezeHop:
    @staticmethod
    def truncated(layer: SaabLayer, k: int) -> SaabLayer:
        """The layer cut to its first k filters, energies renormalized."""
        energies = layer.energies[:k]
        return dataclasses.replace(
            layer, ac_filters=layer.ac_filters[: k - 1], energies=energies / energies.sum()
        )

    @staticmethod
    def survivors(tree) -> list[int]:
        """Node ids of the last hop's surviving children, ascending."""
        last = tree.nodes[-1].hop
        return [n.node_id for n in tree.nodes if n.hop == last and n.status != STATUS_DISCARDED]

    @classmethod
    def hop(cls):
        """Three parents whose layers keep 3, 5 and 2 filters, with some
        children below the threshold."""
        rng = np.random.default_rng(3)
        tree = FeatureTree()
        propagate_energy(tree, {0: [0.5, 0.3, 0.2]}, threshold=0.0)
        layers = {
            pid: cls.truncated(saab_fit(rng.normal(size=(40, 8)) * rng.uniform(0.2, 2.0, size=8)), k)
            for pid, k in ((1, 3), (2, 5), (3, 2))
        }
        propagate_energy(
            tree, {pid: layer.energies for pid, layer in layers.items()}, threshold=0.05, final=True
        )
        return tree, layers, rng.normal(size=(30, 8, 3))

    def test_matches_tree_walk_oracle(self):
        tree, layers, x = self.hop()
        ids = self.survivors(tree)
        plan = freeze_hop(tree, layers, [1, 2, 3], ids)
        want, want_ids = hop_oracle(tree, layers, [1, 2, 3], x)
        assert plan.filters.shape == (3, 8, 5)  # padded to the widest layer
        assert ids == want_ids
        assert 0 < len(ids) < 10  # the gather skips discarded children
        out = plan.apply(x)
        assert np.array_equal(out, want)
        assert out.flags.c_contiguous  # the next hop gathers these rows faster in C order

    def test_keeps_exactly_the_named_children(self):
        tree, layers, x = self.hop()
        want, survivors = hop_oracle(tree, layers, [1, 2, 3], x)
        assert len(survivors) > 2
        # every survivor, then each survivor left out in turn
        for kept in (survivors, *(survivors[:i] + survivors[i + 1 :] for i in range(len(survivors)))):
            plan = freeze_hop(tree, layers, [1, 2, 3], kept)
            k = plan.filters.shape[2]
            slots = [(tree.nodes[i].parent - 1) * k + tree.nodes[i].channel for i in kept]
            assert plan.slots.tolist() == slots
            assert np.array_equal(plan.apply(x), want[:, [survivors.index(i) for i in kept]])
        # the parents are the caller's too: a plan over parents 1 and 3
        # takes their two input columns and none of parent 2's children
        kept = [i for i in survivors if tree.nodes[i].parent != 2]
        plan = freeze_hop(tree, layers, [1, 3], kept)
        assert plan.filters.shape == (2, 8, 5) and plan.slots.size == len(kept)
        outer = x[:, :, [0, 2]]
        assert np.array_equal(plan.apply(outer), hop_oracle(tree, layers, [1, 3], outer)[0])

    def test_root_hop_is_the_joint_layer(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 6))
        tree = FeatureTree()
        layers = cw_saab_fit({0: x})
        propagate_energy(tree, {0: layers[0].energies}, threshold=0.05)
        ids = self.survivors(tree)
        plan = freeze_hop(tree, layers, [0], ids)
        cols = [tree.nodes[i].channel for i in ids]
        assert np.array_equal(plan.apply(x[:, :, None]), saab_apply(saab_fit(x), x)[:, cols])

    def test_norm_ball_logged_once_per_hop(self, caplog):
        tree, layers, x = self.hop()
        plan = freeze_hop(tree, layers, [1, 2, 3], self.survivors(tree))
        with caplog.at_level(logging.DEBUG, logger="rpointhop.saab"):
            plan.apply(x * 1e3)
        assert [r.getMessage() for r in caplog.records] == [
            "hop plan: 90 of 90 inputs exceed the training norm ball"
        ]

    def test_norm_ball_unchecked_above_debug(self, caplog, monkeypatch):
        # the out-of-ball count feeds the debug log alone: at WARNING no norm
        # is taken, nothing is logged, and the outputs keep their bits
        tree, layers, x = self.hop()
        plan = freeze_hop(tree, layers, [1, 2, 3], self.survivors(tree))
        layer = saab_fit(np.array([[0.1, 0.0], [0.0, 0.1]]))
        big = np.array([[100.0, -100.0], [0.01, 0.0]])
        with caplog.at_level(logging.DEBUG, logger="rpointhop.saab"):
            logged = plan.apply(x * 1e3), saab_apply(layer, big)
        assert len(caplog.records) == 2
        caplog.clear()
        def no_norm(*args, **kwargs):
            raise AssertionError("norm taken with DEBUG off")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        with caplog.at_level(logging.WARNING, logger="rpointhop.saab"):
            quiet = plan.apply(x * 1e3), saab_apply(layer, big)
        monkeypatch.undo()
        assert caplog.records == []
        assert [a.tobytes() for a in quiet] == [a.tobytes() for a in logged]

    # (rows, parents C, input width N, padded width K, kept C') of every
    # plan apply in a fit and an extraction: the default and acceptance
    # partial models trained on make_shape_corpus(50, 1024, 0), then the
    # TINY_CONFIG model's. A fit's forward plans keep every survivor
    # (default-1 to default-3; default-4 is the final hop over every
    # survivor); an extraction's default plans keep the live channels only
    @pytest.mark.parametrize(
        "rows, c, n, k, kept",
        [
            (768, 1, 24, 24, 24),
            (512, 24, 8, 8, 138),
            (384, 138, 8, 8, 216),
            (384, 216, 8, 8, 146),
            (768, 1, 24, 24, 9),
            (512, 9, 8, 8, 25),
            (384, 25, 8, 8, 72),
            (384, 72, 8, 8, 146),
            (384, 1, 24, 24, 24),
            (384, 24, 8, 8, 134),
            (128, 1, 24, 24, 24),
            (128, 24, 8, 8, 148),
        ],
        ids=[
            "default-1", "default-2", "default-3", "default-4",
            "default-live-1", "default-live-2", "default-live-3", "default-live-4",
            "partial-1", "partial-2", "tiny-1", "tiny-2",
        ],
    )
    def test_apply_matches_transpose_take_form(self, rows, c, n, k, kept):
        rng = np.random.default_rng(rows * c + kept)
        slots = np.sort(rng.choice(c * k, size=kept, replace=False))
        plan = HopPlan(rng.normal(size=(c, n, k)), rng.uniform(0.5, 5.0, size=c), slots)
        x = rng.normal(size=(rows, n, c)) * 10.0 ** rng.uniform(-3, 3, size=(rows, n, c))
        out = plan.apply(x)
        assert out.flags.c_contiguous
        assert out.shape == (rows, kept)
        assert out.tobytes() == plan_take_oracle(plan, x).tobytes()

    def test_model_hops_match_transpose_take_form(self, tiny_model, tiny_corpus):
        # real inputs and zero-padded filter banks, hop by hop of an extraction
        (run,) = _start_runs([tiny_corpus[0].coords], tiny_model.config, [0])
        values = None
        for h, plan in enumerate(tiny_model.plans):
            x = _dense_inputs(run.hop_inputs(h)[0], values)
            values = plan.apply(x)
            assert values.tobytes() == plan_take_oracle(plan, x).tobytes(), f"hop {h + 1}"
