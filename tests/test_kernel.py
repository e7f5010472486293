"""Nadaraya-Watson style conditional density baseline."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from covermodels import BadConfig, DegenerateData, DoubleKernelCde, ZeroDenominator, fit_cv
from covermodels.kernel import _logsumexp_rows, _sqdist


def brute_log_density(x, y, hx, hy, xq, yq):
    """Direct sum over training pairs, no log-space tricks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kx = np.exp(-0.5 * np.sum(((xq - x) / hx) ** 2, axis=1))
    ky = np.exp(-0.5 * np.sum(((yq - y) / hy) ** 2, axis=1))
    dy = y.shape[1]
    const = dy * math.log(hy * math.sqrt(2 * math.pi))
    return math.log(np.sum(kx * ky)) - math.log(np.sum(kx)) - const


class TestDensity:
    def test_three_point_closed_form(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[0.0], [1.0], [0.5]])
        model = DoubleKernelCde(x, y, hx=0.7, hy=0.4)
        for xq, yq in [(0.2, 0.3), (1.5, 0.9), (-1.0, 0.0)]:
            got = model.log_density([xq], [yq])
            want = brute_log_density(x, y, 0.7, 0.4, [xq], [yq])
            assert got == pytest.approx(want, abs=1e-12)

    def test_multidimensional(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=(40, 3))
        model = DoubleKernelCde(x, y, hx=0.9, hy=0.8)
        q = rng.normal(size=(5, 2))
        t = rng.normal(size=(5, 3))
        got = model.log_density_batch(q, t)
        want = [brute_log_density(x, y, 0.9, 0.8, q[i], t[i]) for i in range(5)]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_far_tail_is_finite(self):
        # the x weights collapse onto the nearest point instead of 0/0
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.0], [5.0]])
        model = DoubleKernelCde(x, y, hx=0.1, hy=0.5)
        lp = model.log_density([500.0], [5.0])
        assert np.isfinite(lp)
        # conditional at the far query matches the nearest training y
        assert lp > model.log_density([500.0], [0.0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 1))
        y = rng.normal(size=(30, 1))
        model = DoubleKernelCde(x, y, hx=0.5, hy=0.5)
        qs = rng.normal(size=(7, 1))
        ts = rng.normal(size=(7, 1))
        batch = model.log_density_batch(qs, ts)
        singles = [model.log_density(qs[i], ts[i]) for i in range(7)]
        np.testing.assert_allclose(batch, singles, atol=0)

    def test_normalizes_in_y(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 1))
        y = rng.normal(size=(25, 1))
        model = DoubleKernelCde(x, y, hx=0.6, hy=0.3)
        ys = np.linspace(-6, 6, 4001)
        dens = np.exp([model.log_density([0.2], [v]) for v in ys])
        assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-6)

    def test_an_underflowed_covariate_sum_is_refused(self):
        model = DoubleKernelCde([0.0, 1.0], [0.0, 1.0], hx=1e-160, hy=1.0)
        # 2 hx^2 is subnormal, so every scaled distance overflows to inf,
        # which must raise without a numpy warning first
        with pytest.raises(ZeroDenominator), warnings.catch_warnings():
            warnings.simplefilter("error")
            model.log_density_batch([0.5], [0.5])

    def test_shape_validation(self):
        with pytest.raises(BadConfig):
            DoubleKernelCde(np.zeros((3, 1)), np.zeros((4, 1)), 1.0, 1.0)
        with pytest.raises(BadConfig):
            DoubleKernelCde(np.zeros((3, 1)), np.zeros((3, 1)), -1.0, 1.0)


class TestHelpers:
    """The numpy helpers against the scipy calls they replace."""

    def test_row_logsumexp_matches_scipy(self):
        """Within a few ulps on rows with and without -inf entries; a
        row of -inf gives -inf, without a warning."""
        rng = np.random.default_rng(5)
        a = rng.normal(size=(50, 300)) * 40.0
        a[rng.random(a.shape) < 0.3] = -np.inf
        a[7] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp_rows(a)
        want = logsumexp(a, axis=1)
        assert got[7] == -np.inf and want[7] == -np.inf
        finite = np.isfinite(want)
        assert finite.sum() == 49
        ulps = np.abs(got[finite] - want[finite]) / np.spacing(np.abs(want[finite]))
        assert ulps.max() <= 4

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_squared_distances_equal_cdist_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(60, dim)) * 3.0
        b = rng.normal(size=(45, dim))
        np.testing.assert_array_equal(_sqdist(a, b), cdist(a, b, "sqeuclidean"))


class TestCrossValidation:
    def test_deterministic(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(150, 1))
        y = x + rng.normal(0, 0.2, size=(150, 1))
        m1, r1 = fit_cv(x, y, grid_size=5)
        m2, r2 = fit_cv(x, y, grid_size=5)
        assert (r1.hx, r1.hy) == (r2.hx, r2.hy)
        np.testing.assert_array_equal(r1.scores, r2.scores)

    def test_grid_shape_and_report(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 1))
        y = rng.normal(size=(80, 1))
        model, rep = fit_cv(x, y, n_folds=5, grid_size=4)
        # flat row major over (hx, hy)
        assert np.asarray(rep.scores).shape == (16,)
        assert rep.n_folds == 5 and rep.n_train == 80 and rep.n_used == 80
        assert rep.hx in rep.grid_hx and rep.hy in rep.grid_hy
        assert model.hx == rep.hx and model.hy == rep.hy

    def test_chosen_bandwidth_is_sane(self):
        # tight conditional noise wants hy well under the y spread
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, size=(400, 1))
        y = np.sin(x) + rng.normal(0, 0.05, size=(400, 1))
        _, rep = fit_cv(x, y, grid_size=9)
        assert rep.hy < 0.5 * np.std(y)

    def test_subsample_cap(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(500, 1))
        y = rng.normal(size=(500, 1))
        model, rep = fit_cv(x, y, grid_size=3, subsample_cap=100)
        assert rep.n_used == 100
        assert rep.n_train == 500
        # the final model still carries every training point
        assert model.x.shape[0] == 500

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_folds", 1),
            ("n_folds", 0),
            ("n_folds", -2),
            ("n_folds", 2.5),
            ("n_folds", math.nan),
            ("grid_size", 0),
            ("grid_size", 1.5),
            ("subsample_cap", 1),
            ("subsample_cap", math.inf),
        ],
        ids=repr,
    )
    def test_a_size_out_of_range_is_refused(self, key, value):
        """``n_folds=1`` and ``grid_size=0`` raised a numpy ``ValueError``;
        ``n_folds`` 0 and -2 ran no fold and picked the grid's first pair."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 1))
        y = x + rng.normal(0, 0.2, size=(40, 1))
        with pytest.raises(BadConfig, match=f"{key} must be a whole number"):
            fit_cv(x, y, **{key: value})

    def test_the_smallest_sizes_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 1))
        y = x + rng.normal(0, 0.2, size=(40, 1))
        model, rep = fit_cv(x, y, n_folds=2.0, grid_size=1, subsample_cap=2)
        assert rep.n_folds == 2 and rep.n_used == 2 and len(rep.scores) == 1
        assert model.x.shape[0] == 40

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateData):
            fit_cv(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(DegenerateData):
            fit_cv(np.zeros((20, 1)), np.random.default_rng(0).normal(size=(20, 1)))
        with pytest.raises(DegenerateData):
            fit_cv(np.random.default_rng(0).normal(size=(20, 1)), np.ones((20, 1)))
