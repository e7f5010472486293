"""Conjugate local models against closed forms and quadrature."""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import enum_stopped_trees
from covermodels import (
    BadConfig,
    BayesTreeDensity,
    DirichletMultinomial,
    HistogramDensity,
    MixtureLocal,
    NormalWishart,
    OutOfSupport,
    UnknownSymbol,
    local_from_state,
)


class TestDirichletMultinomial:
    def test_kt_sequence(self):
        d = DirichletMultinomial(2, concentration=0.5)
        assert math.exp(d.log_predictive(0)) == pytest.approx(0.5)
        d.update(0)
        assert math.exp(d.log_predictive(0)) == pytest.approx(0.75)
        assert math.exp(d.log_predictive(1)) == pytest.approx(0.25)

    def test_vector_concentration(self):
        d = DirichletMultinomial(3, concentration=[1.0, 2.0, 3.0])
        probs = [math.exp(d.log_predictive(k)) for k in range(3)]
        np.testing.assert_allclose(probs, [1 / 6, 2 / 6, 3 / 6])

    def test_unknown_symbol(self):
        d = DirichletMultinomial(2)
        with pytest.raises(UnknownSymbol):
            d.update(2)
        with pytest.raises(UnknownSymbol):
            d.log_predictive(-1)

    def test_round_trip(self):
        d = DirichletMultinomial(3, concentration=0.5)
        for s in [0, 1, 1, 2, 1]:
            d.update(s)
        d2 = local_from_state(d.state_dict())
        for k in range(3):
            assert d2.log_predictive(k) == d.log_predictive(k)


class TestHistogramDensity:
    def test_bin_probabilities(self):
        h = HistogramDensity([0.0, 1.0, 3.0], concentration=1.0)
        # equal pseudo mass per bin, bin widths 1 and 2
        assert math.exp(h.log_predictive(0.5)) == pytest.approx(0.5)
        assert math.exp(h.log_predictive(2.0)) == pytest.approx(0.25)
        h.update(0.3)
        assert math.exp(h.log_predictive(0.5)) == pytest.approx(2 / 3)

    def test_top_edge_closed(self):
        h = HistogramDensity([0.0, 1.0], concentration=1.0)
        h.update(1.0)  # exactly on the last edge
        assert np.isfinite(h.log_predictive(1.0))

    def test_outside_support(self):
        h = HistogramDensity([0.0, 1.0], concentration=1.0)
        assert h.log_predictive(2.0) == -np.inf
        with pytest.raises(OutOfSupport):
            h.update(2.0)


class TestNormalWishart:
    def test_univariate_matches_quadrature(self):
        """Frozen dblquad integrals over the (mean, precision) posterior.

        Reference values were produced by scipy.integrate.dblquad on
        the exact posterior density (Gamma precision, conditional
        normal mean) times the sampling density, epsabs 1e-11.
        """
        nw = NormalWishart([0.3], kappa0=2.0, nu0=3.0, scale=[[1.5]])
        for y in [0.2, -0.7, 1.1]:
            nw.update([y])
        frozen = {
            0.0: 0.458512303179,
            1.3: 0.193592292053,
            -2.0: 0.024856622819,
        }
        for ystar, want in frozen.items():
            assert math.exp(nw.log_predictive([ystar])) == pytest.approx(
                want, abs=5e-10
            )

    def test_prior_predictive_is_cauchy(self):
        # kappa0 = nu0 = 1, unit scale in 1-d gives a Cauchy with scale sqrt(2)
        nw = NormalWishart([0.0], kappa0=1.0, nu0=1.0, scale=[[1.0]])
        want = stats.cauchy.logpdf(0.7, loc=0.0, scale=math.sqrt(2.0))
        assert nw.log_predictive([0.7]) == pytest.approx(want, abs=1e-12)

    def test_multivariate_matches_scipy_t(self):
        rng = np.random.default_rng(11)
        nw = NormalWishart([0.0, 0.0], kappa0=1.0, nu0=4.0, scale=np.eye(2))
        ys = rng.normal(size=(6, 2))
        for y in ys:
            nw.update(y)
        mun, kappan, nun, Tn = nw.posterior_params()
        df = nun - 2 + 1
        shape = Tn * (kappan + 1) / (kappan * df)
        mvt = stats.multivariate_t(loc=mun, shape=shape, df=df)
        for q in rng.normal(size=(5, 2)):
            assert nw.log_predictive(q) == pytest.approx(mvt.logpdf(q), abs=1e-10)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(1.0, 2.0, size=(30, 1))
        nw = NormalWishart([0.5], kappa0=1.5, nu0=3.0, scale=[[2.0]])
        for y in ys:
            nw.update(y)
        mun, kappan, nun, Tn = nw.posterior_params()
        # closed form from sufficient statistics
        n = len(ys)
        ybar = ys.mean(axis=0)
        S = (ys - ybar).T @ (ys - ybar)
        k0, v0 = 1.5, 3.0
        mu0 = np.array([0.5])
        want_mu = (k0 * mu0 + n * ybar) / (k0 + n)
        want_T = (
            np.array([[2.0]])
            + S
            + k0 * n / (k0 + n) * np.outer(ybar - mu0, ybar - mu0)
        )
        np.testing.assert_allclose(mun, want_mu, atol=1e-10)
        assert kappan == pytest.approx(k0 + n)
        assert nun == pytest.approx(v0 + n)
        np.testing.assert_allclose(Tn, want_T, atol=1e-10)

    def test_round_trip(self):
        nw = NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]])
        for y in [0.3, -0.2, 0.9]:
            nw.update([y])
        nw2 = local_from_state(nw.state_dict())
        assert nw2.log_predictive([0.1]) == nw.log_predictive([0.1])

    def test_sampling_moments(self):
        nw = NormalWishart([2.0], kappa0=1.0, nu0=30.0, scale=[[30.0]])
        rng = np.random.default_rng(8)
        draws = np.array([nw.sample(rng) for _ in range(20000)])
        # wide-df Student-t, mean 2, scale near sqrt(T (k+1) / (k nu))
        assert draws.mean() == pytest.approx(2.0, abs=0.05)
        assert draws.std() == pytest.approx(math.sqrt(2 * 30 / 28), abs=0.08)


class TestBayesTree:
    def test_empty_tree_is_uniform(self):
        bt = BayesTreeDensity([0.0], [2.0], max_depth=6)
        assert math.exp(bt.log_predictive([0.3])) == pytest.approx(0.5)
        assert math.exp(bt.log_predictive([1.9])) == pytest.approx(0.5)

    def test_matches_stopped_tree_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            dim = 1 if trial % 2 == 0 else 2
            lo = np.zeros(dim)
            hi = np.ones(dim) * (1.0 + trial % 3)
            bt = BayesTreeDensity(lo, hi, gamma=0.4, branch_pseudo=0.7, max_depth=3)
            pts = [rng.uniform(lo, hi) for _ in range(5)]
            for p in pts:
                bt.update(p)
            want = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts)
            got = math.exp(bt.log_evidence)
            assert got == pytest.approx(want, rel=1e-10)
            # predictive is the evidence ratio of the enumerations
            q = rng.uniform(lo, hi)
            want_pred = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts + [q]) / want
            assert math.exp(bt.log_predictive(q)) == pytest.approx(
                want_pred, rel=1e-10
            )

    def test_evidence_telescopes(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=6)
        total = 0.0
        for y in [0.1, 0.2, 0.9, 0.15]:
            total += bt.log_predictive([y])
            bt.update([y])
        assert total == pytest.approx(bt.log_evidence, abs=1e-12)

    def test_growth_adds_no_collector_tracked_objects(self):
        # a container per node left a trained CDE model with ~40k objects
        # for every full collection to walk, pauses of tens of ms
        bt = BayesTreeDensity([0.0, 0.0], [1.0, 1.0], max_depth=8)
        pts = np.random.default_rng(3).uniform(size=(300, 2))
        before = len(gc.get_objects())
        for p in pts:
            bt.update(p)
        assert len(gc.get_objects()) - before < 10

    def test_normalization_1d(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=5)
        rng = np.random.default_rng(2)
        for y in rng.beta(2, 5, size=40):
            bt.update([y])
        ys = np.linspace(1e-9, 1 - 1e-9, 8001)
        dens = np.exp([bt.log_predictive([float(v)]) for v in ys])
        assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-4)

    def test_outside_box(self):
        bt = BayesTreeDensity([0.0], [1.0])
        assert bt.log_predictive([1.5]) == -np.inf
        with pytest.raises(OutOfSupport):
            bt.update([-0.1])

    def test_max_depth_zero_is_plain_uniform(self):
        bt = BayesTreeDensity([0.0], [4.0], max_depth=0)
        for y in [0.1, 3.9, 2.0]:
            bt.update([y])
        assert math.exp(bt.log_predictive([1.0])) == pytest.approx(0.25)

    def test_round_trip(self):
        bt = BayesTreeDensity([0.0, 0.0], [1.0, 1.0], max_depth=4)
        rng = np.random.default_rng(9)
        for y in rng.uniform(0, 1, size=(20, 2)):
            bt.update(y)
        bt2 = local_from_state(bt.state_dict())
        q = [0.3, 0.8]
        assert bt2.log_predictive(q) == bt.log_predictive(q)
        bt.update([0.5, 0.5])
        bt2.update([0.5, 0.5])
        assert bt2.log_predictive(q) == bt.log_predictive(q)

    def test_samples_stay_in_box(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=5)
        rng = np.random.default_rng(1)
        for y in rng.uniform(0.0, 0.25, size=60):
            bt.update([y])
        draws = np.array([bt.sample(rng) for _ in range(2000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # posterior mass concentrates where the data sat
        assert np.mean(draws < 0.25) > 0.55


class TestMixtureLocal:
    def test_posterior_weights_track_evidence(self):
        comps = [
            NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
            HistogramDensity(np.linspace(-3, 3, 13), concentration=1.0),
        ]
        refs = [
            NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
            HistogramDensity(np.linspace(-3, 3, 13), concentration=1.0),
        ]
        mix = MixtureLocal(comps)
        ev = np.zeros(2)
        rng = np.random.default_rng(0)
        for y in rng.normal(0, 0.8, size=12):
            mix.update(y)
            for j, r in enumerate(refs):
                ev[j] += r.log_predictive(y)
                r.update(y)
        # equal prior weights cancel in the normalisation
        want = np.exp(ev - np.logaddexp(ev[0], ev[1]))
        np.testing.assert_allclose(np.exp(mix.log_w), want, atol=1e-12)

    def test_predictive_is_weighted_average(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                HistogramDensity([-2.0, 0.0, 2.0], concentration=1.0),
            ]
        )
        mix.update(0.5)
        w = np.exp(mix.log_w)
        per = [math.exp(c.log_predictive(0.1)) for c in mix.components]
        assert math.exp(mix.log_predictive(0.1)) == pytest.approx(
            float(w @ per), rel=1e-12
        )

    def test_out_of_support_component_is_skipped(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                HistogramDensity([-1.0, 1.0], concentration=1.0),
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mix.update(5.0)  # outside the histogram, inside the normal
        np.testing.assert_allclose(np.exp(mix.log_w), [1.0, 0.0], atol=1e-300)
        assert np.isfinite(mix.log_predictive(0.0))

    def test_all_out_of_support(self):
        mix = MixtureLocal([HistogramDensity([-1.0, 1.0], concentration=1.0)])
        with pytest.raises(OutOfSupport):
            mix.update(5.0)

    def test_round_trip(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                BayesTreeDensity([-3.0], [3.0], max_depth=4),
            ]
        )
        for y in [0.2, -0.4, 1.0]:
            mix.update(y)
        mix2 = local_from_state(mix.state_dict())
        assert mix2.log_predictive(0.3) == mix.log_predictive(0.3)

    def test_needs_components(self):
        with pytest.raises(BadConfig):
            MixtureLocal([])


# One factory and one observation sampler per local model kind. The
# mixture's tree box is narrower than its data, so some updates take the
# out-of-support skip path.
FUSED_CASES = {
    "dirichlet": (
        lambda: DirichletMultinomial(3, concentration=0.5),
        lambda rng: int(rng.integers(3)),
    ),
    "histogram": (
        lambda: HistogramDensity(np.linspace(-2.0, 2.0, 9), concentration=1.0),
        lambda rng: float(rng.uniform(-2.0, 2.0)),
    ),
    "nw-dim1": (
        lambda: NormalWishart([0.3], kappa0=2.0, nu0=3.0, scale=[[1.5]]),
        lambda rng: rng.normal(0.5, 1.2, size=1),
    ),
    "nw-dim2": (
        lambda: NormalWishart([0.0, 1.0], kappa0=1.0, nu0=4.0, scale=np.eye(2)),
        lambda rng: rng.normal(size=2),
    ),
    "tree-dim1": (
        lambda: BayesTreeDensity([0.0], [1.0], max_depth=8),
        lambda rng: rng.beta(2.0, 5.0, size=1),
    ),
    "tree-dim2": (
        lambda: BayesTreeDensity([0.0, 0.0], [1.0, 2.0], max_depth=8),
        lambda rng: rng.uniform([0.0, 0.0], [1.0, 2.0]),
    ),
    "mixture": (
        lambda: MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                BayesTreeDensity([-2.0], [2.0], max_depth=6),
            ]
        ),
        lambda rng: rng.normal(0.0, 1.5, size=1),
    ),
}


class TestFusedUpdate:
    @pytest.mark.parametrize("kind", sorted(FUSED_CASES))
    def test_update_returns_the_pre_update_predictive(self, kind):
        make, draw = FUSED_CASES[kind]
        model = make()
        rng = np.random.default_rng(21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(60):
                y = draw(rng)
                before = model.log_predictive(y)
                assert model.update(y) == before

    @pytest.mark.parametrize("kind", ["histogram", "tree-dim1", "mixture"])
    def test_rejected_update_changes_nothing(self, kind):
        make, draw = FUSED_CASES[kind]
        model = make()
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(20):
                model.update(draw(rng))
        before = model.state_dict()
        with pytest.raises(BadConfig):
            model.update(float("nan"))
        if kind != "mixture":  # the normal component supports every y
            with pytest.raises(OutOfSupport):
                model.update(50.0)
        assert model.state_dict() == before

    @pytest.mark.parametrize("upper", [[2.0], [1.0, 2.0]])
    def test_tree_rebuilt_from_state_is_bit_identical(self, upper):
        lo = np.zeros(len(upper))
        bt = BayesTreeDensity(lo, upper, max_depth=10)
        rng = np.random.default_rng(13)
        for u in rng.beta(2.0, 5.0, size=(200, len(upper))):
            bt.update(u * np.asarray(upper))
        clone = BayesTreeDensity.from_state(bt.state_dict())
        assert clone.log_evidence == bt.log_evidence
        axes = [np.linspace(0.0, hi, 9) for hi in upper]
        for q in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(upper)):
            assert clone.log_predictive(q) == bt.log_predictive(q)
