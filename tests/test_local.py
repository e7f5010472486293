"""Conjugate local models against closed forms and quadrature."""

import gc
import json
import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    enum_stopped_trees,
    learn,
    local_trees,
    old_record,
    refilled,
    score,
    tree_nodes,
)
from covermodels import (
    BadConfig,
    BayesTreeDensity,
    Box,
    CoverModelPosterior,
    DirichletMultinomial,
    KdTreeCover,
    MixtureLocal,
    NormalWishart,
    OutOfSupport,
    UnknownSymbol,
    local_from_state,
)
from covermodels.covers import cut
from covermodels.local import upgrade_state
from covermodels.logspace import LOG2, logaddexp
from oracle import dirichlet_block_marginal


class TestDirichletMultinomial:
    def test_kt_sequence(self):
        d = DirichletMultinomial(2, concentration=0.5)
        assert math.exp(score(d, 0)) == pytest.approx(0.5)
        learn(d, 0)
        assert math.exp(score(d, 0)) == pytest.approx(0.75)
        assert math.exp(score(d, 1)) == pytest.approx(0.25)

    def test_vector_concentration(self):
        d = DirichletMultinomial(3, concentration=[1.0, 2.0, 3.0])
        probs = [math.exp(score(d, k)) for k in range(3)]
        np.testing.assert_allclose(probs, [1 / 6, 2 / 6, 3 / 6])

    def test_unknown_symbol(self):
        d = DirichletMultinomial(2)
        with pytest.raises(UnknownSymbol):
            learn(d, 2)
        with pytest.raises(UnknownSymbol):
            score(d, -1)

    @pytest.mark.parametrize(
        "bad", [1.5, "2", math.nan, math.inf, None, np.float64(0.5), np.array([1.5]), np.array(["1"])]
    )
    def test_symbols_must_be_integral_numbers(self, bad):
        """1.5 once learnt symbol 1 and '2' symbol 2."""
        d = DirichletMultinomial(3)
        with pytest.raises(UnknownSymbol):
            d.prepare(bad)

    @pytest.mark.parametrize(
        "good", [2, np.int64(2), 2.0, np.float64(2.0), np.array([2.0]), np.array([2]), np.array(2)]
    )
    def test_integral_symbols_pass(self, good):
        s = DirichletMultinomial(3).prepare(good)
        assert s == 2 and type(s) is int

    def test_round_trip(self):
        d = DirichletMultinomial(3, concentration=0.5)
        for s in [0, 1, 1, 2, 1]:
            learn(d, s)
        d2 = local_from_state(d.state_dict(), DirichletMultinomial(3, concentration=0.5))
        for k in range(3):
            assert score(d2, k) == score(d, k)

    @given(
        alphabet=st.integers(2, 5),
        concentration=st.sampled_from([0.5, 1.0, 0.3]),
        stream=st.lists(st.integers(0, 4), max_size=60),
    )
    def test_summed_updates_are_the_block_marginal(self, alphabet, concentration, stream):
        """The float counts with a running total score a stream as the
        batch Dirichlet-multinomial marginal does."""
        d = DirichletMultinomial(alphabet, concentration)
        ys = [s % alphabet for s in stream]
        got = sum(learn(d, y) for y in ys)
        want = dirichlet_block_marginal(alphabet, concentration)(None, [(None, y) for y in ys])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert d.n_seen == len(ys)


class TestNormalWishart:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_prepared_y_and_sums_are_float_lists(self, dim):
        nw = NormalWishart([0.0] * dim)
        py = nw.prepare(np.arange(dim) + 0.5)
        assert type(py) is list and py == [0.5, 1.5][:dim]
        assert all(type(v) is float for v in py)
        nw.update(py)
        assert nw.sum_y == py
        assert nw.sum_yy == [[v * w for w in py] for v in py]

    def test_univariate_matches_quadrature(self):
        """Frozen dblquad integrals over the (mean, precision) posterior.

        Reference values were produced by scipy.integrate.dblquad on
        the exact posterior density (Gamma precision, conditional
        normal mean) times the sampling density, epsabs 1e-11.
        """
        nw = NormalWishart([0.3], kappa0=2.0, nu0=3.0, scale=[[1.5]])
        for y in [0.2, -0.7, 1.1]:
            learn(nw, [y])
        frozen = {
            0.0: 0.458512303179,
            1.3: 0.193592292053,
            -2.0: 0.024856622819,
        }
        for ystar, want in frozen.items():
            assert math.exp(score(nw, [ystar])) == pytest.approx(
                want, abs=5e-10
            )

    def test_prior_predictive_is_cauchy(self):
        # kappa0 = nu0 = 1, unit scale in 1-d gives a Cauchy with scale sqrt(2)
        nw = NormalWishart([0.0], kappa0=1.0, nu0=1.0, scale=[[1.0]])
        want = stats.cauchy.logpdf(0.7, loc=0.0, scale=math.sqrt(2.0))
        assert score(nw, [0.7]) == pytest.approx(want, abs=1e-12)

    def test_multivariate_matches_scipy_t(self):
        rng = np.random.default_rng(11)
        nw = NormalWishart([0.0, 0.0], kappa0=1.0, nu0=4.0, scale=np.eye(2))
        ys = rng.normal(size=(6, 2))
        for y in ys:
            learn(nw, y)
        mun, kappan, nun, Tn = nw.posterior_params()
        df = nun - 2 + 1
        shape = Tn * (kappan + 1) / (kappan * df)
        mvt = stats.multivariate_t(loc=mun, shape=shape, df=df)
        for q in rng.normal(size=(5, 2)):
            assert score(nw, q) == pytest.approx(mvt.logpdf(q), abs=1e-10)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(1.0, 2.0, size=(30, 1))
        nw = NormalWishart([0.5], kappa0=1.5, nu0=3.0, scale=[[2.0]])
        for y in ys:
            learn(nw, y)
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

    @pytest.mark.parametrize(
        "mu0,key,value",
        [
            ([0.0], "sum_yy", [[-100.0]]),
            ([0.0], "sum_y", [1e6]),
            ([0.0, 0.0], "sum_yy", [[-100.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_sums_no_data_can_give_are_refused_on_load(self, mu0, key, value):
        """Data only grows the posterior scale T0 + scatter + shift, so
        sums that leave it not positive came from no data."""
        nw = NormalWishart(mu0)
        rng = np.random.default_rng(4)
        for y in rng.normal(size=(3, len(mu0))):
            learn(nw, y)
        state = nw.state_dict()
        assert score(local_from_state(state, NormalWishart(mu0)), mu0) == score(nw, mu0)
        state[key] = value
        with pytest.raises(BadConfig):
            local_from_state(state, NormalWishart(mu0))

    def test_sums_before_any_observation_must_be_zero(self):
        state = NormalWishart([0.0]).state_dict()
        state["sum_yy"] = [[2.0]]
        with pytest.raises(BadConfig):
            local_from_state(state, NormalWishart([0.0]))

    def test_models_of_one_prior_share_its_values(self):
        """Models spawned or loaded from one prior hold its very mean and
        scale, -0.0 included; a prior built again from equal numbers
        holds equal ones, and a scale's form is checked: a 1 by 1 matrix
        for two dimensions is refused, and so are ragged rows."""
        a = NormalWishart([0.0, 1.0], kappa0=2.0, scale=2.0)
        b = a.spawn()
        learn(b, [0.5, 0.5])
        assert b.mu0 is a.mu0 and b.T0 is a.T0 and a.T0 == [[2.0, 0.0], [0.0, 2.0]]
        loaded = local_from_state(b.state_dict(), a)
        assert loaded.mu0 is a.mu0 and loaded.T0 is a.T0 and loaded.prior() == a.prior()
        z = NormalWishart([-0.0, 1.0], kappa0=2.0, scale=2.0)
        assert z.spawn().mu0 is z.mu0 and math.copysign(1.0, z.spawn().prior()["mu0"][0]) == -1.0
        c = NormalWishart(np.array([0.0, 1.0]), kappa0=2.0, scale=np.full((1, 1), 2.0) * np.eye(2))
        assert c.T0 is not a.T0 and c.prior() == a.prior()
        with pytest.raises(BadConfig):
            NormalWishart([0.0, 1.0], kappa0=2.0, scale=[[2.0]])
        NormalWishart([0.0, 1.0], kappa0=2.0, scale=[[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises((BadConfig, ValueError)):
            NormalWishart([0.0, 1.0], kappa0=2.0, scale=[[2.0, 0.0, 0.0], [2.0]])

    def test_round_trip(self):
        nw = NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]])
        for y in [0.3, -0.2, 0.9]:
            learn(nw, [y])
        fresh = NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]])
        nw2 = local_from_state(nw.state_dict(), fresh)
        assert score(nw2, [0.1]) == score(nw, [0.1])

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
        assert math.exp(score(bt, [0.3])) == pytest.approx(0.5)
        assert math.exp(score(bt, [1.9])) == pytest.approx(0.5)

    def test_matches_stopped_tree_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            dim = 1 if trial % 2 == 0 else 2
            lo = np.zeros(dim)
            hi = np.ones(dim) * (1.0 + trial % 3)
            bt = BayesTreeDensity(lo, hi, gamma=0.4, branch_pseudo=0.7, max_depth=3)
            pts = [rng.uniform(lo, hi) for _ in range(5)]
            for p in pts:
                learn(bt, p)
            want = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts)
            got = math.exp(bt.log_evidence)
            assert got == pytest.approx(want, rel=1e-10)
            # predictive is the evidence ratio of the enumerations
            q = rng.uniform(lo, hi)
            want_pred = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts + [q]) / want
            assert math.exp(score(bt, q)) == pytest.approx(
                want_pred, rel=1e-10
            )

    def test_evidence_telescopes(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=6)
        total = 0.0
        for y in [0.1, 0.2, 0.9, 0.15]:
            total += score(bt, [y])
            learn(bt, [y])
        assert total == pytest.approx(bt.log_evidence, abs=1e-12)

    def test_growth_adds_no_collector_tracked_objects(self):
        # a container per node left a trained CDE model with ~40k objects
        # for every full collection to walk, pauses of tens of ms
        bt = BayesTreeDensity([0.0, 0.0], [1.0, 1.0], max_depth=8)
        pts = np.random.default_rng(3).uniform(size=(300, 2))
        before = len(gc.get_objects())
        for p in pts:
            learn(bt, p)
        assert len(gc.get_objects()) - before < 10

    def test_normalization_1d(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=5)
        rng = np.random.default_rng(2)
        for y in rng.beta(2, 5, size=40):
            learn(bt, [y])
        ys = np.linspace(1e-9, 1 - 1e-9, 8001)
        dens = np.exp([score(bt, [float(v)]) for v in ys])
        assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-4)

    def test_outside_box(self):
        bt = BayesTreeDensity([0.0], [1.0])
        assert score(bt, [1.5]) == -np.inf
        with pytest.raises(OutOfSupport):
            learn(bt, [-0.1])

    @pytest.mark.parametrize("kw", [{"branch_pseudo": math.nan}, {"gamma": math.nan}])
    def test_rejects_nan_parameters(self, kw):
        with pytest.raises(BadConfig):
            BayesTreeDensity([0.0], [1.0], **kw)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_max_depth_is_bounded_by_float_halvings(self, dim):
        """Deeper than 2100 levels per side no float box splits, so such
        a max_depth is refused before it sizes the per-level tables."""
        top = 2100 * dim
        assert len(BayesTreeDensity([0.0] * dim, [1.0] * dim, max_depth=top)._one) == top + 1
        for depth in (top + 1, 10**9, math.inf):
            with pytest.raises(BadConfig):
                BayesTreeDensity([0.0] * dim, [1.0] * dim, max_depth=depth)
        fresh = BayesTreeDensity([0.0] * dim, [1.0] * dim)
        with pytest.raises(BadConfig):
            upgrade_state({**fresh.prior(), "max_depth": 10**9}, fresh)
        with pytest.raises(BadConfig):
            load_with_prior(fresh, {**fresh.prior(), "max_depth": 10**9})

    def test_trees_of_one_prior_share_its_tables(self):
        """Trees spawned or loaded from one prior hold its very box and
        tables, a box with -0.0 included; a tree built again from equal
        bounds builds its own tables, with the same values."""
        kw = dict(gamma=0.4, branch_pseudo=0.6, max_depth=7)
        a = BayesTreeDensity([0.0, -1.0], [1.0, 1.0], **kw)
        b = a.spawn()
        learn(b, [0.5, 0.5])
        assert b._one is a._one and b.box is a.box and b._chain is a._chain
        loaded = local_from_state(b.state_dict(), a)
        assert loaded._one is a._one and loaded.box is a.box and loaded.prior() == a.prior()
        z = BayesTreeDensity([-0.0, -1.0], [1.0, 1.0], **kw)
        assert z.spawn().box is z.box and math.copysign(1.0, z.spawn().prior()["lower"][0]) == -1.0
        c = BayesTreeDensity(np.array([0.0, -1.0]), (1.0, 1.0), **kw)
        assert c._one is not a._one
        assert (c._one, c._chain, c.prior()) == (a._one, a._chain, a.prior())

    def test_max_depth_zero_is_plain_uniform(self):
        bt = BayesTreeDensity([0.0], [4.0], max_depth=0)
        for y in [0.1, 3.9, 2.0]:
            learn(bt, [y])
        assert math.exp(score(bt, [1.0])) == pytest.approx(0.25)

    def test_round_trip(self):
        """The record is empty; the points rebuild the tree."""
        bt = BayesTreeDensity([0.0, 0.0], [1.0, 1.0], max_depth=4)
        rng = np.random.default_rng(9)
        ys = rng.uniform(0, 1, size=(20, 2))
        for y in ys:
            learn(bt, y)
        assert bt.state_dict() == {}
        bt2 = refilled(bt, ys)
        q = [0.3, 0.8]
        assert score(bt2, q) == score(bt, q)
        learn(bt, [0.5, 0.5])
        learn(bt2, [0.5, 0.5])
        assert score(bt2, q) == score(bt, q)

    def test_samples_stay_in_box(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=5)
        rng = np.random.default_rng(1)
        for y in rng.uniform(0.0, 0.25, size=60):
            learn(bt, [y])
        draws = np.array([bt.sample(rng) for _ in range(2000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # posterior mass concentrates where the data sat
        assert np.mean(draws < 0.25) > 0.55

    @pytest.mark.parametrize("held", ["one", "seven"])
    @pytest.mark.parametrize("max_depth", [0, 1, 4])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_samples_follow_the_predictive_density(self, dim, max_depth, held):
        """Draws land in each finest cell of the partition as often as
        the query's density, constant there, integrates to over it. One
        point makes the root a singleton; seven leave a singleton's
        chain, a point held twice and empty cells at max_depth 4."""
        lo, hi = np.array([-1.0, 0.0][:dim]), np.array([1.0, 3.0][:dim])
        unit = [[0.4, 0.9], [0.1, 0.1], [0.12, 0.11], [0.13, 0.4], [0.7, 0.3], [0.71, 0.31]]
        unit = unit[:1] if held == "one" else unit + [unit[-1]]
        bt = BayesTreeDensity(lo, hi, gamma=0.3, branch_pseudo=0.6, max_depth=max_depth)
        for u in unit:
            learn(bt, lo + (hi - lo) * np.array(u[:dim]))
        singleton = [n == 1 and not k for n, k in zip(bt._n, bt._kid)]
        if max_depth == 4 and held == "seven":
            assert any(singleton) and 0 in bt._n and 2 in bt._n
        elif max_depth and held == "one":
            assert singleton == [True]
        cells = [(list(lo), list(hi))]  # the finest cells, in route order
        for _ in range(max_depth):
            halves = []
            for clo, chi in cells:
                d, mid = cut(clo, chi)
                low, high = (list(clo), list(chi)), (list(clo), list(chi))
                low[1][d] = high[0][d] = mid
                halves += [low, high]
            cells = halves
        mass = np.array([
            math.exp(score(bt, [0.5 * (a + b) for a, b in zip(clo, chi)]))
            * math.prod(b - a for a, b in zip(clo, chi))
            for clo, chi in cells
        ])
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        draws = 10000
        counts = np.zeros(len(cells))
        rng = np.random.default_rng(11)
        for _ in range(draws):
            y = np.atleast_1d(bt.sample(rng))
            _, inside, route = bt.prepare(y)
            assert inside
            counts[int("".join(str(side) for _, _, side in route) or "0", 2)] += 1
        if len(cells) > 1:
            chi2 = np.sum((counts - draws * mass) ** 2 / (draws * mass))
            assert stats.chi2.sf(chi2, len(cells) - 1) > 1e-3


class TestMixtureLocal:
    def test_posterior_weights_track_evidence(self):
        comps = [
            NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
            BayesTreeDensity([-3.0], [3.0], max_depth=6),
        ]
        refs = [
            NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
            BayesTreeDensity([-3.0], [3.0], max_depth=6),
        ]
        mix = MixtureLocal(comps)
        ev = np.zeros(2)
        ys = np.random.default_rng(0).normal(0, 0.8, size=12)
        assert np.all(np.abs(ys) < 3.0)  # no component skips a point
        for y in ys:
            learn(mix, y)
            for j, r in enumerate(refs):
                ev[j] += score(r, y)
                learn(r, y)
        # equal prior weights cancel in the normalisation
        want = np.exp(ev - np.logaddexp(ev[0], ev[1]))
        np.testing.assert_allclose(np.exp(mix.log_w), want, atol=1e-12)

    def test_predictive_is_weighted_average(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                BayesTreeDensity([-2.0], [2.0], max_depth=4),
            ]
        )
        learn(mix, 0.5)
        w = np.exp(mix.log_w)
        per = [math.exp(score(c, 0.1)) for c in mix.components]
        assert math.exp(score(mix, 0.1)) == pytest.approx(
            float(w @ per), rel=1e-12
        )

    def test_out_of_support_component_is_skipped(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                BayesTreeDensity([-1.0], [1.0], max_depth=4),
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            learn(mix, 5.0)  # outside the tree's box, inside the normal
        np.testing.assert_allclose(np.exp(mix.log_w), [1.0, 0.0], atol=1e-300)
        assert np.isfinite(score(mix, 0.0))

    def test_all_out_of_support(self):
        mix = MixtureLocal([BayesTreeDensity([-1.0], [1.0], max_depth=4)])
        with pytest.raises(OutOfSupport, match=r"\[5\.0\] outside"):  # the component's reason
            learn(mix, 5.0)

    def test_round_trip(self):
        mix = MixtureLocal(
            [
                NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
                BayesTreeDensity([-3.0], [3.0], max_depth=4),
            ]
        )
        ys = [0.2, -0.4, 1.0]
        for y in ys:
            learn(mix, y)
        mix2 = refilled(mix, ys)
        assert score(mix2, 0.3) == score(mix, 0.3)

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
                before = score(model, y)
                if kind.startswith("tree") or kind == "mixture":
                    tree = model if kind != "mixture" else model.components[1]
                    assert learn(model, y) == pytest.approx(before, rel=0, abs=query_bound(tree))
                else:
                    assert learn(model, y) == before

    @pytest.mark.parametrize("kind", ["tree-dim1", "mixture"])
    def test_rejected_update_changes_nothing(self, kind):
        make, draw = FUSED_CASES[kind]
        model = make()
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(20):
                learn(model, draw(rng))
        before = model.state_dict(), local_trees(model)
        with pytest.raises(BadConfig):
            learn(model, float("nan"))
        if kind != "mixture":  # the normal component supports every y
            with pytest.raises(OutOfSupport):
                learn(model, 50.0)
        assert (model.state_dict(), local_trees(model)) == before

    @pytest.mark.parametrize("upper", [[2.0], [1.0, 2.0]])
    def test_tree_rebuilt_from_state_is_bit_identical(self, upper):
        lo = np.zeros(len(upper))
        bt = BayesTreeDensity(lo, upper, max_depth=10)
        rng = np.random.default_rng(13)
        ys = rng.beta(2.0, 5.0, size=(200, len(upper))) * np.asarray(upper)
        for y in ys:
            learn(bt, y)
        clone = refilled(bt, ys)
        assert clone.log_evidence == bt.log_evidence
        axes = [np.linspace(0.0, hi, 9) for hi in upper]
        for q in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(upper)):
            assert score(clone, q) == score(bt, q)


    @pytest.mark.parametrize("max_depth", [70, 200])
    def test_tree_rebuilt_where_ys_part_past_one_route_word(self, max_depth):
        """ys that share their cells deeper than 64 levels, and ys held
        more than once, whose routes the rebuild walks to ``max_depth``."""
        bt = BayesTreeDensity([0.0], [1.0], max_depth=max_depth)
        ys = [[0.0], [2.0**-66], [2.0**-67], [0.3], [2.0**-67], [2.0**-150], [1.0], [1.0]]
        for y in ys:
            learn(bt, y)
        clone = refilled(bt, ys)
        assert tree_nodes(clone) == tree_nodes(bt)
        for q in [0.0, 2.0**-70, 2.0**-67, 2.0**-66, 0.3, 0.5, 1.0]:
            assert score(clone, q) == score(bt, q)


def test_numbers_and_numeric_arrays_build_as_before():
    assert DirichletMultinomial(3, np.array([0.5, 1.0, 2.0])).alpha == [0.5, 1.0, 2.0]
    assert DirichletMultinomial(2, 1).alpha == [1.0, 1.0]
    nw = NormalWishart(np.zeros(2), kappa0=np.float64(2.0), nu0=4, scale=[[1, 0], [0, 1]])
    assert nw.prior() == NormalWishart([0.0, 0.0], 2.0, 4.0, np.eye(2)).prior()
    mix = MixtureLocal([NormalWishart([0.0]), NormalWishart([1.0])], np.log([0.25, 0.75]))
    assert mix.log_w == pytest.approx([math.log(0.25), math.log(0.75)])


def test_the_default_concentration_is_krichevsky_trofimov():
    assert DirichletMultinomial(3).alpha == [0.5] * 3


def route_code(route):
    """The integer whose bits, highest first, are the sides of a route
    from ``prepare``."""
    code = 0
    for _, _, side in route:
        code = 2 * code + side
    return code


# a y's coordinates as fractions of its box's widths: dyadic ones that
# land on the partition's cell edges and faces, others, and ones outside
fractions = st.one_of(
    st.integers(0, 16).map(lambda k: k / 16),
    st.floats(0.0, 1.0),
    st.sampled_from([-0.25, 1.5]),
)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("max_depth", [0, 1, 4, 12, 70])
@given(
    picks=st.lists(st.lists(fractions, min_size=3, max_size=3), max_size=12),
    copies=st.lists(st.integers(0, 11), max_size=4),
    skip_outside=st.booleans(),
)
def test_a_block_key_holds_the_route_of_its_y(dim, max_depth, picks, copies, skip_outside):
    """Past the index field, the key of each in-box y of a block is the
    code of ``prepare``'s route, to ``max_depth``, copies included; a y
    outside the box has no key, or is refused. A lone y in the box is not
    routed: its key is its index."""
    lo, hi = [-1.0, 0.0, 2.0][:dim], [2.0, 0.5, 6.0][:dim]
    ys = [tuple(a + f * (b - a) for a, b, f in zip(lo, hi, pick)) for pick in picks]
    ys += [ys[i] for i in copies if i < len(ys)]
    bt = BayesTreeDensity(lo, hi, max_depth=max_depth)
    prepared = [bt.prepare(y) for y in ys]
    inside = sum(p[1] for p in prepared)
    if not skip_outside and inside < len(ys):
        with pytest.raises(BadConfig, match="outside the tree's y box"):
            bt.prepare_block(ys)
        return
    keys, block_ys, top_bit, mask = bt.prepare_block(ys, skip_outside)
    shift = len(ys).bit_length()
    assert block_ys is ys and top_bit == shift + max_depth - 1 and mask == (1 << shift) - 1
    for i, (key, (_, held, route)) in enumerate(zip(keys, prepared)):
        if not held:
            assert key is None
            continue
        assert key & mask == i
        assert key >> shift == (route_code(route) if inside > 1 else 0)


def reference_terms(bt, depth, n, nl, left, right):
    """The stop and split terms of a tree node's value, in log space, as
    the recursion states them; below ``max_depth``."""
    uniform = -n * bt._log_vol[depth]
    log_beta = bt._lg_a[nl] + bt._lg_a[n - nl] - bt._lg_2a[n]
    return bt._log_gamma + uniform, bt._log_split + log_beta - bt._log_beta0 + left + right


def refit_one(bt, depth, n, kids=None):
    """``_refit`` of the root of a tree whose lists hold only it, at
    ``depth``, and its children, if any: ``kids`` is (nl, left, right),
    the left child's count and the two children's log values. Returns
    the root's value and stop pair."""
    if kids is None:
        bt._n, bt._kid, bt._lam = [n], [0], [0.0]
    else:
        nl, left, right = kids
        bt._n, bt._kid, bt._lam = [n, nl, n - nl], [1, 0, 0], [0.0, left, right]
    bt._g, bt._h = [0.0] * len(bt._n), [0.0] * len(bt._n)
    bt._refit([0], [depth])
    return bt._lam[0], bt._g[0], bt._h[0]


class TestRefit:
    """The node rule that ``_refit`` and ``update`` write out inline."""

    @given(
        dim=st.integers(1, 3),
        width=st.floats(0.01, 100.0),
        max_depth=st.integers(0, 30),
        depth_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 500),
        nl_frac=st.floats(0.0, 1.0),
        left=st.floats(-1e4, 1e4),
        right=st.floats(-1e4, 1e4),
        equal=st.booleans(),
    )
    def test_inline_logaddexp_is_the_logaddexp_form(
        self, dim, width, max_depth, depth_frac, n, nl_frac, left, right, equal
    ):
        bt = BayesTreeDensity([0.0] * dim, [width] * dim, gamma=0.3, branch_pseudo=0.7,
                              max_depth=max_depth)
        bt._grow_tables(n)
        depth, nl = int(depth_frac * max_depth), int(nl_frac * n)
        if equal and depth < max_depth:
            # the two terms equal: the split term's prefix cancels to 0.0
            stop, prefix = reference_terms(bt, depth, n, nl, 0.0, 0.0)
            left, right = -prefix, stop
            assert refit_one(bt, depth, n, (nl, left, right)) == (right + LOG2, 0.5, 0.5)
        if depth == max_depth:
            # a leaf, uniform on its box; it keeps no stop pair, since
            # a query's walk ends there with the whole weight
            assert refit_one(bt, depth, n) == (-n * bt._log_vol[depth], 0.0, 0.0)
            return
        value, g, h = refit_one(bt, depth, n, (nl, left, right))
        a, b = reference_terms(bt, depth, n, nl, left, right)
        assert value == logaddexp(a, b)
        # The pair to a relative 1e-14 beyond the rounding of the
        # references' own exponents, a - value and b - value, which is
        # an ulp of the larger operand; abs_tol covers subnormal results.
        rel = 1e-14 + 2.0**-52 * (abs(a) + abs(b) + abs(value))
        assert math.isclose(g, math.exp(a - value), rel_tol=rel, abs_tol=1e-300)
        assert math.isclose(h, math.exp(b - value), rel_tol=rel, abs_tol=1e-300)
        assert math.isclose(g + h, 1.0, rel_tol=1e-15)

    @given(
        nl=st.integers(0, 50),
        c=st.integers(1, 50),
        left=st.floats(-1e4, 1e4),
        equal=st.booleans(),
    )
    def test_update_writes_out_the_same_rule(self, nl, c, left, equal):
        """``update``'s copy of the rule gives the root of a depth-1 tree
        the value and stop pair ``_refit`` gives it, for any value of
        the child y does not land in, the a == b case included: on the
        unit box the stop term is log gamma itself, which the test sets
        to the split term."""
        bt = BayesTreeDensity([0.0], [1.0], max_depth=1)
        n = nl + c + 1
        bt._grow_tables(n)
        right = -(c + 1) * bt._log_vol[1]  # the right child's value once y is in
        if equal:
            left = -reference_terms(bt, 0, n, nl, 0.0, 0.0)[1]
            bt._log_gamma = right
        want = refit_one(bt.spawn(), 0, n, (nl, left, right))
        bt._n, bt._kid, bt._lam = [nl + c, nl, c], [1, 0, 0], [0.0, left, 0.0]
        bt._g, bt._h, bt._pt = [0.0] * 3, [0.0] * 3, [0.0] * 3
        bt.update(bt.prepare([0.75]))
        assert (bt._lam[0], bt._g[0], bt._h[0]) == want
        if equal:
            assert want == (right + LOG2, 0.5, 0.5)


class MaterialisedTree:
    """The tree density as it was before singleton leaves, kept as a
    reference: every point materialises its whole chain of nodes down
    to max_depth, every node routes by its own box with ``np.argmax``,
    and ``math.lgamma`` is called at every node. Nodes are dicts."""

    def __init__(self, lower, upper, gamma=0.5, branch_pseudo=0.5, max_depth=12):
        box = Box(lower, upper)
        self.lower, self.upper = list(box.lower), list(box.upper)
        self.gamma, self.a, self.max_depth = float(gamma), float(branch_pseudo), max_depth
        log_vol0 = math.log(box.volume())
        self.log_vol = [log_vol0 - k * math.log(2.0) for k in range(max_depth + 1)]
        self.log_gamma = math.log(self.gamma)
        self.log_split = math.log1p(-self.gamma)
        self.log_beta0 = 2.0 * math.lgamma(self.a) - math.lgamma(2.0 * self.a)
        self.root = {"n": 0, "lam": 0.0, "kids": None}

    def _loglam(self, depth, n, nl, left, right):
        uniform = -n * self.log_vol[depth]
        if depth == self.max_depth:
            return uniform
        a = self.a
        log_beta = math.lgamma(a + nl) + math.lgamma(a + (n - nl)) - math.lgamma(2.0 * a + n)
        return logaddexp(
            self.log_gamma + uniform,
            self.log_split + log_beta - self.log_beta0 + left + right,
        )

    def _value(self, node, depth, lo, hi, y, grow):
        """Log value of ``node`` (None: not materialised) with y added;
        ``grow`` adds y to the nodes on its path."""
        n = (node["n"] if node else 0) + 1
        if depth == self.max_depth:
            value = self._loglam(depth, n, 0, 0.0, 0.0)
        else:
            d = int(np.argmax(np.subtract(hi, lo)))
            mid = 0.5 * (lo[d] + hi[d])
            side = 0 if y[d] < mid else 1
            lo, hi = list(lo), list(hi)
            (lo if side else hi)[d] = mid
            if grow and node["kids"] is None:
                node["kids"] = [{"n": 0, "lam": 0.0, "kids": None} for _ in range(2)]
            kids = node["kids"] if node else None
            nl, other = (kids[0]["n"], kids[1 - side]["lam"]) if kids else (0, 0.0)
            new = self._value(kids[side] if kids else None, depth + 1, lo, hi, y, grow)
            if side == 0:
                value = self._loglam(depth, n, nl + 1, new, other)
            else:
                value = self._loglam(depth, n, nl, other, new)
        if grow:
            node["n"], node["lam"] = n, value
        return value

    @property
    def log_evidence(self):
        return self.root["lam"]

    def log_predictive(self, y):
        return self._value(self.root, 0, self.lower, self.upper, list(y), False) - self.root["lam"]

    def update(self, y):
        old = self.root["lam"]
        return self._value(self.root, 0, self.lower, self.upper, list(y), True) - old

    def sample(self, rng):
        lo, hi = np.array(self.lower), np.array(self.upper)
        node = self.root
        for depth in range(self.max_depth):
            n, lam = (node["n"], node["lam"]) if node else (0, 0.0)
            stop = math.exp(self.log_gamma - n * self.log_vol[depth] - lam)
            if rng.uniform() < min(stop, 1.0):
                break
            kids = node["kids"] if node else None
            p_hi = (self.a + kids[1]["n"]) / (2 * self.a + n) if kids else 0.5
            d = int(np.argmax(hi - lo))
            mid = 0.5 * (lo[d] + hi[d])
            side = int(rng.uniform() < p_hi)
            (lo if side else hi)[d] = mid
            node = kids[side] if kids else None
        y = rng.uniform(lo, hi)
        return y if len(lo) > 1 else float(y[0])


def query_bound(bt):
    """How far a tree's query may lie from the log-difference form of
    ``MaterialisedTree`` and of ``update``'s return. That form subtracts
    two root values, each summed over max_depth + 1 levels from terms of
    size up to (n + 1) (|log vol| + log(n + 2)) for n points (volume
    and log-Beta terms), and keeps their rounding: 1e-15 per unit of
    size per level here, while the most measured is 1.3e-16. The
    query's own rounding is under 1e-13."""
    n = bt.n_seen
    size = (n + 1) * (max(abs(bt._log_vol[0]), abs(bt._log_vol[-1])) + math.log(n + 2))
    return 1e-13 + 1e-15 * size * (bt.max_depth + 1)


def decimal_lam(points, lo, hi, depth, top, vol, gamma):
    """The value of a node with box [lo, hi] and volume ``vol`` at
    ``depth`` that holds ``points``, in ``Decimal``, for branch_pseudo 1:
    B(1 + nL, 1 + nR) / B(1, 1) = nL! nR! / (n + 1)!. The node's cells
    are cut by ``cut`` on floats, as the tree cuts them."""
    n = len(points)
    if not n:
        return Decimal(1)
    uniform = vol**-n
    if depth == top:
        return uniform
    d, mid = cut(lo, hi)
    left = [p for p in points if p[d] < mid]
    right = [p for p in points if not p[d] < mid]
    llo, lhi, rlo, rhi = list(lo), list(hi), list(lo), list(hi)
    lhi[d] = rlo[d] = mid
    beta = Decimal(math.factorial(len(left)) * math.factorial(len(right)))
    beta /= math.factorial(n + 1)
    half = vol / 2
    return gamma * uniform + (1 - gamma) * beta * decimal_lam(
        left, llo, lhi, depth + 1, top, half, gamma
    ) * decimal_lam(right, rlo, rhi, depth + 1, top, half, gamma)


def decimal_log_predictive(points, q, lo, hi, gamma, max_depth):
    """The log predictive at q of a tree with branch_pseudo 1 that holds
    ``points``, as the ratio of two root values, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = [float(v) for v in lo], [float(v) for v in hi]
        vol = math.prod(Decimal(b) - Decimal(a) for a, b in zip(lo, hi))
        gamma = Decimal(gamma)
        points = [[float(v) for v in p] for p in points]
        before = decimal_lam(points, lo, hi, 0, max_depth, vol, gamma)
        after = decimal_lam(points + [[float(v) for v in q]], lo, hi, 0, max_depth, vol, gamma)
        return float((after / before).ln())


def tree_points(rng, lo, hi, n):
    """n points in the box [lo, hi]: uniform ones, repeats of earlier
    ones, points on the box's faces and on dyadic split midpoints."""
    out = []
    for _ in range(n):
        kind = rng.integers(4)
        if kind == 1 and out:
            y = out[int(rng.integers(len(out)))]
        elif kind == 2:
            y = rng.uniform(lo, hi)
            k = int(rng.integers(len(lo)))
            y[k] = (lo, hi)[int(rng.integers(2))][k]
        elif kind == 3:
            levels = 2 ** rng.integers(1, 6, size=len(lo))
            y = lo + (hi - lo) * rng.integers(0, levels + 1) / levels
        else:
            y = rng.uniform(lo, hi)
        out.append(np.array(y, dtype=float))
    return out


DIFF_CASES = [(dim, depth) for dim in (1, 2, 3) for depth in (0, 1, 3, 12)]


def tree_pair(dim, max_depth, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, size=dim)
    hi = lo + rng.uniform(0.5, 3.0, size=dim)
    kw = dict(gamma=float(rng.uniform(0.2, 0.8)), branch_pseudo=0.7, max_depth=max_depth)
    return rng, lo, hi, MaterialisedTree(lo, hi, **kw), BayesTreeDensity(lo, hi, **kw)


def assert_query_close(bt, got, want):
    assert got == pytest.approx(want, rel=0, abs=query_bound(bt))


class TestTreeAgainstMaterialised:
    """Singleton leaves, the one-point table and the lgamma tables change
    how the tree stores and computes, never a value: every update,
    evidence, sample and state is ``==``. A query reads the kept stop
    pairs instead of taking the reference's difference of two root
    values, so it agrees with the reference to ``query_bound``."""

    @pytest.mark.parametrize("dim,max_depth", DIFF_CASES)
    def test_updates_and_predictives_are_identical(self, dim, max_depth):
        rng, lo, hi, ref, bt = tree_pair(dim, max_depth, 100 * dim + max_depth)
        queries = tree_points(rng, lo, hi, 150)
        held = []
        for y, q in zip(tree_points(rng, lo, hi, 150), queries):
            assert_query_close(bt, score(bt, q), ref.log_predictive(q))
            if held:
                # a point the tree holds shares a singleton's whole chain
                h = held[int(rng.integers(len(held)))]
                assert_query_close(bt, score(bt, h), ref.log_predictive(h))
            assert learn(bt, y) == ref.update(y)
            held.append(y)
        assert bt.log_evidence == ref.log_evidence

    @pytest.mark.parametrize("dim,max_depth", DIFF_CASES)
    def test_samples_are_identical(self, dim, max_depth):
        rng, lo, hi, ref, bt = tree_pair(dim, max_depth, 7 + dim + max_depth)
        for y in tree_points(rng, lo, hi, 40):
            ref.update(y)
            learn(bt, y)
        draws_ref, draws_bt = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(200):
            assert np.array_equal(bt.sample(draws_bt), ref.sample(draws_ref))

    @pytest.mark.parametrize("dim,max_depth", DIFF_CASES)
    def test_state_round_trip_is_bit_identical(self, dim, max_depth):
        rng, lo, hi, ref, bt = tree_pair(dim, max_depth, 31 * dim + max_depth)
        ys = tree_points(rng, lo, hi, 80)
        for y in ys:
            learn(bt, y)
        clone = refilled(bt, ys)
        assert clone.state_dict() == bt.state_dict()
        assert tree_nodes(clone) == tree_nodes(bt)
        assert clone.log_evidence == bt.log_evidence
        for y in tree_points(rng, lo, hi, 60):
            assert score(clone, y) == score(bt, y)
            assert learn(clone, y) == learn(bt, y)

    @pytest.mark.parametrize("dim,max_depth", DIFF_CASES)
    def test_materialised_snapshots_load_and_keep_updating(self, dim, max_depth):
        """A tree a load lays out from the reference's points, with no
        update of its own, has the reference's values and keeps them."""
        rng, lo, hi, ref, fresh = tree_pair(dim, max_depth, 17 * dim + max_depth)
        ys = tree_points(rng, lo, hi, 80)
        for y in ys:
            ref.update(y)
        bt = refilled(fresh, ys)
        assert bt.log_evidence == ref.log_evidence
        for y in tree_points(rng, lo, hi, 60):
            assert_query_close(bt, score(bt, y), ref.log_predictive(y))
            assert learn(bt, y) == ref.update(y)

    @pytest.mark.parametrize("dim,max_depth", [(d, t) for d in (1, 2, 3) for t in (0, 1, 4, 12)])
    def test_queries_match_a_decimal_oracle(self, dim, max_depth):
        """Against the recursion in 50-digit ``Decimal`` with
        branch_pseudo 1, whose log-Beta terms are log-factorials: the
        query to 1e-13, while the reference's difference of two root
        values is allowed its own ``query_bound``. Repeated points,
        points on the box's faces and on dyadic midpoints, held points
        and fresh ones."""
        rng = np.random.default_rng(dim * 100 + max_depth)
        lo = rng.uniform(-2.0, 0.0, size=dim)
        hi = lo + rng.uniform(0.5, 3.0, size=dim)
        kw = dict(gamma=float(rng.uniform(0.2, 0.8)), branch_pseudo=1.0, max_depth=max_depth)
        ref, bt = MaterialisedTree(lo, hi, **kw), BayesTreeDensity(lo, hi, **kw)
        held = tree_points(rng, lo, hi, 60)
        for y in held:
            ref.update(y)
            learn(bt, y)
        for q in tree_points(rng, lo, hi, 15) + held[:5]:
            want = decimal_log_predictive(held, q, lo, hi, kw["gamma"], max_depth)
            assert abs(score(bt, q) - want) <= 1e-13
            assert abs(ref.log_predictive(q) - want) <= query_bound(bt)

    def test_a_query_at_the_deepest_max_depth_is_finite(self):
        """At max_depth 2100 * dim many duplicates make the walk's product
        grow by nearly 2 per level, past any float, so it is rescaled."""
        lo, hi = [0.0], [1e308]
        kw = dict(gamma=0.5, branch_pseudo=1.0, max_depth=2100)
        ref, bt = MaterialisedTree(lo, hi, **kw), BayesTreeDensity(lo, hi, **kw)
        held = [[0.0]] * 40 + [[1e300], [5.0], [2.0**-1000]]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))  # the reference recurses per level
        try:
            for y in held:
                assert learn(bt, y) == ref.update(y)
            for q in ([0.0], [2.0**-1000], [3.0], [1e300]):
                got = score(bt, q)
                assert math.isfinite(got)
                assert_query_close(bt, got, ref.log_predictive(q))
                want = decimal_log_predictive(held, q, lo, hi, kw["gamma"], kw["max_depth"])
                # 1e-13, or an ulp or two of a result above 512
                assert abs(got - want) <= 1e-13 + 2.0**-51 * abs(want)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_query_down_the_deepest_one_point_chain_is_rescaled(self):
        """At max_depth 2100 * dim a singleton's one-point chain is 4200
        levels long in 2-d. With gamma 0.01 the walk's product grows by
        4 (1 - gamma) / 3, about 1.32, per level down it, and passes
        1e300 after about 2490 levels, so it is rescaled."""
        lo, hi, gamma, max_depth = [0.0, 0.0], [1.0, 1.0], 0.01, 4200
        bt = BayesTreeDensity(lo, hi, gamma=gamma, branch_pseudo=1.0, max_depth=max_depth)
        held = [[0.3, 0.3]]
        learn(bt, held[0])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))  # the reference recurses per level
        try:
            for q in ([0.3, 0.3], [0.3, math.nextafter(0.3, 1.0)], [0.7, 0.3]):
                got = score(bt, q)
                want = decimal_log_predictive(held, q, lo, hi, gamma, max_depth)
                # 1e-13, or an ulp or two of a result above 512
                assert abs(got - want) <= 1e-13 + 2.0**-51 * abs(want)
        finally:
            sys.setrecursionlimit(limit)

    def test_nodes_follow_what_points_distinguish(self):
        bt = BayesTreeDensity([0.0], [1.0], max_depth=12)
        learn(bt, [0.3])
        assert len(bt._n) == 1  # the root keeps the point
        learn(bt, [0.8])  # parts from 0.3 at the root
        assert len(bt._n) == 3
        learn(bt, [0.8])  # a duplicate shares every cell down to max_depth
        assert len(bt._n) == 3 + 2 * 11
        # the root, which has children, then the left child: a singleton
        # whose point is the only one kept
        nodes = tree_nodes(bt)
        assert [node[:3] for node in nodes[:2]] == [(3, True, None), (1, False, [0.3])]
        assert [node[2] for node in nodes] == [None, [0.3]] + [None] * 23


def _buffered(y):
    """y as a kd cover buffers it: a tuple of floats."""
    return tuple(np.asarray(y, dtype=float).reshape(-1).tolist())


def _assert_marginal_close(block, sequential):
    assert block == pytest.approx(sum(sequential), rel=1e-12, abs=1e-12)


def _nw_tree_mixture(log_weights=None):
    return MixtureLocal(
        [
            NormalWishart([0.0], kappa0=1.0, nu0=3.0, scale=[[1.0]]),
            BayesTreeDensity([-3.0], [3.0], max_depth=6),
        ],
        log_weights,
    )


class TestAbsorbBlock:
    """``absorb_block`` on a fresh local leaves the state ``update`` on
    each y in turn leaves, bit for bit, and returns the sum of the
    updates' returns up to rounding."""

    @given(
        alphabet=st.integers(2, 5),
        concentration=st.sampled_from([0.5, 1.0, 0.3]),
        stream=st.lists(st.integers(0, 4), max_size=60),
    )
    def test_dirichlet(self, alphabet, concentration, stream):
        ys = [s % alphabet for s in stream]
        seq = DirichletMultinomial(alphabet, concentration)
        block = DirichletMultinomial(alphabet, concentration)
        lps = [learn(seq, y) for y in ys]
        _assert_marginal_close(block.absorb_block([_buffered(y) for y in ys]), lps)
        assert (block.counts, block.n_seen) == (seq.counts, seq.n_seen)

    @given(
        dim=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        repeats=st.booleans(),
    )
    def test_normal_wishart(self, dim, seed, n, repeats):
        rng = np.random.default_rng(seed)
        mu0 = rng.normal(size=dim).tolist()
        a = rng.normal(size=(dim, dim))
        kw = dict(
            kappa0=float(rng.uniform(0.1, 3.0)),
            nu0=dim + float(rng.uniform(0.0, 4.0)),
            scale=(a @ a.T + 0.5 * np.eye(dim)).tolist(),
        )
        seq, block = NormalWishart(mu0, **kw), NormalWishart(mu0, **kw)
        ys = rng.normal(size=(n, dim)) * rng.uniform(0.1, 5.0)
        if repeats and n:
            ys = ys[rng.integers(max(1, n // 4), size=n)]
        lps = [learn(seq, y) for y in ys]
        _assert_marginal_close(block.absorb_block([_buffered(y) for y in ys]), lps)
        assert (block.n, block.sum_y, block.sum_yy) == (seq.n, seq.sum_y, seq.sum_yy)
        for q in rng.normal(size=(3, dim)):
            assert score(block, q) == score(seq, q)

    @given(
        dim=st.integers(1, 3),
        max_depth=st.sampled_from([0, 1, 4, 12, 70]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 60),
        copies=st.booleans(),
    )
    @example(dim=1, max_depth=12, seed=1, n=2000, copies=False)
    @example(dim=2, max_depth=12, seed=2, n=2000, copies=False)
    @example(dim=1, max_depth=70, seed=3, n=40, copies=True)
    @example(dim=2, max_depth=70, seed=4, n=500, copies=True)
    def test_tree(self, dim, max_depth, seed, n, copies):
        """Repeated and dyadic-rounded points, and points on cell edges
        (``tree_points``), or with ``copies`` n copies of one y, whose
        cells run to ``max_depth``. The block is split at each cell's
        cut and the updates walk their routes, so both are also held to
        the independent ``MaterialisedTree``; node ids may differ."""
        rng, lo, hi, ref, seq = tree_pair(dim, max_depth, seed)
        block = BayesTreeDensity(
            lo, hi, gamma=seq.gamma, branch_pseudo=seq.branch_pseudo, max_depth=max_depth
        )
        ys = tree_points(rng, lo, hi, n)
        if copies:
            ys = ys[:1] * n
        lps = [learn(seq, y) for y in ys]
        assert [ref.update(y) for y in ys] == lps
        _assert_marginal_close(block.absorb_block([_buffered(y) for y in ys]), lps)
        assert block.log_evidence == seq.log_evidence == ref.log_evidence
        assert tree_nodes(block) == tree_nodes(seq)
        for q in tree_points(rng, lo, hi, 5):
            assert score(block, q) == score(seq, q)
            assert_query_close(seq, score(seq, q), ref.log_predictive(q))
            assert learn(block, q) == learn(seq, q) == ref.update(q)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), outside=st.integers(0, 29))
    def test_mixture_with_an_out_of_box_y(self, seed, n, outside):
        """The tree skips the y outside its box and loses all weight; the
        block warns once, as the updates do."""
        rng = np.random.default_rng(seed)
        ys = rng.uniform(-3.0, 3.0, size=n)
        ys[outside % n] = 4.0 + rng.uniform()
        seq, block = _nw_tree_mixture(), _nw_tree_mixture()
        with warnings.catch_warnings(record=True) as seq_caught:
            warnings.simplefilter("always")
            lps = [learn(seq, y) for y in ys]
        with warnings.catch_warnings(record=True) as block_caught:
            warnings.simplefilter("always")
            got = block.absorb_block([_buffered(y) for y in ys])
        assert len(seq_caught) == len(block_caught) == 1
        assert block_caught[0].category is RuntimeWarning
        _assert_marginal_close(got, lps)
        assert block.log_w[1] == seq.log_w[1] == -math.inf
        assert block.log_w[0] == seq.log_w[0] == 0.0
        (nw, tree), (seq_nw, seq_tree) = block.components, seq.components
        assert (nw.n, nw.sum_y, nw.sum_yy) == (seq_nw.n, seq_nw.sum_y, seq_nw.sum_yy)
        assert tree_nodes(tree) == tree_nodes(seq_tree)

    def test_mixture_weights_follow_the_block_marginals(self):
        ys = [_buffered(y) for y in np.random.default_rng(2).normal(0.0, 0.8, size=15)]
        seq, block = _nw_tree_mixture([0.3, -0.2]), _nw_tree_mixture([0.3, -0.2])
        lps = [learn(seq, y) for y in ys]
        _assert_marginal_close(block.absorb_block(ys), lps)
        assert block.log_w == pytest.approx(seq.log_w, rel=1e-12, abs=1e-12)

    def test_an_empty_block_changes_nothing(self):
        mix = MixtureLocal([NormalWishart([0.0]), BayesTreeDensity([0.0], [1.0])], [0.1, 0.7])
        before = mix.state_dict(), local_trees(mix)
        assert mix.absorb_block([]) == 0.0
        assert (mix.state_dict(), local_trees(mix)) == before

    def test_a_local_that_has_seen_a_point_is_refused(self):
        for local, y in [
            (DirichletMultinomial(2), (1.0,)),
            (NormalWishart([0.0]), (0.5,)),
            (BayesTreeDensity([0.0], [1.0]), (0.5,)),
        ]:
            local.absorb_block([y])
            with pytest.raises(BadConfig):
                local.absorb_block([y])

    def test_a_block_no_component_supports_raises(self):
        mix = MixtureLocal([BayesTreeDensity([0.0], [1.0])])
        with pytest.raises(OutOfSupport):
            mix.absorb_block([(2.0,)])


def _trained_state(kind):
    """A trained local's record, and an empty local with its prior."""
    make = {"dirichlet": lambda: DirichletMultinomial(2), "nw": lambda: NormalWishart([0.0])}[kind]
    local = make()
    ys = {"dirichlet": [0, 0, 1, 1, 1], "nw": np.linspace(-1.0, 1.0, 40)}[kind]
    for y in ys:
        learn(local, y)
    return local.state_dict(), make()


@pytest.mark.parametrize(
    "kind,key,value",
    [
        ("dirichlet", "counts", [1.5, 3.5]),
        ("dirichlet", "counts", [2.0, math.inf]),
        ("nw", "n", 40.9),
        ("nw", "n", "40"),
        ("nw", "n", True),
    ],
)
def test_a_local_record_of_the_wrong_type_is_refused(kind, key, value):
    """Counts that sum right but are not whole and a Normal-Wishart count
    that ``int()`` once truncated used to load."""
    state, fresh = _trained_state(kind)
    local_from_state(state, fresh)  # the untouched record loads
    state[key] = value
    with pytest.raises(BadConfig):
        local_from_state(state, fresh)


# an empty local of each shipped kind, as a model's fresh local
FRESH = {
    "dirichlet": lambda: DirichletMultinomial(3, [0.5, 1.0, 1.5]),
    "nw": lambda: NormalWishart([0.0, 1.0], kappa0=2.0, nu0=4.0, scale=[[2.0, 0.5], [0.5, 1.0]]),
    "tree": lambda: BayesTreeDensity([0.0, -1.0], [1.0, 1.0], gamma=0.4, branch_pseudo=0.6, max_depth=7),
    "mixture": lambda: MixtureLocal([NormalWishart([0.0]), BayesTreeDensity([0.0], [1.0])]),
}


def old_load(record, fresh):
    """A version-3 or version-4 record loaded as a snapshot load takes it."""
    return local_from_state(upgrade_state(record, fresh), fresh)


def load_with_prior(fresh, prior):
    """Load a version-5 snapshot of an empty posterior whose prior is
    ``fresh`` against ``fresh``, with ``prior`` in its header."""
    text = CoverModelPosterior(KdTreeCover(Box([0.0], [1.0])), fresh).to_text()
    head, _, rest = text.partition("\n")
    meta = json.loads(head)
    meta["prior"] = prior
    return CoverModelPosterior.from_text(json.dumps(meta, sort_keys=True) + "\n" + rest, fresh)


def assert_refused_both_ways(fresh, record, prior):
    """A record of another prior is refused in both of the forms it
    can come in: as a version-4 record, which repeats its prior, and as
    the prior in a version-5 header."""
    with pytest.raises(BadConfig, match="another kind or prior"):
        old_load(record, fresh)
    with pytest.raises(BadConfig, match="another kind or prior"):
        load_with_prior(fresh, prior)


@pytest.mark.parametrize(
    "kind,field,value",
    [
        ("dirichlet", "alpha", [0.5, 1.0, 1.25]),
        ("dirichlet", "alpha", [0.5, 1.0]),
        ("nw", "mu0", [0.0, 1.5]),
        ("nw", "kappa0", 1.0),
        ("nw", "nu0", 5.0),
        ("nw", "T0", [[2.0, 0.5], [0.5, 1.5]]),
        ("tree", "lower", [0.0, -2.0]),
        ("tree", "upper", [1.0, 2.0]),
        ("tree", "gamma", 0.5),
        ("tree", "branch_pseudo", 0.5),
        ("tree", "max_depth", 8),
        ("mixture", "components", [BayesTreeDensity([0.0], [1.0]).prior(),
                                   NormalWishart([0.0]).prior()]),
    ],
)
def test_a_record_of_another_prior_is_refused(kind, field, value):
    """A record loads only against a local with its prior: the model's
    fresh local, whose checked values the loaded local shares. A
    version-4 record repeats the prior, a version-5 snapshot holds it
    once, in its header; each is refused with one field edited."""
    fresh = FRESH[kind]()
    record = old_record(fresh.prior(), fresh.state_dict())
    old_load(record, fresh)  # the untouched record loads
    load_with_prior(fresh, fresh.prior())  # and so does the untouched header
    assert_refused_both_ways(fresh, {**record, field: value}, {**fresh.prior(), field: value})


@pytest.mark.parametrize("kind", list(FRESH))
def test_a_record_of_another_kind_is_refused(kind):
    fresh = FRESH[kind]()
    for other in FRESH:
        if other != kind:
            theirs = FRESH[other]()
            record = old_record(theirs.prior(), theirs.state_dict())
            assert_refused_both_ways(fresh, record, theirs.prior())


def test_a_mixture_record_with_another_component_count_is_refused():
    """As a version-4 record or a version-5 header's prior; a version-5
    record, which holds one state and one weight per component, is
    malformed."""
    fresh = FRESH["mixture"]()
    nw, tree = old_record(fresh.prior(), fresh.state_dict())["components"]
    nw_prior, tree_prior = fresh.prior()["components"]
    nw_state, tree_state = fresh.state_dict()["components"]
    for n in (1, 3):
        log_w = [-math.log(n)] * n
        record = {"kind": "mixture", "log_w": log_w, "components": [nw, tree, tree][:n]}
        prior = {"kind": "mixture", "log_w": log_w, "components": [nw_prior, tree_prior, tree_prior][:n]}
        assert_refused_both_ways(fresh, record, prior)
        state = {"log_w": log_w, "components": [nw_state, tree_state, tree_state][:n]}
        with pytest.raises(BadConfig, match="needs 2 components"):
            local_from_state(state, fresh)
