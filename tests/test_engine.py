"""Posterior engine against brute-force enumeration over stopped covers."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from covermodels import (
    BadConfig,
    Box,
    CdeConfig,
    CdeModel,
    CoverModelPosterior,
    DirichletMultinomial,
    KdTreeCover,
    MixtureLocal,
    NormalWishart,
    SuffixTreeCover,
    VmmModel,
    gen_markov,
    gen_mixture,
    new_cde,
    parse_depth_weight,
)
from covermodels.logspace import log1mexp, logsumexp
from conftest import as_version, attach_random_engine, random_static_tree, random_xy
from oracle import (
    ExactEnumerator,
    decimal_walk_predictive,
    dirichlet_block_marginal,
    normal_wishart_block_marginal,
)


class TestDepthWeight:
    def test_const(self):
        tag, fn = parse_depth_weight("const:0.3")
        assert fn(1) == fn(7) == 0.3

    def test_geometric(self):
        tag, fn = parse_depth_weight("2^-k")
        assert fn(1) == 0.5 and fn(3) == 0.125

    def test_bare_number(self):
        _, fn = parse_depth_weight(0.25)
        assert fn(2) == 0.25

    def test_rejects_garbage(self):
        with pytest.raises(BadConfig):
            parse_depth_weight("linear")
        with pytest.raises(BadConfig):
            parse_depth_weight("const:1.5")


class TestAgainstEnumeration:
    """Randomized static trees, checked after every absorb."""

    def run_one(self, seed, kind):
        rng = np.random.default_rng(seed)
        cov = random_static_tree(rng)
        post, oracle = attach_random_engine(rng, cov, kind)
        data = []
        for _ in range(int(rng.integers(4, 13))):
            x, y = random_xy(rng, cov, kind)
            data.append((x, y))
            post.absorb(x, y)
            # pointwise predictive agreement at fresh probes
            for _ in range(3):
                xq, yq = random_xy(rng, cov, kind)
                got = post.predict_logdensity(xq, yq)
                want = oracle.log_predictive(data, xq, yq)
                assert got == pytest.approx(want, abs=1e-10), (seed, kind)
            assert post.log_marginal_likelihood() == pytest.approx(
                oracle.log_evidence(data), abs=1e-10
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_dirichlet_locals(self, seed):
        self.run_one(seed, "dirichlet")

    @pytest.mark.parametrize("seed", range(6, 12))
    def test_normal_wishart_locals(self, seed):
        self.run_one(seed, "nw")

    @given(
        seed=st.integers(0, 2**32 - 1),
        alphabet=st.integers(2, 5),
        concentration=st.sampled_from([0.5, 1.0, 0.3]),
    )
    def test_stop_weights_set_before_a_stream(self, seed, alphabet, concentration):
        """``set_w0`` moves the cached log(w0) and log(1 - w0) with w0:
        every context's weight is redrawn before a stream, and the
        engine agrees with enumeration under the new weights."""
        rng = np.random.default_rng(seed)
        cov = random_static_tree(rng)
        post, oracle = attach_random_engine(rng, cov, "dirichlet", alphabet, concentration)
        data = []
        for _ in range(int(rng.integers(1, 9))):
            x, y = random_xy(rng, cov, "dirichlet", alphabet)
            data.append((x, y))
            post.absorb(x, y)
        xq, yq = random_xy(rng, cov, "dirichlet", alphabet)
        assert post.predict_logdensity(xq, yq) == pytest.approx(
            oracle.log_predictive(data, xq, yq), abs=1e-10
        )
        assert post.log_marginal_likelihood() == pytest.approx(oracle.log_evidence(data), abs=1e-10)

    def test_stop_posteriors(self):
        rng = np.random.default_rng(42)
        cov = random_static_tree(rng, max_extra_splits=4)
        post, oracle = attach_random_engine(rng, cov, "dirichlet")
        data = []
        for _ in range(8):
            x, y = random_xy(rng, cov)
            data.append((x, y))
            post.absorb(x, y)
        for cid in cov.contexts:
            got = post.stop_posterior(cid)
            want = oracle.stop_posterior(data, cid)
            assert got == pytest.approx(want, abs=1e-10), cid


class TestPrequential:
    def test_sum_of_predictives_is_evidence(self):
        rng = np.random.default_rng(7)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov, "dirichlet")
        total = 0.0
        for _ in range(20):
            x, y = random_xy(rng, cov)
            total += post.absorb(x, y)
        assert total == pytest.approx(post.log_marginal_likelihood(), abs=1e-12)
        assert total == pytest.approx(post.log_evidence, abs=1e-12)

    def test_absorb_returns_pre_update_predictive(self):
        rng = np.random.default_rng(17)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov, "dirichlet")
        x, y = random_xy(rng, cov)
        before = post.predict_logdensity(x, y)
        assert post.absorb(x, y) == before


class TestLocality:
    def test_absorb_touches_only_the_match_path(self):
        rng = np.random.default_rng(23)
        cov = random_static_tree(rng, max_extra_splits=6, dim=1)
        post, _ = attach_random_engine(rng, cov, "dirichlet")
        for _ in range(6):
            post.absorb(*random_xy(rng, cov))
        x, y = random_xy(rng, cov)
        on_path = set(cov.match_levels(x))
        before = {c: post.log_m[c] for c in cov.contexts}
        post.absorb(x, y)
        for c in cov.contexts:
            if c in on_path:
                continue
            assert post.log_m[c] == before[c]


class TestReplayGrowth:
    def test_grown_tree_equals_fresh_enumeration(self):
        """Splits triggered by data must look as if they always existed."""
        rng = np.random.default_rng(3)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=5)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        data = []
        for i in range(40):
            x = rng.uniform(0, 1, size=1)
            y = int(rng.integers(2))
            data.append((x, y))
            post.absorb(x, y)
            if i in (5, 15, 39):
                w0 = {c: post.w0[c] for c in cov.contexts}
                oracle = ExactEnumerator(cov, w0, dirichlet_block_marginal(2, 0.5))
                assert post.log_marginal_likelihood() == pytest.approx(
                    oracle.log_evidence(data), abs=1e-10
                )
                xq = rng.uniform(0, 1, size=1)
                assert post.predict_logdensity(xq, 1) == pytest.approx(
                    oracle.log_predictive(data, xq, 1), abs=1e-10
                )
        assert cov.refinement_depth >= 2  # the cascade actually fired

    @pytest.mark.parametrize("y_dim", [1, 2])
    def test_grown_tree_with_normal_wishart_locals_equals_fresh_enumeration(self, y_dim):
        """A split's children take their blocks as closed-form
        Normal-Wishart marginals, which must give the enumeration's
        evidence and predictives of the grown tree."""
        rng = np.random.default_rng(11 + y_dim)
        prior = dict(kappa0=0.7, nu0=y_dim + 1.5, scale=0.3 * np.eye(y_dim) + 0.1)
        mu0 = [0.2] * y_dim
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=1.5, max_depth=5)
        post = CoverModelPosterior(cov, NormalWishart(mu0, **prior), depth_weight="2^-k")
        data = []
        for i in range(40):
            x = rng.uniform(0, 1, size=2)
            y = x[:y_dim] + rng.normal(0.0, 0.2, size=y_dim)
            data.append((x, y))
            post.absorb(x, y)
            if i in (4, 17, 39):
                w0 = {c: post.w0[c] for c in cov.contexts}
                oracle = ExactEnumerator(cov, w0, normal_wishart_block_marginal(mu0, **prior))
                assert post.log_marginal_likelihood() == pytest.approx(
                    oracle.log_evidence(data), abs=1e-10
                )
                xq, yq = rng.uniform(0, 1, size=2), rng.normal(0.5, 0.3, size=y_dim)
                assert post.predict_logdensity(xq, yq) == pytest.approx(
                    oracle.log_predictive(data, xq, yq), abs=1e-10
                )
        assert cov.refinement_depth >= 3  # splits, replays and a cascade fired

    def test_absorb_descends_the_tree_once(self, monkeypatch):
        """The leaf that buffers a point is the end of its matched path."""
        calls = []
        descend = KdTreeCover.descend
        monkeypatch.setattr(
            KdTreeCover, "descend", lambda self, x: calls.append(1) or descend(self, x)
        )
        rng = np.random.default_rng(8)
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=2.0, max_depth=6)
        post = CoverModelPosterior(cov, DirichletMultinomial(2, 0.5))
        for _ in range(50):
            post.absorb(rng.uniform(0, 1, size=2), int(rng.integers(2)))
        assert len(calls) == 50
        assert sum(map(len, cov._buffer.values())) == 50


def _assert_lambdas_equal_a_full_refresh(post):
    fresh = copy.deepcopy(post)
    fresh._refresh_all()
    for cid, lam in enumerate(post.log_lambda):
        assert lam == fresh.log_lambda[cid], cid


class TestRefreshAfterAbsorb:
    """One absorb refreshes exactly the subtree evidence a full
    bottom-up pass would give, children before parents."""

    def test_kd_stream_with_cascading_splits(self):
        rng = np.random.default_rng(6)
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=1.2, max_depth=12)
        post = CoverModelPosterior(
            cov, DirichletMultinomial(2, 0.5), depth_weight="2^-k"
        )
        jumps = []
        for _ in range(60):
            # clustered near one corner, so one split can force the next
            x = rng.uniform(0.0, 0.05, size=2)
            before = cov.deepest_depth
            post.absorb(x, int(rng.integers(2)))
            jumps.append(cov.deepest_depth - before)
            _assert_lambdas_equal_a_full_refresh(post)
        assert max(jumps) >= 2  # some absorb split two levels at once

    def test_vmm_stream(self):
        model = VmmModel(alphabet_size=3, depth=4)
        for s in np.random.default_rng(7).integers(3, size=120).tolist():
            model.observe(s)
            _assert_lambdas_equal_a_full_refresh(model.posterior)


def _assert_stop_pairs_kept(post):
    """Every context keeps the (log g, log(1 - g)) recomputed from its
    log_w0, log_m and log_lambda, bit for bit."""
    for cid in range(len(post.local)):
        lg = min(0.0, post.log_w0[cid] + post.log_m[cid] - post.log_lambda[cid])
        assert (post.log_g[cid], post.log1m_g[cid]) == (lg, log1mexp(lg)), cid


def _assert_same_stop_pairs(post, other):
    assert len(other.local) == len(post.local)
    for cid in range(len(post.local)):
        assert (other.log_g[cid], other.log1m_g[cid]) == (post.log_g[cid], post.log1m_g[cid])


class TestKeptStopPairs:
    """The stop pair each context keeps is the one its evidence gives,
    after every absorb, split, suffix extension, load, copy and
    ``set_w0``."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), cut=st.integers(0, 40))
    def test_kd_replay_splits_and_load(self, seed, n, cut):
        rng = np.random.default_rng(seed)
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=1.5, max_depth=8)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        _assert_stop_pairs_kept(post)
        stream = [(rng.uniform(0.0, 1.0, size=2), int(rng.integers(2))) for _ in range(n)]
        for i, (x, y) in enumerate(stream):
            if i == cut:
                # a loaded copy keeps the same pairs, and continues to
                post = CoverModelPosterior.from_text(post.to_text(), prior)
                _assert_stop_pairs_kept(post)
            post.absorb(x, y)
            _assert_stop_pairs_kept(post)
        loaded = CoverModelPosterior.from_text(post.to_text(), prior)
        _assert_same_stop_pairs(post, loaded)

    @given(
        alphabet=st.integers(2, 4),
        depth=st.integers(1, 6),
        stream=st.lists(st.integers(0, 3), max_size=40),
        more=st.lists(st.integers(0, 3), max_size=20),
    )
    def test_suffix_extension_copy_and_load(self, alphabet, depth, stream, more):
        model = VmmModel(alphabet, depth)
        _assert_stop_pairs_kept(model.posterior)
        for s in stream:
            model.observe(s % alphabet)
            _assert_stop_pairs_kept(model.posterior)
        clone = model.copy()
        loaded = VmmModel.from_text(model.to_text())
        _assert_same_stop_pairs(model.posterior, clone.posterior)
        _assert_same_stop_pairs(model.posterior, loaded.posterior)
        # a cleared history truncates paths above the maximum depth
        clone.history.clear()
        for m in (clone, loaded):
            for s in more:
                m.observe(s % alphabet)
                _assert_stop_pairs_kept(m.posterior)
        _assert_stop_pairs_kept(model.posterior)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_set_w0_before_and_during_a_stream(self, seed):
        rng = np.random.default_rng(seed)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov)  # set_w0 on every context
        _assert_stop_pairs_kept(post)
        for _ in range(int(rng.integers(1, 9))):
            post.absorb(*random_xy(rng, cov))
            _assert_stop_pairs_kept(post)
            cid = int(rng.choice(sorted(cov.contexts)))
            post.set_w0(cid, float(rng.uniform(0.05, 1.0)))
            _assert_stop_pairs_kept(post)


class TestSnapshot:
    def test_text_round_trip_continues_exactly(self):
        rng = np.random.default_rng(31)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=6)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        for _ in range(30):
            post.absorb(rng.uniform(0, 1, size=1), int(rng.integers(2)))
        text = post.to_text()
        clone = CoverModelPosterior.from_text(text, prior)
        assert clone.n_obs == post.n_obs
        assert clone.log_evidence == post.log_evidence
        for _ in range(15):
            x = rng.uniform(0, 1, size=1)
            y = int(rng.integers(2))
            assert clone.absorb(x, y) == post.absorb(x, y)
        xq = rng.uniform(0, 1, size=1)
        assert clone.predict_logdensity(xq, 0) == post.predict_logdensity(xq, 0)

    def test_refuses_versions_1_2_7_and_a_missing_one(self):
        """A save writes version 6; the same state as version 5 wrote it,
        in keyed records, and as versions 3 and 4 wrote it, each record
        repeating the prior, loads as well and re-saves as 6."""
        rng = np.random.default_rng(4)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=6)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        for _ in range(20):
            post.absorb(rng.uniform(0, 1, size=1), int(rng.integers(2)))
        text = post.to_text()
        meta, _, rest = text.partition("\n")
        assert json.loads(meta)["version"] == 6
        for saved in (text, as_version(text, 5), as_version(text, 4), as_version(text, 3)):
            clone = CoverModelPosterior.from_text(saved, prior)
            assert clone.to_text() == text
            for cid, lam in enumerate(post.log_lambda):
                assert clone.log_lambda[cid] == lam
        for version in (1, 2, 7, None):
            head = {**json.loads(meta), "version": version}
            if version is None:
                del head["version"]
            other = json.dumps(head, sort_keys=True) + "\n" + rest
            with pytest.raises(BadConfig, match="unsupported snapshot version"):
                CoverModelPosterior.from_text(other, prior)

    @pytest.mark.parametrize("n_obs", [20.9, 19.5, math.inf, -1])
    def test_a_count_that_is_not_a_whole_number_is_refused(self, n_obs):
        """``n_obs`` 20.9 once loaded as 20; 20.0 loads as 20."""
        rng = np.random.default_rng(4)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(SuffixTreeCover(2, 3), prior)
        for _ in range(20):
            post.absorb(tuple(rng.integers(2, size=2).tolist()), int(rng.integers(2)))
        meta, _, rest = post.to_text().partition("\n")
        whole = json.dumps({**json.loads(meta), "n_obs": 20.0}, sort_keys=True)
        assert CoverModelPosterior.from_text(whole + "\n" + rest, prior).n_obs == 20
        head = json.dumps({**json.loads(meta), "n_obs": n_obs}, sort_keys=True)
        with pytest.raises(BadConfig, match="n_obs must be a whole number"):
            CoverModelPosterior.from_text(head + "\n" + rest, prior)

    @pytest.mark.parametrize("seed", range(10))
    def test_static_tree_reloads_every_log_lambda_bit_for_bit(self, seed):
        """A split context no point has reached still has the value the
        recursion gives it, as a reload recomputes it."""
        rng = np.random.default_rng(seed)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=math.inf, max_depth=6)
        cov.split_leaf(cov.split_leaf(cov.root_id)[1])
        prior = DirichletMultinomial(2, 0.5)
        w0 = float(rng.uniform(0.05, 0.95))
        post = CoverModelPosterior(cov, prior, depth_weight=f"const:{w0!r}")
        for _ in range(3):
            post.absorb([rng.uniform(0.0, 0.5)], int(rng.integers(2)))
        clone = CoverModelPosterior.from_text(post.to_text(), prior)
        for cid, lam in enumerate(post.log_lambda):
            assert clone.log_lambda[cid] == lam

    def test_infinite_alpha_never_splits_and_round_trips(self):
        rng = np.random.default_rng(21)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=math.inf, max_depth=6)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        for _ in range(50):
            post.absorb(rng.uniform(0, 1, size=1), int(rng.integers(2)))
        assert cov.n_contexts == 1 and cov.occupancy(cov.root_id) == 50
        text = post.to_text()
        clone = CoverModelPosterior.from_text(text, prior)
        assert clone.to_text() == text
        for _ in range(10):
            x, y = rng.uniform(0, 1, size=1), int(rng.integers(2))
            assert clone.absorb(x, y) == post.absorb(x, y)
        assert clone.cover.n_contexts == 1

    def test_header_with_a_grow_key_loads_and_continues_exactly(self):
        """Snapshots written while the engine had a ``grow`` option
        carry it in their header; it is ignored."""
        rng = np.random.default_rng(22)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=6)
        prior = DirichletMultinomial(2, 0.5)
        post = CoverModelPosterior(cov, prior, depth_weight="2^-k")
        for _ in range(30):
            post.absorb(rng.uniform(0, 1, size=1), int(rng.integers(2)))
        text = post.to_text()
        meta, _, rest = text.partition("\n")
        assert "grow" not in json.loads(meta)
        old = json.dumps({**json.loads(meta), "grow": True}, sort_keys=True) + "\n" + rest
        clone = CoverModelPosterior.from_text(old, prior)
        assert clone.to_text() == text
        for cid, lam in enumerate(post.log_lambda):
            assert clone.log_lambda[cid] == lam
        for _ in range(30):
            x, y = rng.uniform(0, 1, size=1), int(rng.integers(2))
            assert clone.absorb(x, y) == post.absorb(x, y)
        assert clone.to_text() == post.to_text()

    def test_snapshot_is_plain_text(self):
        rng = np.random.default_rng(1)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov, "dirichlet")
        post.absorb(*random_xy(rng, cov))
        text = post.to_text()
        assert text.startswith("{")
        assert "covermodels-snapshot" in text


def _prior_objects(local):
    """The prior values and tables a local reads, as the objects it
    holds, a mixture's in component order."""
    out = []
    for c in getattr(local, "components", [local]):
        if isinstance(c, DirichletMultinomial):
            out.append(c.alpha)
        elif isinstance(c, NormalWishart):
            out += [c.mu0, c.T0]
        else:
            out += [c.box, c._one, c._chain, c._log_vol]
    return out


class TestOnePrior:
    def test_every_local_shares_the_fresh_locals_prior(self, monkeypatch):
        """Every context's local, after a CDE stream that splits, after a
        VMM stream and after a load, holds the very prior objects of
        the posterior's ``prior``, and a model builds its prior once per
        posterior: on construction and on ``from_text``."""
        calls = []
        make_cde, make_vmm = CdeModel._make_local, VmmModel._prior

        def cde_prior(self):
            calls.append("cde")
            return make_cde(self)

        def vmm_prior(self):
            calls.append("vmm")
            return make_vmm(self)

        monkeypatch.setattr(CdeModel, "_make_local", cde_prior)
        monkeypatch.setattr(VmmModel, "_prior", vmm_prior)
        rng = np.random.default_rng(7)
        cde = new_cde([0.0], [1.0], [0.0], [1.0], tree_max_depth=6)
        for x, y in rng.uniform(size=(80, 2)):
            cde.absorb([x], [y])
        vmm = VmmModel(2, 4)
        vmm.fit_sequence(rng.integers(0, 2, size=200).tolist())
        assert calls == ["cde", "vmm"]
        assert cde.n_contexts > 3 and vmm.posterior.cover.n_contexts > 3
        loaded = [CdeModel.from_text(cde.to_text()), VmmModel.from_text(vmm.to_text())]
        assert calls == ["cde", "vmm", "cde", "vmm"]
        for model in [cde, vmm, *loaded]:
            prior = model.posterior.prior
            assert not any(c.n_seen for c in getattr(prior, "components", [prior]))
            want = _prior_objects(prior)
            assert len(want) in (1, 6)
            for local in model.posterior.local:
                got = _prior_objects(local)
                assert local is not prior and len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))


class TestPsiTable:
    def test_rows_mix_to_the_marginal(self):
        rng = np.random.default_rng(19)
        cov = random_static_tree(rng, dim=1)
        post, _ = attach_random_engine(rng, cov, "dirichlet")
        for _ in range(10):
            post.absorb(*random_xy(rng, cov))
        x, y = random_xy(rng, cov)
        rows, log_marginal = post.psi_table(x, y)
        assert log_marginal == pytest.approx(post.predict_logdensity(x, y), abs=1e-12)
        assert [r["cid"] for r in rows] == cov.match_levels(x)
        assert [r["depth"] for r in rows] == [cov.contexts[r["cid"]].depth for r in rows]
        # a row's weight is the mass that stops there: its stop
        # posterior times the mass that reached it, and the terminal row
        # takes all that reached it
        reach = 1.0
        for row in rows:
            g = post.stop_posterior(row["cid"])
            assert row["log_weight"] == pytest.approx(math.log(reach * g), abs=1e-10)
            reach *= 1.0 - g
        mixed = logsumexp([row["log_weight"] + row["log_local"] for row in rows])
        assert mixed == pytest.approx(log_marginal, abs=1e-12)

    def test_a_truncated_path_ends_in_the_virtual_row(self):
        """Past a suffix path that stops short of ``max_depth`` the walk
        can go on to the prior: a row of cid None one level down, whose
        weight is the mass that passed the deepest context."""
        model = VmmModel(3, 5)
        model.fit_sequence([0, 1, 2, 1, 0, 1])
        post, y = model.posterior, 2
        history = (0, 2, 2, 1)  # 2 2 1 was never seen, so the path stops at 2 1
        path = post.cover.match_levels(post.cover.prepare_query(history))
        assert len(path) == 3 < post.cover.max_depth
        rows, log_marginal = post.psi_table(history, y)
        assert [r["cid"] for r in rows] == path + [None]
        assert [r["depth"] for r in rows] == [1, 2, 3, 4]
        assert rows[-1]["log_local"] == post.prior.log_predictive(post.prior.prepare(y))
        reach = sum(post.log1m_g[cid] for cid in path)
        assert rows[-1]["log_weight"] == pytest.approx(reach, abs=1e-12)
        mixed = logsumexp([row["log_weight"] + row["log_local"] for row in rows])
        assert mixed == pytest.approx(log_marginal, abs=1e-12)
        assert log_marginal == post.predict_logdensity(history, y)


def mixture_bound(log_g, log_pi, log_prior_pi, psi):
    """How far the engine's mixture may lie from
    ``decimal_walk_predictive``. A weight sums up to L logs, each the
    float log(1 - g_j) with an error of u (1 + |log(1 - g_j)|), and its
    term adds log pi_k, so a term of size at most T, the sum of every
    finite |log(1 - g_j)| and the largest finite |log g_k| and |log
    pi_k|, is off by at most (L + 1) u (T + 1), and a log-sum-exp moves
    no more than its largest input. Its exps, the sum of L terms and
    the log1p add at most 4 L u, and the last addition and the
    reference's rounding u |psi| each, for u = 2**-53 and L terms."""
    finite = [v for v in log_pi + [log_prior_pi] if v is not None and v > -math.inf]
    size = sum(abs(log1mexp(v)) for v in log_g if v < 0.0)
    size += max(map(abs, log_g)) + max(map(abs, finite), default=0.0)
    terms = len(log_g) + (log_prior_pi is not None)
    return 2.0**-53 * ((terms + 3) * (size + 1) + 2 * abs(psi) + 4 * terms)


class _Chain:
    """A cover that matches every query to the chain 0, 1, ..., n - 1."""

    def __init__(self, n, truncated):
        self.n, self.truncated = n, truncated

    def prepare_query(self, x):
        return x

    def match_levels(self, x):
        return list(range(self.n))

    def truncates(self, depth):
        return self.truncated


class _Fixed:
    """A local, or the prior, whose log predictive is fixed."""

    def __init__(self, log_pi):
        self.log_pi = log_pi

    def prepare(self, y):
        return y

    def log_predictive(self, y):
        return self.log_pi


def chain_posterior(log_g, log_pi, log_prior_pi):
    """A posterior over one chain with the given stop pairs and local
    predictives, truncated where ``log_prior_pi`` is given."""
    post = CoverModelPosterior.__new__(CoverModelPosterior)
    post.cover = _Chain(len(log_g), log_prior_pi is not None)
    post.log_g, post.log1m_g = list(log_g), [log1mexp(v) for v in log_g]
    post.local, post.prior = [_Fixed(v) for v in log_pi], _Fixed(log_prior_pi)
    return post


# log g: exactly 0 (g = 1), next to 0, ordinary, tiny g, and the least
_LOG_G = st.one_of(
    st.just(0.0),
    st.floats(-1e-12, -5e-324),
    st.floats(-20.0, -1e-12),
    st.floats(-745.0, -20.0),
)
_LOG_PI = st.one_of(st.just(-math.inf), st.floats(-60.0, 6.0))


class TestStopWeights:
    """The predictive is one mixture over where the walk stops, and the
    weights are the law of that stop."""

    @given(
        log_g=st.lists(_LOG_G, min_size=1, max_size=40),
        pis=st.lists(_LOG_PI, min_size=41, max_size=41),
        truncated=st.booleans(),
    )
    def test_the_mixture_matches_the_decimal_recursion(self, log_g, pis, truncated):
        """Against the nested recursion in 50 digits, to
        ``mixture_bound``; -inf where every term is; and the weights sum
        to 1 to within 1e-12."""
        log_pi, log_prior_pi = pis[: len(log_g)], (pis[-1] if truncated else None)
        post = chain_posterior(log_g, log_pi, log_prior_pi)
        got = post.predict_logdensity(None, None)
        want = decimal_walk_predictive(log_g, log_pi, log_prior_pi)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert abs(got - want) <= mixture_bound(log_g, log_pi, log_prior_pi, want)
        weights = post.stop_weights(list(range(len(log_g))))
        assert len(weights) == len(log_g) + truncated
        assert abs(math.fsum(map(math.exp, weights)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("terms", [[-math.inf, math.nan], [math.nan, -1.0], [-1.0, math.nan]])
    def test_a_nan_predictive_gives_nan_wherever_it_sits(self, terms):
        """``max`` sees a NaN only in first place, so the sum checks every
        term."""
        post = chain_posterior([-0.5, -0.5], terms, None)
        assert math.isnan(post.predict_logdensity(None, None))

    def test_a_root_stop_weight_of_one_predicts_the_root_local(self):
        """``set_w0(root, 1.0)`` is a stop weight like any other: every
        walk stops at the root, so the weights are [0, -inf, ...], the
        predictive is the root local's bit for bit, and the evidence is
        enumeration's."""
        rng = np.random.default_rng(31)
        cov = random_static_tree(rng, dim=1, max_extra_splits=5)
        post, _ = attach_random_engine(rng, cov)
        post.set_w0(cov.root_id, 1.0)
        oracle = ExactEnumerator(cov, dict(enumerate(post.w0)), dirichlet_block_marginal(3))
        data = [random_xy(rng, cov) for _ in range(12)]
        for x, y in data:
            post.absorb(x, y)
        assert post.log_marginal_likelihood() == pytest.approx(oracle.log_evidence(data), abs=1e-10)
        root = post.local[cov.root_id]
        for x, y in [random_xy(rng, cov) for _ in range(10)]:
            path = cov.match_levels(cov.prepare_query(x))
            assert len(path) > 1
            assert post.stop_weights(path) == [0.0] + [-math.inf] * (len(path) - 1)
            assert post.predict_logdensity(x, y) == root.log_predictive(post.prior.prepare(y))

    @staticmethod
    def check_returns(post, local_cls, stream, monkeypatch):
        """Every absorb return of ``stream`` against the recursion, from
        the stop posteriors in force and the locals' update returns."""
        pis = []
        update = local_cls.update

        def spy(local, py):
            pis.append(update(local, py))
            return pis[-1]

        monkeypatch.setattr(local_cls, "update", spy)
        cover, worst = post.cover, 0.0
        for x, y in stream:
            before = cover.match_levels(cover.prepare_query(x))
            log_g = [post.log_g[cid] for cid in before]
            pis.clear()
            got = post.absorb(x, y)
            # a suffix cover extends the path before scoring, a kd cover
            # splits after it
            path = cover.match_levels(cover.prepare_query(x))[: len(pis)]
            log_g += [post.log_w0[cid] for cid in path[len(before):]]
            virtual = None
            if cover.truncates(len(path)):
                virtual = post.prior.log_predictive(post.prior.prepare(y))
            want = decimal_walk_predictive(log_g, pis, virtual)
            assert abs(got - want) <= mixture_bound(log_g, pis, virtual, want)
            worst = max(worst, abs(got - want))
        return worst

    def test_vmm_returns_match_the_decimal_recursion(self, monkeypatch):
        model = VmmModel(2, 8)
        seq = gen_markov(10_000, seed=5, alphabet_size=2, order=3)
        history = []

        def stream():
            for s in seq:
                yield tuple(history), s
                history.append(s)

        worst = self.check_returns(model.posterior, DirichletMultinomial, stream(), monkeypatch)
        assert worst <= 1e-15

    def test_cde_returns_match_the_decimal_recursion(self, monkeypatch):
        data = gen_mixture(2000, "uniform", seed=9)
        model = CdeModel(CdeConfig.from_data(data.x, data.y, alpha=1.5))
        stream = zip(data.x.tolist(), data.y.tolist())
        worst = self.check_returns(model.posterior, MixtureLocal, stream, monkeypatch)
        assert worst <= 1e-15


class TestSampling:
    def test_sample_matches_predictive(self):
        rng = np.random.default_rng(77)
        cov = random_static_tree(rng, dim=1, max_extra_splits=3)
        post, _ = attach_random_engine(rng, cov, "dirichlet", alphabet=3)
        for _ in range(12):
            post.absorb(*random_xy(rng, cov, alphabet=3))
        x = rng.uniform(cov.root_box.lower, cov.root_box.upper)
        probs = np.exp([post.predict_logdensity(x, k) for k in range(3)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        n = 6000
        draws = np.array([post.sample_y(x, rng) for _ in range(n)])
        counts = np.bincount(draws.astype(int), minlength=3)
        stat, pval = chisquare(counts, probs * n)
        assert pval > 1e-4


class TestStopPosterior:
    """A childless context is a forced terminal unless its cover
    ``truncates`` at its depth."""

    def test_a_kd_leaf_above_max_depth_is_a_forced_terminal(self):
        rng = np.random.default_rng(6)
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=8)
        post = CoverModelPosterior(cov, DirichletMultinomial(2, 0.5))
        for _ in range(30):
            post.absorb(rng.uniform(0, 1, size=1), int(rng.integers(2)))
        leaves = [c for c in cov.contexts.values() if not c.child_ids]
        assert len(leaves) > 1 and max(c.depth for c in leaves) < cov.max_depth
        for ctx in leaves:
            assert post.stop_posterior(ctx.cid) == 1.0
            assert math.exp(post.log_g[ctx.cid]) < 1.0

    def test_a_childless_suffix_context_is_forced_only_at_max_depth(self):
        model = VmmModel(alphabet_size=2, depth=4)
        model.fit_sequence([1, 1, 1, 1])  # the chain (1,), (1, 1), (1, 1, 1)
        model.history.clear()
        model.fit_sequence([0, 0])  # (0,), at depth 2, and no child of it
        post = model.posterior
        childless = [c for c in post.cover.contexts.values() if not c.child_ids]
        assert {c.depth for c in childless} == {2, 4}
        for ctx in childless:
            got = post.stop_posterior(ctx.cid)
            if ctx.depth == post.cover.max_depth:
                assert got == 1.0
            else:
                assert got == math.exp(post.log_g[ctx.cid]) < 1.0


class TestValidation:
    def test_set_w0_range(self):
        rng = np.random.default_rng(0)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov)
        root = cov.root_id
        with pytest.raises(BadConfig):
            post.set_w0(root, 0.0)
        with pytest.raises(BadConfig):
            post.set_w0(root, 1.5)

    def test_rejects_unknown_context(self):
        rng = np.random.default_rng(0)
        cov = random_static_tree(rng)
        post, _ = attach_random_engine(rng, cov)
        with pytest.raises(KeyError):
            post.set_w0(10_000, 0.5)
