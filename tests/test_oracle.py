"""The enumeration oracle itself has to be trustworthy."""

import numpy as np
import pytest
from scipy.special import logsumexp

from covermodels import (
    DirichletMultinomial,
    NormalWishart,
    TooLargeToEnumerate,
)
from oracle import ExactEnumerator, dirichlet_block_marginal, normal_wishart_block_marginal
from conftest import learn, random_static_tree, score


def flat_w0(cov, w=0.3):
    return {cid: w for cid in cov.contexts}


class TestCutEnumeration:
    def test_prior_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            cov = random_static_tree(np.random.default_rng(seed))
            enum = ExactEnumerator(
                cov, flat_w0(cov, 0.41), dirichlet_block_marginal(2, 0.5)
            )
            total = logsumexp([lp for _, lp in enum.cuts])
            assert total == pytest.approx(0.0, abs=1e-9)

    def test_every_cut_is_an_antichain_hitting_all_leaves(self):
        cov = random_static_tree(np.random.default_rng(8))
        enum = ExactEnumerator(cov, flat_w0(cov), dirichlet_block_marginal(2, 0.5))
        lower, upper = np.array(cov.root_box.lower), np.array(cov.root_box.upper)
        probes = [lower + (upper - lower) * f for f in np.linspace(0.01, 0.99, 23)]
        for cut, _ in enum.cuts:
            for p in probes:
                path = cov.match_levels(p)
                # each root-to-leaf chain crosses the cut exactly once
                assert sum(1 for c in path if c in cut) == 1

    def test_size_guard(self):
        cov = random_static_tree(np.random.default_rng(1), max_extra_splits=6)
        with pytest.raises(TooLargeToEnumerate):
            ExactEnumerator(
                cov, flat_w0(cov), dirichlet_block_marginal(2, 0.5), max_cuts=2
            )


class TestBlockMarginals:
    """Closed-form batch marginals vs sequential predictive products."""

    def test_dirichlet(self):
        rng = np.random.default_rng(3)
        marg = dirichlet_block_marginal(3, 0.5)
        block = [(None, int(s)) for s in rng.integers(0, 3, size=9)]
        seq = DirichletMultinomial(3, 0.5)
        want = 0.0
        for _, y in block:
            want += score(seq, y)
            learn(seq, y)
        assert marg(None, block) == pytest.approx(want, abs=1e-12)

    def test_normal_wishart(self):
        rng = np.random.default_rng(5)
        marg = normal_wishart_block_marginal(
            np.zeros(2), kappa0=1.0, nu0=4.0, scale=np.eye(2)
        )
        block = [(None, rng.normal(size=2)) for _ in range(6)]
        seq = NormalWishart(np.zeros(2), kappa0=1.0, nu0=4.0, scale=np.eye(2))
        want = 0.0
        for _, y in block:
            want += score(seq, y)
            learn(seq, y)
        assert marg(None, block) == pytest.approx(want, abs=1e-10)

    def test_empty_block(self):
        assert dirichlet_block_marginal(2, 0.5)(None, []) == 0.0
        assert normal_wishart_block_marginal([0.0], 1.0, 3.0, [[1.0]])(None, []) == 0.0
