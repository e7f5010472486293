"""Brute force reference posterior by explicit enumeration.

Used to validate the incremental engine: enumerate every complete stop
configuration of a partition tree cover, weight each by its prior and
its product of per context block marginals, and form evidence and
predictive values directly. Nothing here is incremental and nothing is
shared with the engine's update arithmetic; block marginals are
computed in closed batch form from sufficient statistics.

A stop configuration (a "cut") is a set of contexts such that every
root to leaf chain meets it exactly once. A context with children may
stop the walk with prior weight w0 and otherwise passes it to its
children; a childless context always stops it. The block of a context
is every observation whose chain passes through or ends at it.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.special import gammaln, logsumexp, multigammaln

from covermodels.errors import BadConfig, TooLargeToEnumerate


class ExactEnumerator:
    """Enumerates cuts of a static partition tree cover.

    Parameters
    ----------
    cover : CoverSequence
        A partition tree, as every cover is. The structure is frozen at
        construction; rebuild the enumerator if it grows.
    w0_by_cid : dict
        Prior stop weight per context id.
    log_block_marginal : callable (cid, block) -> float
        Log marginal likelihood of a block, a list of (x, y) pairs in
        arrival order.
    max_cuts : int
        Refuse (TooLargeToEnumerate) beyond this many configurations.
    """

    def __init__(self, cover, w0_by_cid, log_block_marginal, max_cuts=200000):
        self.cover = cover
        self.root = cover.root_id
        self.w0 = dict(w0_by_cid)
        self.marginal = log_block_marginal
        n = self._count_cuts(self.root)
        if n > max_cuts:
            raise TooLargeToEnumerate(f"{n} stop configurations exceed cap {max_cuts}")
        self.cuts = self._cuts(self.root)
        total = logsumexp([lp for _, lp in self.cuts])
        if abs(total) > 1e-9:
            raise BadConfig(f"cut priors sum to exp({total}), expected 1")

    def _count_cuts(self, cid) -> int:
        kids = self.cover.contexts[cid].child_ids
        if not kids:
            return 1
        prod = 1
        for d in kids:
            prod *= self._count_cuts(d)
        return 1 + prod

    def _cuts(self, cid):
        kids = self.cover.contexts[cid].child_ids
        if not kids:
            return [((cid,), 0.0)]
        w = self.w0[cid]
        out = [((cid,), math.log(w))]
        if w < 1.0:
            below = [self._cuts(d) for d in kids]
            for combo in itertools.product(*below):
                cut = tuple(itertools.chain.from_iterable(c for c, _ in combo))
                lp = math.log1p(-w) + sum(lp_d for _, lp_d in combo)
                out.append((cut, lp))
        return out

    def _blocks(self, data):
        blocks = {cid: [] for cid in self.cover.contexts}
        for x, y in data:
            for cid in self.cover.match_levels(self.cover.prepare_query(x)):
                blocks[cid].append((x, y))
        return blocks

    def _scores(self, data):
        blocks = self._blocks(data)
        logm = {cid: self.marginal(cid, blk) for cid, blk in blocks.items()}
        scored = [
            (cut, lp + sum(logm[c] for c in cut)) for cut, lp in self.cuts
        ]
        return blocks, logm, scored

    def log_evidence(self, data) -> float:
        _, _, scored = self._scores(data)
        return float(logsumexp([s for _, s in scored]))

    def log_predictive(self, data, x, y) -> float:
        """Posterior predictive log density of y at x given data."""
        blocks, logm, scored = self._scores(data)
        on_path = set(self.cover.match_levels(self.cover.prepare_query(x)))
        num = []
        den = []
        for cut, base in scored:
            hits = [c for c in cut if c in on_path]
            if len(hits) != 1:
                raise BadConfig("query chain must cross each cut exactly once")
            e = hits[0]
            delta = self.marginal(e, blocks[e] + [(x, y)]) - logm[e]
            num.append(base + delta)
            den.append(base)
        return float(logsumexp(num) - logsumexp(den))

    def stop_posterior(self, data, cid) -> float:
        """Posterior probability that the walk through cid stops there.

        Conditional on the cut reaching cid, i.e. mass of cuts with cid
        in the cut over mass of cuts where no strict ancestor of cid is
        in the cut.
        """
        _, _, scored = self._scores(data)
        ancestors = set()
        c = self.cover.contexts[cid].parent
        while c is not None:
            ancestors.add(c)
            c = self.cover.contexts[c].parent
        at = [s for cut, s in scored if cid in cut]
        reach = [s for cut, s in scored if ancestors.isdisjoint(cut)]
        if not at:
            return 0.0
        return float(math.exp(logsumexp(at) - logsumexp(reach)))


# ---- the walk's predictive in 50 digits -------------------------------------


def decimal_walk_predictive(log_g, log_pi, log_prior_pi=None):
    """log psi_1 by the nested recursion of ``engine.py``'s docstring,

        psi_k = g_k pi_k + (1 - g_k) psi_{k+1},

    in 50-digit ``Decimal`` from float inputs: per context of a path,
    root first, its stop posterior's log g and its local's log pi. Where
    the path truncates, ``log_prior_pi`` is the log predictive of the
    virtual continuation, psi past the deepest context; otherwise the
    deepest context stops, psi_n = pi_n. Nothing is shared with the
    engine's weights or its log-sum-exp."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = len(log_g)
        if log_prior_pi is None:
            n -= 1
            psi = Decimal(log_pi[n]).exp()
        else:
            psi = Decimal(log_prior_pi).exp()
        for lg, lp in zip(reversed(log_g[:n]), reversed(log_pi[:n])):
            g = Decimal(lg)
            with localcontext() as near_one:
                # 1 - g to 50 digits however close g is to 1
                near_one.prec = 50 + max(0, -g.adjusted()) if g else 50
                g = g.exp()
                rest = 1 - g
            psi = g * Decimal(lp).exp() + rest * psi
        return float(psi.ln())


# ---- closed form block marginals -------------------------------------------


def dirichlet_block_marginal(alphabet_size, concentration=0.5):
    """Batch Dirichlet-multinomial marginal from symbol counts."""
    alpha = np.full(alphabet_size, float(concentration))

    def marginal(cid, block):
        counts = np.zeros(alphabet_size)
        for _, y in block:
            counts[int(y)] += 1.0
        return float(
            np.sum(gammaln(alpha + counts) - gammaln(alpha))
            + gammaln(alpha.sum())
            - gammaln(alpha.sum() + counts.sum())
        )

    return marginal


def normal_wishart_block_marginal(mu0, kappa0=1.0, nu0=None, scale=None):
    """Batch Normal-Wishart evidence of a block of vectors.

    Standard conjugate identity: with posterior hypers (kappa_n, nu_n,
    T_n) after n observations of dimension m,

        log p(block) = -(n m / 2) log pi
                     + (m / 2) (log kappa0 - log kappa_n)
                     + logGamma_m(nu_n / 2) - logGamma_m(nu0 / 2)
                     + (nu0 / 2) log|T0| - (nu_n / 2) log|T_n|.
    """
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    m = mu0.shape[0]
    if nu0 is None:
        nu0 = m + 2.0
    if scale is None:
        scale = np.eye(m)
    T0 = np.asarray(scale, dtype=float)
    if T0.ndim == 0:
        T0 = float(T0) * np.eye(m)
    sign0, logdet0 = np.linalg.slogdet(T0)
    if sign0 <= 0:
        raise BadConfig("scale matrix must be positive definite")

    def marginal(cid, block):
        n = len(block)
        if n == 0:
            return 0.0
        ys = np.array([np.atleast_1d(np.asarray(y, dtype=float)) for _, y in block])
        ybar = ys.mean(axis=0)
        centered = ys - ybar
        scatter = centered.T @ centered
        kn = kappa0 + n
        vn = nu0 + n
        diff = ybar - mu0
        Tn = T0 + scatter + (kappa0 * n / kn) * np.outer(diff, diff)
        _, logdetn = np.linalg.slogdet(Tn)
        return float(
            -0.5 * n * m * math.log(math.pi)
            + 0.5 * m * (math.log(kappa0) - math.log(kn))
            + multigammaln(0.5 * vn, m)
            - multigammaln(0.5 * nu0, m)
            + 0.5 * nu0 * logdet0
            - 0.5 * vn * logdetn
        )

    return marginal
