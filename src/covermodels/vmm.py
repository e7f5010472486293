"""Variable order Markov models over finite alphabets.

``VmmModel`` wires a lazily materialised suffix cover into the exact
posterior engine with Dirichlet locals: the result is a Bayesian
mixture over all context trees up to a maximum order, learned online
in O(order) per symbol.

``CtwOracle`` computes the same mixture by brute force: enumerate every
complete pruning of the full suffix tree, score each as a product of
Dirichlet predictives at the emitting nodes, and mix with the prior
2^-(cost). It is deliberately written against the generative story,
with none of the engine's incremental bookkeeping, so the two can
check each other.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .covers import SuffixTreeCover
from .engine import CoverModelPosterior
from .errors import BadConfig, TooLargeToEnumerate, UnknownSymbol
from .local import DirichletMultinomial

_PRIORS = {"kt": 0.5, "laplace": 1.0}


def _resolve_prior(prior) -> float:
    if isinstance(prior, str):
        try:
            return _PRIORS[prior]
        except KeyError:
            raise BadConfig(f"unknown prior {prior!r}, expected kt or laplace") from None
    conc = float(prior)
    if conc <= 0:
        raise BadConfig("prior concentration must be positive")
    return conc


class VmmModel:
    """Online mixture of Markov models of order 0 .. depth-1.

    Parameters
    ----------
    alphabet_size : int
    depth : int
        Number of covers; contexts condition on up to depth-1 past
        symbols.
    prior : "kt", "laplace" or positive float
        Dirichlet concentration of every context's symbol distribution.
    stop_weight : float
        Prior probability of emitting from the current context instead
        of conditioning on one more symbol of history.
    """

    def __init__(self, alphabet_size, depth, prior="kt", stop_weight=0.5):
        self.alphabet_size = int(alphabet_size)
        self.depth = int(depth)
        self.concentration = _resolve_prior(prior)
        self.stop_weight = float(stop_weight)
        cover = SuffixTreeCover(self.alphabet_size, self.depth)
        conc = self.concentration
        n = self.alphabet_size

        def factory(depth_k, region):
            return DirichletMultinomial(n, conc)

        self.posterior = CoverModelPosterior(
            cover, factory, depth_weight=f"const:{self.stop_weight!r}"
        )
        self.history: list[int] = []

    def _check(self, symbol) -> int:
        s = int(symbol)
        if not 0 <= s < self.alphabet_size:
            raise UnknownSymbol(s, self.alphabet_size)
        return s

    @property
    def context(self):
        """The conditioning suffix currently in force: the last depth-1
        symbols, all the suffix cover ever reads of the history."""
        k = min(len(self.history), self.depth - 1)
        return tuple(self.history[len(self.history) - k:])

    def observe(self, symbol) -> float:
        """Score the symbol against the current predictive, then learn it."""
        s = self._check(symbol)
        lp = self.posterior.absorb(self.context, s)
        self.history.append(s)
        return lp

    def fit_sequence(self, seq) -> float:
        return float(sum(self.observe(s) for s in seq))

    def next_symbol_logprobs(self) -> np.ndarray:
        h = self.context
        return np.array(
            [self.posterior.predict_logdensity(h, a) for a in range(self.alphabet_size)]
        )

    def sequence_logprob(self, seq) -> float:
        """Log probability of a separate sequence under the learned
        posterior, starting from an empty conditioning history. Does
        not mutate the model."""
        clone = self.copy()
        clone.history = []
        return clone.fit_sequence(seq)

    def generate(self, n, rng) -> list:
        """Sample a continuation of the current history.

        Works on a throwaway copy; the sampled symbols feed back into
        the copy's posterior so the draw comes from the full joint
        predictive, not a product of marginals.
        """
        clone = self.copy()
        out = []
        for _ in range(int(n)):
            s = clone.posterior.sample_y(clone.context, rng)
            clone.observe(int(s))
            out.append(int(s))
        return out

    def copy(self) -> "VmmModel":
        import copy as _copy

        return _copy.deepcopy(self)

    # ---- persistence -----------------------------------------------------

    def to_text(self) -> str:
        import json

        keep = self.depth - 1
        meta = {
            "kind": "vmm",
            "alphabet_size": self.alphabet_size,
            "depth": self.depth,
            "concentration": self.concentration,
            "stop_weight": self.stop_weight,
            "history_tail": self.history[len(self.history) - keep:] if keep else [],
            "n_seen": len(self.history),
        }
        return json.dumps(meta, sort_keys=True) + "\n" + self.posterior.to_text()

    @classmethod
    def from_text(cls, text) -> "VmmModel":
        import json

        head, _, rest = text.partition("\n")
        meta = json.loads(head)
        if meta.get("kind") != "vmm":
            raise BadConfig("not a vmm snapshot")
        obj = cls.__new__(cls)
        obj.alphabet_size = int(meta["alphabet_size"])
        obj.depth = int(meta["depth"])
        obj.concentration = float(meta["concentration"])
        obj.stop_weight = float(meta["stop_weight"])
        n = obj.alphabet_size
        conc = obj.concentration

        def factory(depth_k, region):
            return DirichletMultinomial(n, conc)

        obj.posterior = CoverModelPosterior.from_text(rest, factory)
        obj.history = [int(s) for s in meta["history_tail"]]
        return obj


class CtwOracle:
    """Exact mixture over complete prunings of the full suffix tree.

    ``depth`` is the maximum context length (one less than the matching
    ``VmmModel`` depth). Symbol t conditions on at most min(t, depth)
    past symbols; when a pruning wants deeper context than exists, the
    symbol is emitted from the deepest node the history can reach.
    """

    def __init__(
        self,
        alphabet_size=2,
        depth=1,
        concentration=0.5,
        stop_weight=0.5,
        max_prunings=100000,
    ):
        if alphabet_size < 2:
            raise BadConfig("alphabet_size must be at least 2")
        if depth < 0:
            raise BadConfig("depth must be nonnegative")
        if not 0.0 < stop_weight <= 1.0:
            raise BadConfig("stop_weight must be in (0, 1]")
        self.n = int(alphabet_size)
        self.depth = int(depth)
        self.conc = float(concentration)
        self.w = float(stop_weight)
        count = self._count(self.depth)
        if count > max_prunings:
            raise TooLargeToEnumerate(f"{count} prunings exceed cap {max_prunings}")
        self.prunings = self._enumerate(())

    def _count(self, remaining) -> int:
        if remaining == 0:
            return 1
        return 1 + self._count(remaining - 1) ** self.n

    def _enumerate(self, suffix):
        """All prunings of the subtree rooted at ``suffix``.

        Returns a list of (cut_set, log_prior). A cut set is a
        frozenset of suffixes at which the subtree stops.
        """
        if len(suffix) == self.depth:
            return [(frozenset([suffix]), 0.0)]
        out = [(frozenset([suffix]), math.log(self.w))]
        if self.w < 1.0:
            import itertools

            kids = [self._enumerate((a,) + suffix) for a in range(self.n)]
            for combo in itertools.product(*kids):
                cut = frozenset().union(*(c for c, _ in combo))
                lp = math.log1p(-self.w) + sum(lp_d for _, lp_d in combo)
                out.append((cut, lp))
        return out

    def sequence_logprob(self, seq) -> float:
        seq = [int(s) for s in seq]
        for s in seq:
            if not 0 <= s < self.n:
                raise UnknownSymbol(s, self.n)
        if not seq:
            return 0.0
        totals = []
        for cut, log_prior in self.prunings:
            counts: dict = {}
            ll = 0.0
            for t, y in enumerate(seq):
                avail = min(t, self.depth)
                node = None
                for k in range(avail + 1):
                    suffix = tuple(seq[t - k:t])
                    if suffix in cut:
                        node = suffix
                        break
                if node is None:
                    node = tuple(seq[t - avail:t])  # ran out of history
                c = counts.setdefault(node, np.zeros(self.n))
                ll += math.log((c[y] + self.conc) / (c.sum() + self.conc * self.n))
                c[y] += 1.0
            totals.append(log_prior + ll)
        return float(logsumexp(totals))


def ctw_logprob(seq, alphabet_size=2, max_context=1, concentration=0.5, stop_weight=0.5):
    oracle = CtwOracle(alphabet_size, max_context, concentration, stop_weight)
    return oracle.sequence_logprob(seq)
