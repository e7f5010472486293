"""Variable order Markov models over finite alphabets.

``VmmModel`` wires a lazily materialised suffix cover into the exact
posterior engine with Dirichlet locals: the result is a Bayesian
mixture over all context trees up to a maximum order, learned online
in O(order) per symbol. Scoring a separate sequence and sampling run
the same update on ``VmmModel.copy``, a structural copy whose cost is
a few list and dict copies per context.

``CtwOracle`` computes the same mixture by brute force: enumerate every
complete pruning of the full suffix tree, score each as a product of
Dirichlet predictives at the emitting nodes, and mix with the prior
2^-(cost). It is deliberately written against the generative story,
with none of the engine's incremental bookkeeping, so the two can
check each other.
"""

from __future__ import annotations

import copy
import functools
import math
from collections import deque

import numpy as np

from .covers import SuffixTreeCover, as_size, as_symbol
from .engine import CoverModelPosterior
from .errors import BadConfig, TooLargeToEnumerate, UnknownSymbol
from .local import DirichletMultinomial
from .logspace import logsumexp

_NAMED_PRIORS = {"kt": 0.5, "laplace": 1.0}
# the most prunings CtwOracle enumerates
_MAX_PRUNINGS = 100000


def _resolve_prior(prior) -> float:
    """A Dirichlet concentration: ``"kt"`` (0.5), ``"laplace"`` (1.0) or
    a positive finite number, as a float; anything else raises
    ``BadConfig``."""
    if isinstance(prior, str):
        try:
            return _NAMED_PRIORS[prior]
        except KeyError:
            raise BadConfig(f"unknown prior {prior!r}, expected kt or laplace") from None
    conc = float(prior)
    if not 0 < conc < math.inf:  # NaN too
        raise BadConfig(f"prior concentration must be positive and finite, got {conc!r}")
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
        self.alphabet_size = as_size(alphabet_size, "alphabet_size", 2)
        self.depth = as_size(depth, "depth", 1)
        self.concentration = _resolve_prior(prior)
        self.stop_weight = float(stop_weight)
        self.posterior = CoverModelPosterior(
            SuffixTreeCover(self.alphabet_size, self.depth),
            self._prior(),
            depth_weight=f"const:{self.stop_weight!r}",
        )
        # only the last depth-1 symbols are ever read
        self.history: deque = deque(maxlen=self.depth - 1)

    def _prior(self):
        """The posterior's prior: an empty Dirichlet local."""
        return DirichletMultinomial(self.alphabet_size, self.concentration)

    @property
    def n_seen(self) -> int:
        """The number of symbols observed, the posterior's ``n_obs``."""
        return self.posterior.n_obs

    @property
    def context(self):
        """The conditioning suffix currently in force: the last depth-1
        symbols, all the suffix cover ever reads of the history."""
        return tuple(self.history)

    def observe(self, symbol) -> float:
        """Score the symbol against the current predictive, then learn it."""
        s = as_symbol(symbol, self.alphabet_size)
        lp = self.posterior.absorb(self.context, s)
        self.history.append(s)
        return lp

    def fit_sequence(self, seq) -> float:
        return float(sum(self.observe(s) for s in seq))

    def next_symbol_logprobs(self) -> np.ndarray:
        """Log probability of each symbol coming next, from one match of
        the current context."""
        return np.array(self.posterior.log_predictives(self.context, range(self.alphabet_size)))

    def sequence_logprobs(self, seq) -> list:
        """Log probability of each symbol of a separate sequence under
        the learned posterior, starting from an empty conditioning
        history. Does not mutate the model: it learns the sequence into
        a ``copy``, the exact sequential update that training runs."""
        clone = self.copy()
        clone.history.clear()
        return [clone.observe(s) for s in seq]

    def sequence_logprob(self, seq) -> float:
        """The sum of ``sequence_logprobs``: the sequence's log probability."""
        return float(sum(self.sequence_logprobs(seq)))

    def generate(self, n, rng) -> list:
        """Sample a continuation of the current history.

        Works on a throwaway copy; the sampled symbols feed back into
        the copy's posterior so the draw comes from the full joint
        predictive, not a product of marginals.
        """
        clone = self.copy()
        out = []
        for _ in range(as_size(n, "n", 0)):
            s = clone.posterior.sample_y(clone.context, rng)
            clone.observe(int(s))
            out.append(int(s))
        return out

    def copy(self) -> "VmmModel":
        """An independent copy, which scoring and sampling learn into.

        It copies the header fields, the history (a new deque with the
        same ``maxlen``) and the posterior (``CoverModelPosterior.copy``:
        new contexts, child index, stop posteriors and Dirichlet
        counts). It shares what nothing changes: the suffix regions, the
        Dirichlet priors and the posterior's prior. It costs a few list
        and dict copies per context.
        """
        obj = copy.copy(self)
        obj.posterior = self.posterior.copy()
        obj.history = self.history.copy()
        return obj

    # ---- persistence -----------------------------------------------------

    def to_text(self) -> str:
        import json

        meta = {
            "kind": "vmm",
            "alphabet_size": self.alphabet_size,
            "depth": self.depth,
            "concentration": self.concentration,
            "stop_weight": self.stop_weight,
            "history_tail": list(self.history),
            "n_seen": self.n_seen,
        }
        return json.dumps(meta, sort_keys=True) + "\n" + self.posterior.to_text()

    @classmethod
    def from_text(cls, text) -> "VmmModel":
        import json

        head, _, rest = text.partition("\n")
        obj = cls.__new__(cls)
        try:
            meta = json.loads(head)
            if not isinstance(meta, dict) or meta.get("kind") != "vmm":
                raise BadConfig("not a vmm snapshot")
            obj.alphabet_size = as_size(meta["alphabet_size"], "alphabet_size", 2)
            obj.depth = as_size(meta["depth"], "depth", 1)
            obj.concentration = float(meta["concentration"])
            obj.stop_weight = float(meta["stop_weight"])
            history = [as_symbol(s, obj.alphabet_size) for s in meta["history_tail"]]
            n_seen = as_size(meta["n_seen"], "n_seen", 0)
        except (KeyError, TypeError, ValueError, UnknownSymbol) as exc:
            raise BadConfig(f"malformed vmm snapshot header: {exc!r}") from exc
        # the posterior refuses a prior other than the one these settings give
        obj.posterior = post = CoverModelPosterior.from_text(rest, obj._prior())
        cover = post.cover
        if (
            not isinstance(cover, SuffixTreeCover)
            or (cover.alphabet_size, cover.max_depth) != (obj.alphabet_size, obj.depth)
            or n_seen != post.n_obs
            or len(history) > min(n_seen, obj.depth - 1)
            or post.depth_weight_spec != f"const:{obj.stop_weight!r}"
        ):
            raise BadConfig("vmm snapshot header disagrees with its posterior")
        obj.history = deque(history, maxlen=obj.depth - 1)
        return obj


class CtwOracle:
    """Exact mixture over complete prunings of the full suffix tree.

    ``depth`` is the maximum context length (one less than the matching
    ``VmmModel`` depth). Symbol t conditions on at most min(t, depth)
    past symbols; when a pruning wants deeper context than exists, the
    symbol is emitted from the deepest node the history can reach.
    """

    def __init__(self, alphabet_size=2, depth=1, concentration=0.5, stop_weight=0.5):
        self.n = as_size(alphabet_size, "alphabet_size", 2)
        self.depth = as_size(depth, "depth", 0)
        if not 0.0 < stop_weight <= 1.0:
            raise BadConfig("stop_weight must be in (0, 1]")
        self.conc = _resolve_prior(concentration)
        self.w = float(stop_weight)
        # the prunings of the tree of each depth; the count's digits double
        # with each, so it stops at the first depth over the cap
        count = 1
        for k in range(1, self.depth + 1):
            count = 1 + count**self.n
            if count > _MAX_PRUNINGS:
                raise TooLargeToEnumerate(
                    f"{count} prunings at depth {k} of {self.depth} exceed cap {_MAX_PRUNINGS}"
                )
        self.prunings = self._enumerate(())
        # the same cut sets over small ints, which hash faster than tuples
        self._ids = {}
        for cut, _ in self.prunings:
            for suffix in cut:
                self._ids.setdefault(suffix, len(self._ids))
        self._cut_ids = [
            (frozenset(self._ids[suffix] for suffix in cut), lp) for cut, lp in self.prunings
        ]

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
        seq = [as_symbol(s, self.n) for s in seq]
        if not seq:
            return 0.0
        # each symbol's candidate contexts, shortest first, are the same
        # under every pruning; a suffix in no cut keeps its tuple as key
        ids = self._ids
        suffixes = [
            [ids.get(s, s) for s in (tuple(seq[t - k:t]) for k in range(min(t, self.depth) + 1))]
            for t in range(len(seq))
        ]
        conc, total_conc = self.conc, self.conc * self.n
        totals = []
        for cut, log_prior in self._cut_ids:
            counts: dict = {}  # node -> [count per symbol..., total]
            ll = 0.0
            for cands, y in zip(suffixes, seq):
                for node in cands:
                    if node in cut:
                        break
                else:
                    node = cands[-1]  # ran out of history
                c = counts.get(node)
                if c is None:
                    c = counts[node] = [0.0] * (self.n + 1)
                ll += math.log((c[y] + conc) / (c[-1] + total_conc))
                c[y] += 1.0
                c[-1] += 1.0
            totals.append(log_prior + ll)
        return logsumexp(totals)


@functools.lru_cache(maxsize=16)
def _oracle(alphabet_size, max_context, concentration, stop_weight):
    # read-only once built, so one per configuration serves every call
    return CtwOracle(alphabet_size, max_context, concentration, stop_weight)


def ctw_logprob(seq, alphabet_size=2, max_context=1, concentration=0.5, stop_weight=0.5):
    return _oracle(alphabet_size, max_context, concentration, stop_weight).sequence_logprob(seq)
