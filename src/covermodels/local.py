"""Local observation models attached to contexts.

Each local model is a conjugate (or conjugate-mixture) Bayesian model
of the y of the observations that land in one context; the cover has
already placed their x. The shared duck type:

* ``prepare(y)``: the one place y is checked. Returns y in the form
  the model scores it in, the *prepared* y, or raises on an invalid y
  (``BadConfig``, or ``UnknownSymbol`` for a Dirichlet). It reads only
  the prior, so one model's prepared y serves every model with the
  same prior: the engine prepares y once per call and hands the result
  to every local on x's path.
* ``log_predictive(py)``: log posterior predictive density or mass at
  the prepared y ``py``.
* ``update(py)``: absorb one prepared observation and return the log
  predictive that was in force before it. It scores and updates in one
  pass. A y outside the model's support raises ``OutOfSupport`` before
  any state changes. The return equals what ``log_predictive(py)``
  returned just before the call, bit for bit, except for a tree
  density: its update returns the change in the root's log value,
  while its query walks the kept stop pairs, so the two agree up to
  rounding (see ``BayesTreeDensity``).

  A caller with a raw y writes ``local.update(local.prepare(y))``.
* ``absorb_block(ys)``: absorb a whole block into a local that has
  seen no point, and return the block's log marginal in closed form.
  The state equals that of ``update`` on each y in turn, bit for bit
  (a tree density's up to node ids); the marginal equals the sum of
  ``update``'s returns up to rounding. A tree density splits the block
  at each cell's cut, as a load lays out its runs, then sets every
  node value once with ``_refit``, whose rule ``update`` writes out.
  ``ys`` are y tuples as a kd cover buffers them, each of which passed
  ``prepare`` when it was absorbed (and which a snapshot load checks
  again), so they are not checked here: a wrong length or a value
  that is not finite is the caller's fault.
* ``sample(rng)``: draw y from the posterior predictive.
* ``spawn()``: an empty local with the same prior, which shares this
  one's checked prior values and tables. Every context of one cover
  model has the same prior: the engine spawns each context's local
  from the posterior's ``prior``, so a model converts and checks its
  prior once.
* ``prior()``: the prior as plain data, its kind and hyperparameters;
  a mixture's holds its prior weights and its components' priors. A
  snapshot writes it once, in its header, and a load refuses a
  snapshot whose prior is not the model's (``check_prior``).
* ``state_dict()`` / ``load(state)``: the plain-data round trip of what
  the local learnt, which ``local_from_state(state, like)`` runs as
  ``like.load(state)``: a Normal-Wishart's count and sums, a
  Dirichlet's counts, a mixture's weights and its components' states,
  and nothing for a tree density, whose state is a function of the
  points under its context, which a kd cover keeps. ``load`` returns
  ``spawn()`` with the record's counts, sums and weights set, checks
  what it can check cheaply and raises ``BadConfig`` on a malformed
  record. It does not see the prior: every record of a snapshot has
  the header's. Snapshot formats 3 and 4 repeated the prior in every
  record, and ``upgrade_state`` checks and strips it.
* ``prepare_block(ys, skip_outside=False)`` / ``refill(block, under)``:
  how a snapshot load checks the buffered ys and rebuilds what
  ``state_dict`` leaves out. Every local has ``prepare_block``: the
  posterior's prior prepares every buffered y of the cover once, and
  raises ``BadConfig`` on a y it would not take, one of the wrong
  length, a Dirichlet's non-symbol, or a y outside a tree's box, which
  a mixture's tree skips instead, as its ``update`` does. A model with
  nothing to rebuild (Normal-Wishart, Dirichlet) returns None and has
  no ``refill``. With a block, each context's local refills from
  ``under``: for a leaf, the slice of the block that its buffer holds;
  otherwise, what its children's ``refill`` returned.
* ``n_seen`` (leaf models): the number of observations absorbed.
  ``check_seen`` and ``check_nested`` compare it with what the cover
  routed to the context.
* ``copy()`` (``DirichletMultinomial``, the VMM's local): an
  independent copy, which ``CoverModelPosterior.copy`` takes of every
  context's local.

``spawn`` and ``load`` build an instance with ``__new__`` and plain
attribute stores in ``__init__``'s order: every instance of a class
then shares one attribute layout, which keeps attribute reads fast.

All are exchangeable in y, so sequential products of predictives equal
batch marginal likelihoods, which the exact posterior engine relies on,
and which ``absorb_block`` computes directly.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left

import numpy as np

from .covers import Box, as_floats, as_size, as_symbol, cut, is_number
from .errors import BadConfig, OutOfSupport, UnknownSymbol
from .logspace import LOG2, logsumexp

# the largest count a load takes: a larger JSON int has no float
_FLOAT_MAX = sys.float_info.max
_OTHER_PRIOR = "a local record has another kind or prior than the model's"


def _as_vector(y, dim):
    """y as a list of ``dim`` floats, the checked y of a vector local; a
    wrong shape or a value that is not finite raises ``BadConfig``."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (dim,):
        raise BadConfig(f"observation has shape {y.shape}, expected ({dim},)")
    y = y.tolist()
    if not all(map(math.isfinite, y)):
        raise BadConfig(f"observation {y} is not finite")
    return y


class DirichletMultinomial:
    """Dirichlet prior over a finite alphabet.

    concentration 0.5 gives the Krichevsky-Trofimov estimator, 1.0 the
    Laplace rule. ``alpha`` and ``counts`` are lists of floats, and the
    number of symbols seen is kept as a running count, so a score is
    log(alpha[y] + counts[y]) - log(sum(alpha) + seen) in ``math``
    floats, with no array built per call.
    """

    __slots__ = ("alpha", "counts", "_alpha_sum", "_seen")

    def __init__(self, alphabet_size: int, concentration=0.5):
        alphabet_size = as_size(alphabet_size, "alphabet_size", 2)
        alpha = as_floats(concentration, "concentration")
        if alpha.ndim == 0:
            try:
                alpha = np.full(alphabet_size, float(alpha))
            except (ValueError, MemoryError):  # numpy refuses the size before allocating
                raise BadConfig(f"an alphabet of {alphabet_size} symbols is too large") from None
        if alpha.shape != (alphabet_size,) or not np.all((alpha > 0) & (alpha < math.inf)):
            raise BadConfig("concentration must be positive and finite, scalar or length n")
        self.alpha = alpha.tolist()
        self.counts = [0.0] * alphabet_size
        self._alpha_sum = sum(self.alpha)
        self._seen = 0.0

    def prepare(self, y) -> int:
        return as_symbol(y, len(self.alpha))

    def log_predictive(self, y: int) -> float:
        return math.log(self.alpha[y] + self.counts[y]) - math.log(self._alpha_sum + self._seen)

    def update(self, y: int) -> float:
        # log_predictive's score, inline: a log_predictive call is a query,
        # which profiles count apart from updates
        lp = math.log(self.alpha[y] + self.counts[y]) - math.log(self._alpha_sum + self._seen)
        self.counts[y] += 1.0
        self._seen += 1.0
        return lp

    def absorb_block(self, ys) -> float:
        """Count the block's symbols (``as_symbol``, which takes the
        one-float tuples a kd cover buffers) and return the Dirichlet
        block marginal."""
        if self._seen:
            raise BadConfig("absorb_block needs a local that has seen no point")
        counts, size = self.counts, len(self.counts)
        for s in [as_symbol(y, size) for y in ys]:
            counts[s] += 1.0
            self._seen += 1.0
        a_sum = self._alpha_sum
        return sum(
            math.lgamma(a + c) - math.lgamma(a) for a, c in zip(self.alpha, counts) if c
        ) + (math.lgamma(a_sum) - math.lgamma(a_sum + self._seen))

    @property
    def n_seen(self) -> float:
        return self._seen

    def prepare_block(self, ys, skip_outside=False):
        """None, nothing to rebuild, once every y of ``ys`` is a symbol
        of the alphabet (``as_symbol``); ``BadConfig`` names the first
        that is not."""
        size = len(self.alpha)
        for y in ys:
            try:
                as_symbol(y, size)
            except UnknownSymbol:
                raise BadConfig(f"buffered y {list(y)} is not one of the {size} symbols") from None
        return None

    def copy(self) -> "DirichletMultinomial":
        """An independent copy: a new count list. ``alpha``, which no
        update changes, is shared."""
        obj = DirichletMultinomial.__new__(DirichletMultinomial)
        obj.alpha = self.alpha
        obj.counts = self.counts[:]
        obj._alpha_sum = self._alpha_sum
        obj._seen = self._seen
        return obj

    def spawn(self) -> "DirichletMultinomial":
        """An empty local that shares ``alpha``."""
        obj = DirichletMultinomial.__new__(DirichletMultinomial)
        obj.alpha = self.alpha
        obj.counts = [0.0] * len(self.alpha)
        obj._alpha_sum = self._alpha_sum
        obj._seen = 0.0
        return obj

    def sample(self, rng):
        a = np.array(self.alpha) + np.array(self.counts)
        return int(rng.choice(len(self.alpha), p=a / a.sum()))

    def prior(self):
        return {"kind": "dirichlet", "alpha": list(self.alpha)}

    def state_dict(self):
        """The counts, whole numbers, as ints: ``637``, not ``637.0``."""
        return {"counts": list(map(int, self.counts))}

    def load(self, state) -> "DirichletMultinomial":
        """``spawn()`` with the counts of ``state``, ints or integral
        floats."""
        counts = state["counts"]
        if len(counts) != len(self.alpha) or not all(
            type(c) in (int, float) and 0 <= c <= _FLOAT_MAX and float(c).is_integer()
            for c in counts
        ):
            raise BadConfig("Dirichlet counts must be nonnegative whole numbers, one per symbol")
        obj = self.spawn()
        obj.counts = [float(c) for c in counts]
        obj._seen = sum(obj.counts)
        return obj


def _nw_prior(mu0, kappa0, nu0, scale):
    """Check a Normal-Wishart prior and return ``(mu0, kappa0, nu0,
    T0)``: the mean as a list of floats, the two settings as floats and
    the scale matrix as a list of rows of floats."""
    mu0 = np.atleast_1d(as_floats(mu0, "mu0"))
    m = mu0.shape[0]
    if not m:
        raise BadConfig("mu0 must have at least one dimension")
    if nu0 is None:
        nu0 = m + 2.0
    if scale is None:
        scale = np.eye(m)
    scale = as_floats(scale, "scale")
    if scale.ndim == 0:
        scale = float(scale) * np.eye(m)
    if not np.isfinite(mu0).all():
        raise BadConfig("mu0 must be finite")
    if not (is_number(kappa0) and 0 < kappa0 < math.inf):
        raise BadConfig("kappa0 must be positive and finite")
    if not (is_number(nu0) and m - 1 < nu0 < math.inf):
        raise BadConfig("nu0 must exceed dim - 1 and be finite")
    if scale.shape != (m, m):
        raise BadConfig("scale matrix has wrong shape")
    if not all(map(math.isfinite, scale.ravel().tolist())):
        raise BadConfig("scale matrix must be finite")
    if m == 1:
        if not scale[0, 0] > 0:
            raise BadConfig("scale must be positive")
    else:
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            raise BadConfig("scale matrix must be positive definite") from None
    return mu0.tolist(), float(kappa0), float(nu0), scale.tolist()


class NormalWishart:
    """Normal-Wishart conjugate model for vector observations.

    Prior: precision ~ Wishart(nu0, T0^-1), mean | precision ~
    Normal(mu0, (kappa0 * precision)^-1). The posterior predictive is a
    multivariate Student t with nu_n - m + 1 degrees of freedom.

    ``mu0`` and ``sum_y`` are lists of floats, ``T0`` and ``sum_yy``
    lists of rows of floats. Arrays are built only for the linear
    algebra of dim m > 1, in ``posterior_params`` and ``_score``.
    """

    def __init__(self, mu0, kappa0=1.0, nu0=None, scale=None):
        self.mu0, self.kappa0, self.nu0, self.T0 = _nw_prior(mu0, kappa0, nu0, scale)
        self.dim = m = len(self.mu0)
        self.n = 0
        self.sum_y = [0.0] * m
        self.sum_yy = [[0.0] * m for _ in range(m)]
        self._cache = None

    def spawn(self) -> "NormalWishart":
        """An empty local that shares ``mu0`` and ``T0``."""
        obj = NormalWishart.__new__(NormalWishart)
        obj.mu0 = self.mu0
        obj.kappa0 = self.kappa0
        obj.nu0 = self.nu0
        obj.T0 = self.T0
        obj.dim = m = self.dim
        obj.n = 0
        obj.sum_y = [0.0] * m
        obj.sum_yy = [[0.0] * m for _ in range(m)]
        obj._cache = None
        return obj

    def prepare(self, y):
        """y as a list of ``dim`` floats; a wrong shape or a value that
        is not finite raises ``BadConfig``."""
        return _as_vector(y, self.dim)

    def posterior_params(self):
        """Posterior mean, kappa, nu and scale matrix, as arrays."""
        kn = self.kappa0 + self.n
        vn = self.nu0 + self.n
        mu0, T0 = np.array(self.mu0), np.array(self.T0)
        if self.n == 0:
            return mu0, kn, vn, T0
        sum_y = np.array(self.sum_y)
        ybar = sum_y / self.n
        mun = (self.kappa0 * mu0 + sum_y) / kn
        scatter = np.array(self.sum_yy) - self.n * np.outer(ybar, ybar)
        shift = (self.kappa0 * self.n / kn) * np.outer(ybar - mu0, ybar - mu0)
        return mun, kn, vn, T0 + scatter + shift

    def _posterior_1d(self):
        """Dim 1 posterior mean, kappa, nu and scale, as floats."""
        kn = self.kappa0 + self.n
        mu0 = self.mu0[0]
        mun, tn = mu0, self.T0[0][0]
        if self.n:
            s = self.sum_y[0]
            ybar = s / self.n
            mun = (self.kappa0 * mu0 + s) / kn
            scatter = self.sum_yy[0][0] - self.n * ybar * ybar
            tn += scatter + (self.kappa0 * self.n / kn) * (ybar - mu0) ** 2
        return mun, kn, self.nu0 + self.n, tn

    def _student_1d(self):
        """Dim 1 Student t mean, df and squared scale."""
        mun, kn, df, tn = self._posterior_1d()
        return mun, df, tn * (kn + 1.0) / (kn * df)

    def _refresh(self):
        """Student t parameters (mean, df, scale, log normaliser).

        In dim 1 the mean and the squared scale are floats. Above, the
        scale is the Cholesky factor of the scale matrix.
        """
        if self._cache is not None:
            return self._cache
        m = self.dim
        if m == 1:
            mun, df, scale = self._student_1d()
            logdet = math.log(scale)
        else:
            mun, kn, vn, Tn = self.posterior_params()
            df = vn - m + 1.0
            sigma = Tn * (kn + 1.0) / (kn * df)
            # symmetrise before factoring; scatter accumulation is not exact
            sigma = 0.5 * (sigma + sigma.T)
            scale = np.linalg.cholesky(sigma)
            logdet = 2.0 * float(np.sum(np.log(np.diag(scale))))
        const = (
            math.lgamma(0.5 * (df + m))
            - math.lgamma(0.5 * df)
            - 0.5 * m * math.log(df * math.pi)
            - 0.5 * logdet
        )
        self._cache = (mun, df, scale, const)
        return self._cache

    def _score(self, y) -> float:
        mun, df, scale, const = self._refresh()
        if self.dim == 1:
            d = y[0] - mun
            q = d * d / scale
        else:
            u = np.linalg.solve(scale, np.subtract(y, mun))
            q = float(u @ u)
        return const - 0.5 * (df + self.dim) * math.log1p(q / df)

    def log_predictive(self, y) -> float:
        return self._score(y)

    def _add(self, y):
        """Count y and add it to the sums."""
        self.n += 1
        sum_y = self.sum_y
        for i, (v, row) in enumerate(zip(y, self.sum_yy)):
            sum_y[i] += v
            for j, w in enumerate(y):
                row[j] += v * w
        self._cache = None

    def update(self, y) -> float:
        lp = self._score(y)
        self._add(y)
        return lp

    def absorb_block(self, ys) -> float:
        """Add the block to the sums, as ``update`` does, and return the
        conjugate block marginal

            -(n m / 2) log pi + (m / 2) (log kappa0 - log kappa_n)
            + logGamma_m(nu_n / 2) - logGamma_m(nu0 / 2)
            + (nu0 / 2) log|T0| - (nu_n / 2) log|T_n|

        in ``math`` floats; numpy computes the log determinants above
        dim 1."""
        if self.n:
            raise BadConfig("absorb_block needs a local that has seen no point")
        for y in ys:
            self._add(y)
        m = self.dim
        if m == 1:
            _, kn, vn, tn = self._posterior_1d()
            logdet0, logdetn = math.log(self.T0[0][0]), math.log(tn)
        else:
            _, kn, vn, tn = self.posterior_params()
            logdet0 = float(np.linalg.slogdet(np.array(self.T0))[1])
            logdetn = float(np.linalg.slogdet(tn)[1])
        # logGamma_m(a) = m (m - 1) / 4 log pi + sum_j lgamma(a - j / 2);
        # the log pi terms of the two cancel
        log_gammas = 0.0
        for j in range(m):
            log_gammas += math.lgamma(0.5 * (vn - j)) - math.lgamma(0.5 * (self.nu0 - j))
        return (
            -0.5 * self.n * m * math.log(math.pi)
            + 0.5 * m * (math.log(self.kappa0) - math.log(kn))
            + log_gammas
            + 0.5 * self.nu0 * logdet0
            - 0.5 * vn * logdetn
        )

    @property
    def n_seen(self) -> int:
        return self.n

    def prepare_block(self, ys, skip_outside=False):
        """None, nothing to rebuild, once every y of ``ys`` is ``dim``
        long; ``BadConfig`` names the first that is not."""
        m = self.dim
        bad = next((y for y in ys if len(y) != m), None)
        if bad is not None:
            raise BadConfig(f"buffered y {list(bad)} has length {len(bad)}, expected {m}")
        return None

    def sample(self, rng):
        mun, df, scale, _ = self._refresh()
        z = rng.standard_normal(self.dim)
        u = rng.chisquare(df)
        if self.dim == 1:
            return float(mun + (math.sqrt(scale) * z[0]) / math.sqrt(u / df))
        return mun + (scale @ z) / math.sqrt(u / df)

    def prior(self):
        return {
            "kind": "normal_wishart",
            "mu0": self.mu0[:],
            "kappa0": self.kappa0,
            "nu0": self.nu0,
            "T0": [row[:] for row in self.T0],
        }

    def state_dict(self):
        return {"n": self.n, "sum_y": self.sum_y[:], "sum_yy": [row[:] for row in self.sum_yy]}

    def load(self, state) -> "NormalWishart":
        """``spawn()`` with the count and sums of ``state``."""
        obj = self.spawn()
        obj.n = state["n"]
        if type(obj.n) is not int or obj.n < 0:
            raise BadConfig("Normal-Wishart count must be a nonnegative int")
        # shapes and finiteness, on plain floats
        m, sum_y, sum_yy = obj.dim, state["sum_y"], state["sum_yy"]
        if len(sum_y) != m or not all(map(math.isfinite, sum_y)):
            raise BadConfig(f"Normal-Wishart sum_y must have length {m} and be finite")
        if len(sum_yy) != m or not all(
            len(row) == m and all(map(math.isfinite, row)) for row in sum_yy
        ):
            raise BadConfig(f"Normal-Wishart sum_yy must be {m} by {m} and finite")
        if obj.n == 0 and (any(sum_y) or any(map(any, sum_yy))):
            raise BadConfig("Normal-Wishart sums must be zero before any observation")
        obj.sum_y = [float(v) for v in sum_y]
        obj.sum_yy = [[float(v) for v in row] for row in sum_yy]
        # Data only ever grows the posterior scale T0 + scatter + shift
        # from the positive definite T0, so sums that leave it otherwise
        # came from no data, and would fail the first predict.
        if m == 1:
            scale_ok = 0.0 < obj._student_1d()[2] < math.inf
        else:
            try:
                obj._refresh()
                scale_ok = True
            except np.linalg.LinAlgError:
                scale_ok = False
        if not scale_ok:
            raise BadConfig("Normal-Wishart sums give a posterior scale that is not positive")
        return obj


# A query walk scales its running product and sum down by _RESCALE, a
# power of two and so exact, whenever the product passes _BIG, and adds
# _LOG_RESCALE per scaling to the result: a product grows by less than 2
# per level, and max_depth may reach 2100 * dim.
_BIG = 1e300
_RESCALE = 2.0**-1000
_LOG_RESCALE = 1000.0 * LOG2


class BayesTreeDensity:
    """Dyadic tree density on a box, an optional Pólya tree.

    Every node mixes "points here are uniform on my box" (weight gamma)
    against "split at the midpoint of my largest side and send points
    to the children with Beta-distributed proportions" (weight
    1 - gamma). Counts are the only state; the per-node mixture value

        lam = gamma * vol^-n
            + (1 - gamma) * B(a + nL, a + nR) / B(a, a) * lam_L * lam_R

    is cached in log space. Nodes at ``max_depth`` are forced uniform.
    Volumes halve per level, so vol at depth k is vol(root) / 2^k.

    ``_refit`` states that recursion for a list of nodes, and
    ``update`` writes it out for its path, with the same operands in
    the same order, so updating, absorbing a block and rebuilding from
    a snapshot agree bit for bit. Its log-Beta terms come from the
    tree's lists of lgamma(a + k) and lgamma(2a + k), which
    ``_grow_tables`` extends. It also sets the node's *stop pair*: the
    posterior g that points at the node are uniform on its box, and
    1 - g, each computed directly rather than as 1 minus the other.

    The tree stores only the nodes its points distinguish:

    * An empty node has no children; its value is 0.
    * A *singleton* is a childless node above ``max_depth`` that holds
      one point and keeps that point rather than a chain of one-point
      nodes below it. ``_one[k]``, which ``_refit`` sets on a chain of
      one point at construction, is the value of any depth-k node that
      holds one point: a singleton, or the empty node a new point lands
      in.
    * A second point pushes a singleton's point down one level at a
      time while the two share a cell, so the chain ends where they
      part or at ``max_depth``. No point is stored at ``max_depth``.

    ``update``, the one per-point descent, walks y's route down and back
    up with no call per level but ``_push``, the one push of a
    singleton's point. ``absorb_block`` splits a block's runs at each
    cell's ``cut``, as ``_layout`` splits a load's at their route bits,
    and ``_fill_values`` then refits every node.

    ``log_predictive`` reads the kept stop pairs and never a value or a
    log-Beta term. The predictive density of y at a node is

        psi = g / vol + (1 - g) * (a + n_side) / (2a + n) * psi_child,

    with n_side the count of the child on y's side, so the query is one
    top-down multiply-add walk over y's route, in units of 1 / vol at
    the root: per level, ``total += acc * g`` and
    ``acc *= 2 (1 - g) (a + n_side) / (2a + n)``, one log at the end.
    Two closed forms end the walk. A node that holds no point, and a
    node at ``max_depth``, give y the uniform density of their box,
    since B(a + 1, a) / B(a, a) = 1/2 makes the prior predictive
    uniform at every depth: the walk adds ``acc``. On a singleton's
    one-point chain, for the same reason, every node's stop posterior
    is gamma, and ``acc`` takes one of two factors per level (``_chain``),
    whether y stays in the point's cell or leaves it. ``acc`` and
    ``total`` are scaled down by a power of two when ``acc`` passes
    1e300, as it can over thousands of levels. Unlike the difference of
    two root values, each of size n |log vol|, this keeps the query's
    rounding near that of its last log; it equals the update's return
    only up to that rounding. ``sample`` reads the kept pairs too: it
    stops at a node with children with probability g, and with gamma
    on a singleton's chain or below an empty node, so a node's stop
    posterior is computed only with its value.

    The partition is fixed by the box and ``max_depth``, as a Pólya
    tree's is, so y's route through it (split dimension, midpoint and
    side at each depth) depends on y alone. ``prepare`` computes the
    route once, and every tree with the same prior walks it. A model's
    trees are spawned from one tree (``spawn``), so they also share its
    box and tables.

    Nodes live in flat lists indexed by node id, root at 0: ``_n``
    (count), ``_lam`` (cached log value), ``_g`` and ``_h`` (the stop
    pair g and 1 - g, set for a node with children), ``_kid`` (id of
    the left child, the right one follows it; 0 for a leaf, since the
    root is nobody's child) and ``_pt`` (a singleton's point, ``dim``
    floats per node). A container per node or per point would leave
    tens of thousands of small objects per model for the garbage
    collector to walk.

    The tree's state is a function of the points it holds, and the kd
    cover buffers every point, so a snapshot stores no state of its own
    (format 3 also stored counts and singleton points, which a load
    ignores). A load rebuilds the tree from the buffered ys under its
    context: ``prepare_block`` routes every buffered y down the
    partition once, to ``max_depth``, and packs its sides into an int,
    the *route code*; ``refill`` sorts a context's codes and lays the
    tree out in one pass over them (``_layout``), then ``_fill_values``
    sets every value and pair. The rebuilt tree equals the saved one bit
    for bit; only node ids may differ, which nothing reads.
    """

    def __init__(self, lower, upper, gamma=0.5, branch_pseudo=0.5, max_depth=12):
        box = Box(lower, upper)
        if not 0.0 < box.volume() < math.inf:  # Box checks each bound, not their product
            raise BadConfig("the tree's box volume must be positive and finite")
        if not (is_number(gamma) and 0 < gamma < 1):
            raise BadConfig("gamma must be strictly between 0 and 1")
        # NaN too: every lgamma of it is NaN
        if not (is_number(branch_pseudo) and 0 < branch_pseudo < math.inf):
            raise BadConfig("branch_pseudo must be positive and finite")
        # widths run from about 2^1024 down to 2^-1074, so no side of a
        # float box halves more than about 2100 times; checked before
        # max_depth sizes the tables below
        top = as_size(max_depth, "max_depth", 0)
        if top > 2100 * box.dim:
            raise BadConfig(f"max_depth must be in [0, {2100 * box.dim}]")
        g = float(gamma)
        a = float(branch_pseudo)
        try:
            log_beta0 = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
        except OverflowError:
            raise BadConfig("branch_pseudo is too large for lgamma(2 branch_pseudo)") from None
        self.box = box
        self.gamma = g
        self.branch_pseudo = a
        self.max_depth = top
        log_vol0 = math.log(box.volume())
        self._log_vol = [log_vol0 - k * math.log(2.0) for k in range(top + 1)]
        self._log_gamma = math.log(g)
        self._log_split = math.log1p(-g)
        self._log_beta0 = log_beta0
        self._dim = box.dim
        self._lg_a, self._lg_2a = [], []
        self._grow_tables(2)
        # the chain of one point down to max_depth, refit as a tree: node
        # 2k, at depth k, holds the point and has children 2k + 1, empty,
        # and 2k + 2. Its one leaf with a point is at max_depth, so
        # _refit reads no _one on it.
        self._one = ()
        self._n = [1, 0] * top + [1]
        self._kid = [i for k in range(top) for i in (2 * k + 1, 0)] + [0]
        self._fill_values([(i + 1) // 2 for i in range(2 * top + 1)])
        self._one = self._lam[::2]
        # the factors of the query's product on a one-point chain, whose
        # stop posterior is gamma, for a y that stays in the point's cell
        # or leaves it: 2 (1 - g) (a + 1) / (2a + 1) and 2 (1 - g) a / (2a + 1)
        split = 2.0 * (1.0 - g) / (2.0 * a + 1.0)
        self._chain = (split * (a + 1.0), split * a)
        self._pt_pair = (0.0,) * (2 * box.dim)
        self._empty()

    def _empty(self):
        """Set the node lists of a tree that holds no point: the root."""
        self._n = [0]
        self._lam = [0.0]
        self._g = [0.0]
        self._h = [0.0]
        self._kid = [0]
        self._pt = [0.0] * self._dim

    def spawn(self) -> "BayesTreeDensity":
        """An empty tree that shares this one's box and tables."""
        obj = BayesTreeDensity.__new__(BayesTreeDensity)
        obj.box = self.box
        obj.gamma = self.gamma
        obj.branch_pseudo = self.branch_pseudo
        obj.max_depth = self.max_depth
        obj._log_vol = self._log_vol
        obj._log_gamma = self._log_gamma
        obj._log_split = self._log_split
        obj._log_beta0 = self._log_beta0
        obj._dim = self._dim
        obj._lg_a = self._lg_a
        obj._lg_2a = self._lg_2a
        obj._one = self._one
        obj._chain = self._chain
        obj._pt_pair = self._pt_pair
        obj._empty()
        return obj

    def _grow_tables(self, n):
        """Extend the lists of lgamma(a + k) and lgamma(2a + k) in place
        to k = 0 .. n at least, or to twice their length if that is more.
        Every tree spawned from this one shares them."""
        a, lg_a, lg_2a = self.branch_pseudo, self._lg_a, self._lg_2a
        size = max(n + 1, 2 * len(lg_a))
        lg_a += [math.lgamma(a + k) for k in range(len(lg_a), size)]
        lg_2a += [math.lgamma(2.0 * a + k) for k in range(len(lg_2a), size)]

    @property
    def log_evidence(self) -> float:
        """Log marginal density of the points absorbed so far."""
        return self._lam[0]

    def _push(self, node, depth, d, mid):
        """``update``'s step past a singleton on its path, which a laid
        out block never takes: push the point of the singleton ``node``
        one level down, to ``depth``. Materialise two children and count
        the point into the one on its side of ``mid`` on dimension
        ``d``, of value ``_one[depth]``, which keeps it above
        ``max_depth``. Returns the left child's id."""
        left = len(self._n)
        self._n += (0, 0)
        self._kid += (0, 0)
        self._lam += (0.0, 0.0)
        self._g += (0.0, 0.0)
        self._h += (0.0, 0.0)
        self._pt += self._pt_pair
        self._kid[node] = left
        p = self._point(node)
        q = left if p[d] < mid else left + 1
        self._n[q] = 1
        self._lam[q] = self._one[depth]
        if depth < self.max_depth:
            self._put(q, p)
        return left

    def _point(self, node):
        dim = self._dim
        return self._pt[node * dim:(node + 1) * dim]

    def _put(self, node, y):
        dim = self._dim
        self._pt[node * dim:(node + 1) * dim] = y

    def _refit(self, nodes, depths):
        """Set each node's value, and a node with children's stop pair,
        at its depth in ``depths``, from its count and its children's
        values, which come first. Counts are taken as they are, each
        the sum of its children's.
        A node with children takes the class docstring's recursion, with
        ``update``'s operands in ``update``'s order; a leaf that holds
        points is uniform at ``max_depth`` and a singleton above it."""
        n, kid, lam, stop, go = self._n, self._kid, self._lam, self._g, self._h
        lg_a, lg_2a = self._lg_a, self._lg_2a
        if len(lg_2a) <= n[0]:
            self._grow_tables(n[0])
        top, one, log_vol = self.max_depth, self._one, self._log_vol
        log_gamma, log_split, log_beta0 = self._log_gamma, self._log_split, self._log_beta0
        exp, log1p = math.exp, math.log1p
        for node, depth in zip(nodes, depths):
            left = kid[node]
            if left:
                count, nl = n[node], n[left]
                a = log_gamma + -count * log_vol[depth]
                log_beta = lg_a[nl] + lg_a[count - nl] - lg_2a[count]
                b = log_split + log_beta - log_beta0 + lam[left] + lam[left + 1]
                # logaddexp(a, b), and the stop pair from the same exp
                d = a - b
                if a == b:
                    lam[node], stop[node], go[node] = a + LOG2, 0.5, 0.5
                elif d > 0:
                    e = exp(-d)
                    s = 1.0 / (1.0 + e)
                    lam[node], stop[node], go[node] = a + log1p(e), s, e * s
                elif d <= 0:
                    e = exp(d)
                    s = 1.0 / (1.0 + e)
                    lam[node], stop[node], go[node] = b + log1p(e), e * s, s
                else:  # a or b is nan
                    lam[node] = stop[node] = go[node] = d
            elif n[node]:
                lam[node] = -n[node] * log_vol[top] if depth == top else one[depth]

    def prepare(self, y):
        """``(floats, inside, route)`` for y: its checked floats, whether
        it lies in the box, and, when it does, its route down the
        partition, one ``(d, mid, side)`` per depth below ``max_depth``:
        the split dimension and midpoint of y's cell at that depth, and
        y's side of it (0 below ``mid``). The partition depends on the
        box and ``max_depth`` alone, so every tree with this prior
        follows the same route. A wrong shape or a value that is not
        finite raises ``BadConfig``."""
        y = _as_vector(y, self._dim)
        if not self.box.contains(y, closed=True):
            return y, False, None
        lo = list(self.box.lower)
        hi = list(self.box.upper)
        route = []
        for _ in range(self.max_depth):
            d, mid = cut(lo, hi)
            if y[d] < mid:
                hi[d] = mid
                route.append((d, mid, 0))
            else:
                lo[d] = mid
                route.append((d, mid, 1))
        return y, True, route

    def log_predictive(self, y) -> float:
        """The walk of the class docstring: stop pairs and counts down
        y's route, to an empty node, a singleton's chain or
        ``max_depth``."""
        _, inside, route = y
        if not inside:
            return -math.inf
        counts, kid, stop, go = self._n, self._kid, self._g, self._h
        a = self.branch_pseudo
        a2 = a + a
        total, acc, shift = 0.0, 1.0, 0
        node, n = 0, counts[0]
        for depth, (d, mid, side) in enumerate(route):
            if not n:
                break
            left = kid[node]
            if not left:  # a singleton: y follows its point's chain
                g, (stay, leave) = self.gamma, self._chain
                pt, base = self._pt, node * self._dim
                for d, mid, side in route[depth:]:
                    total += acc * g
                    if (pt[base + d] >= mid) != side:
                        acc *= leave
                        break
                    acc *= stay
                    if acc > _BIG:
                        acc *= _RESCALE
                        total *= _RESCALE
                        shift += 1
                break
            m = counts[left + side]
            total += acc * stop[node]
            acc *= 2.0 * go[node] * (a + m) / (a2 + n)
            if acc > _BIG:
                acc *= _RESCALE
                total *= _RESCALE
                shift += 1
            node, n = left + side, m
        # an empty node, the end of a chain or max_depth: uniform
        total += acc
        return math.log(total) + shift * _LOG_RESCALE - self._log_vol[0]

    def update(self, y) -> float:
        """Count y in down its route, pushing a singleton on the way one
        level down, then set the value and stop pair of every node above
        its end, back up the path, by ``_refit``'s rule with its operands
        in its order."""
        y, inside, route = y
        if not inside:
            raise OutOfSupport(f"{y!r} outside {self.box!r}")
        counts, kid, lam, top = self._n, self._kid, self._lam, self.max_depth
        old = lam[0]
        node = depth = 0
        path = []  # the nodes above y's end: path[k] is at depth k
        while counts[node] and depth < top:
            d, mid, side = route[depth]
            counts[node] += 1
            path.append(node)
            depth += 1
            node = (kid[node] or self._push(node, depth, d, mid)) + side
        counts[node] += 1
        if depth < top:  # an empty node turned singleton
            self._put(node, y)
            lam[node] = self._one[depth]
        else:
            lam[node] = -counts[node] * self._log_vol[top]
        stop, go, lg_a, lg_2a = self._g, self._h, self._lg_a, self._lg_2a
        if len(lg_2a) <= counts[0]:
            self._grow_tables(counts[0])
        log_vol, log_gamma = self._log_vol, self._log_gamma
        log_split, log_beta0 = self._log_split, self._log_beta0
        exp, log1p = math.exp, math.log1p
        for depth in range(depth - 1, -1, -1):
            node = path[depth]
            left, n = kid[node], counts[node]
            nl = counts[left]
            a = log_gamma + -n * log_vol[depth]
            log_beta = lg_a[nl] + lg_a[n - nl] - lg_2a[n]
            b = log_split + log_beta - log_beta0 + lam[left] + lam[left + 1]
            d = a - b
            if a == b:
                lam[node], stop[node], go[node] = a + LOG2, 0.5, 0.5
            elif d > 0:
                e = exp(-d)
                s = 1.0 / (1.0 + e)
                lam[node], stop[node], go[node] = a + log1p(e), s, e * s
            elif d <= 0:
                e = exp(d)
                s = 1.0 / (1.0 + e)
                lam[node], stop[node], go[node] = b + log1p(e), e * s, s
            else:  # a or b is nan
                lam[node] = stop[node] = go[node] = d
        return lam[0] - old

    def sample(self, rng):
        lo = list(self.box.lower)
        hi = list(self.box.upper)
        node = 0  # None below the materialised tree: an empty node
        p = None  # a singleton's point, whose one-point chain the walk is on
        a, gamma = self.branch_pseudo, self.gamma
        for _ in range(self.max_depth):
            left = 0
            if p is not None:
                n = 1
            elif node is None:
                n = 0
            else:
                n, left = self._n[node], self._kid[node]
                if n == 1 and not left:
                    p, node = self._point(node), None
            # the kept stop pair, or gamma on a one-point chain or when empty
            if rng.uniform() < (self._g[node] if left else gamma):
                break
            d, mid = cut(lo, hi)
            if left:
                n_hi = self._n[left + 1]
            else:  # p's side on its chain, 0 below an empty node
                n_hi = 0 if p is None or p[d] < mid else 1
            if rng.uniform() < (a + n_hi) / (2 * a + n):
                lo[d] = mid
                side = 1
            else:
                hi[d] = mid
                side = 0
            node = left + side if left else None
            if p is not None and side != n_hi:
                p = None
        y = rng.uniform(lo, hi)
        return y if self.box.dim > 1 else float(y[0])

    @property
    def n_seen(self) -> int:
        return self._n[0]

    def prior(self):
        return {
            "kind": "bayes_tree",
            "lower": list(self.box.lower),
            "upper": list(self.box.upper),
            "gamma": self.gamma,
            "branch_pseudo": self.branch_pseudo,
            "max_depth": self.max_depth,
        }

    def state_dict(self):
        """Nothing: a load rebuilds the tree with ``refill``."""
        return {}

    def prepare_block(self, ys, skip_outside=False):
        """``refill``'s block for ``ys``, tuples of floats as a kd cover
        buffers them: ``(keys, ys, top_bit, mask)``.

        ``keys`` holds one sort key per y, its route code shifted left
        past a field that holds y's index in ``ys``, or None for a y
        outside the box. A route code holds y's side at depth k in bit
        ``top_bit - k`` of its key, so keys sort as the partition's
        leaves do, and ``key & mask`` is y's index.

        When two or more ys lie in the box, each is routed to
        ``max_depth`` in numpy with ``cut``'s operations, so its code is
        ``prepare``'s route. A lone y is not routed and its code is 0:
        ``_layout`` reads no side of a y alone in its cell.

        A y outside the box is skipped, as ``update`` skips it inside a
        mixture, when ``skip_outside`` is set, and raises ``BadConfig``
        otherwise, as does a y that is not ``dim`` long.
        """
        dim, n, top = self._dim, len(ys), self.max_depth
        if len(self._lg_2a) <= n:  # sized once: no refill count exceeds n
            self._grow_tables(n)
        pts = np.array(ys, dtype=float) if n else np.zeros((0, dim))
        if pts.shape[1:] != (dim,):
            raise BadConfig(f"buffered y {list(ys[0])} has length {len(ys[0])}, expected {dim}")
        lower, upper = np.array(self.box.lower), np.array(self.box.upper)
        inside = np.all((lower <= pts) & (pts <= upper), axis=1)
        idx = np.flatnonzero(inside)
        if not skip_outside and len(idx) < n:
            y = ys[int(np.flatnonzero(~inside)[0])]
            raise BadConfig(f"buffered y {list(y)} is outside the tree's y box")
        m = len(idx)
        pts, r = pts[idx], np.arange(m)
        lo, hi = np.tile(lower, (m, 1)), np.tile(upper, (m, 1))
        sides = np.zeros((m, top), dtype=bool)
        for k in range(top if m > 1 else 0):
            d = (hi - lo).argmax(axis=1)
            a, b = lo[r, d], hi[r, d]
            mid = 0.5 * (a + b)
            up = sides[:, k] = ~(pts[r, d] < mid)
            lo[r, d] = np.where(up, mid, a)
            hi[r, d] = np.where(up, b, mid)
        packed = np.packbits(sides, axis=1)
        width, pad = packed.shape[1], -top % 8  # bytes per code, and their zero bits past it
        codes = packed.tobytes()
        shift = n.bit_length()  # a code goes above the index field
        keys = [None] * n  # None for a y outside the box
        for j, i in enumerate(idx.tolist()):
            keys[i] = int.from_bytes(codes[j * width:(j + 1) * width], "big") >> pad << shift | i
        return keys, ys, shift + top - 1, (1 << shift) - 1

    def refill(self, block, under):
        """Lay the empty tree out from the ys of ``block`` under its
        context, and return their sorted keys for the parent's refill.
        ``under`` is a leaf's slice of the block, or the list of its
        children's returns, whose sorted runs one sort merges."""
        if type(under) is slice:
            keys = [k for k in block[0][under] if k is not None]
        else:
            keys = [k for run in under for k in run]
        keys.sort()
        self._layout(keys, block)
        return keys

    def _layout(self, keys, block):
        """Set the nodes from ``keys``, sorted: the points under a node
        are one run of them, and the first of its high child's is where
        the node's side bit turns 1 (``bisect``). A run of two or more
        points above ``max_depth`` splits into a pair of children, a run
        of one there is a singleton that keeps its point, and a run at
        ``max_depth`` keeps none, as ``update`` leaves them."""
        _, ys, top_bit, mask = block
        top, dim, pair = self.max_depth, self._dim, self._pt_pair
        size = len(keys)
        n, kid, depth, pt = [size], [0], [0], [0.0] * dim
        todo = []  # runs to split: node, depth, keys[i:j], the node's route bits
        if size > 1 and top:
            todo.append((0, 0, 0, size, 0))
        elif size and top:
            pt[:] = ys[keys[0] & mask]
        pop, push = todo.pop, todo.append
        while todo:
            node, k, i, j, route = pop()
            high = route | 1 << (top_bit - k)
            m = bisect_left(keys, high, i, j)
            left = len(n)
            kid[node] = left
            k += 1
            n += (m - i, j - m)
            kid += (0, 0)
            depth += (k, k)
            pt += pair
            if k < top:
                if j - m > 1:
                    push((left + 1, k, m, j, high))
                elif j > m:
                    pt[(left + 1) * dim:(left + 2) * dim] = ys[keys[m] & mask]
                if m - i > 1:
                    push((left, k, i, m, route))
                elif m > i:
                    pt[left * dim:(left + 1) * dim] = ys[keys[i] & mask]
        self._n, self._kid, self._pt = n, kid, pt
        self._fill_values(depth)

    def _fill_values(self, depth):
        """``_refit`` every node, children (larger ids) first; ``depth``
        holds each node's depth."""
        size = len(depth)
        self._lam, self._g, self._h = [0.0] * size, [0.0] * size, [0.0] * size
        self._refit(range(size - 1, -1, -1), reversed(depth))

    def absorb_block(self, ys) -> float:
        """Absorb a block into the empty tree and return its log marginal,
        the root's value (a Pólya tree marginal): lay out the ys inside
        the box by ``_layout``'s rule, each run split at its cell's
        ``cut``. The state equals that of ``update`` on each y in turn,
        bit for bit, up to node ids. A y outside the box is skipped, and
        the marginal is -inf."""
        if self._n[0]:
            raise BadConfig("absorb_block needs a local that has seen no point")
        box, top, dim, pair = self.box, self.max_depth, self._dim, self._pt_pair
        block = [y for y in ys if box.contains(y, closed=True)]
        size = len(block)
        n, kid, depth, pt = [size], [0], [0], [0.0] * dim
        todo = []  # runs to split: node, depth, its ys, its cell's bounds
        if size > 1 and top:
            todo.append((0, 0, block, box.lower, box.upper))
        elif size and top:
            pt[:] = block[0]
        pop, push = todo.pop, todo.append
        while todo:
            node, k, run, lo, hi = pop()
            d, mid = cut(lo, hi)
            low = [y for y in run if y[d] < mid]
            high = [y for y in run if not y[d] < mid]
            left = len(n)
            kid[node] = left
            k += 1
            n += (len(low), len(high))
            kid += (0, 0)
            depth += (k, k)
            pt += pair
            if k < top:
                if len(high) > 1:
                    push((left + 1, k, high, lo[:d] + (mid,) + lo[d + 1:], hi))
                elif high:
                    pt[(left + 1) * dim:(left + 2) * dim] = high[0]
                if len(low) > 1:
                    push((left, k, low, lo, hi[:d] + (mid,) + hi[d + 1:]))
                elif low:
                    pt[left * dim:(left + 1) * dim] = low[0]
        self._n, self._kid, self._pt = n, kid, pt
        self._fill_values(depth)
        return -math.inf if size < len(ys) else self._lam[0]

    def load(self, state) -> "BayesTreeDensity":
        """``spawn()``, which ``refill`` lays out: ``state`` is empty."""
        return self.spawn()


class MixtureLocal:
    """Finite Bayesian mixture of local models.

    The weight over components is itself updated by Bayes rule using
    each component's predictive for the incoming observation, then the
    components update. A component that rejects the observation as
    outside its support keeps its state and loses all weight on that
    point. ``log_w`` holds the log weights as a list of floats, and
    ``prior_log_w`` the prior's, which every spawn shares.
    """

    def __init__(self, components, log_weights=None):
        if not components:
            raise BadConfig("mixture needs at least one component")
        self.components = list(components)
        k = len(self.components)
        if log_weights is None:
            self.log_w = [-math.log(k)] * k
        else:
            lw = as_floats(log_weights, "log_weights")
            if lw.shape != (k,):
                raise BadConfig("log_weights length must match components")
            total = logsumexp(lw.tolist())
            if not math.isfinite(total):  # a NaN or +inf weight, or only -inf ones
                raise BadConfig("log_weights must hold no NaN or +inf and not all -inf")
            self.log_w = [v - total for v in lw.tolist()]
        self.prior_log_w = self.log_w
        self._warned_skip = False

    def _with(self, components, log_w) -> "MixtureLocal":
        """A mixture of ``components`` with the log weights ``log_w``,
        taken as they are, and this one's prior weights."""
        obj = MixtureLocal.__new__(MixtureLocal)
        obj.components = components
        obj.log_w = log_w
        obj.prior_log_w = self.prior_log_w
        obj._warned_skip = False
        return obj

    def spawn(self) -> "MixtureLocal":
        """An empty mixture of the components' spawns, with the prior
        weights, which no update changes in place."""
        return self._with([c.spawn() for c in self.components], self.prior_log_w)

    def prepare(self, y):
        """The components' prepared ys, in order."""
        return [c.prepare(y) for c in self.components]

    def log_predictive(self, y) -> float:
        return logsumexp(
            [w + c.log_predictive(py) for w, c, py in zip(self.log_w, self.components, y)]
        )

    def _reweight(self, joint, skipped):
        """Set the log weights to ``joint`` (prior log weight plus log
        evidence, per component) normalised; return the normaliser.
        ``skipped`` is why a component scored -inf, or None."""
        total = logsumexp(joint)
        if total == -math.inf:
            raise OutOfSupport(f"no component supports the observation: {skipped}")
        self.log_w = [j - total for j in joint]
        if skipped is not None and not self._warned_skip:
            warnings.warn(
                "mixture component skipped an out-of-support observation", RuntimeWarning
            )
            self._warned_skip = True
        return total

    def update(self, y) -> float:
        joint = []
        skipped = None
        for w, comp, py in zip(self.log_w, self.components, y):
            try:
                joint.append(w + comp.update(py))
            except OutOfSupport as exc:
                # the component raised before changing: it scores -inf
                joint.append(-math.inf)
                skipped = exc
        return self._reweight(joint, skipped)

    def absorb_block(self, ys) -> float:
        """Absorb the block into every component and reweight by their
        block marginals, -inf for one that skipped an out-of-support y.
        An empty block keeps the prior's weights, bit for bit."""
        if not ys:
            return 0.0
        marg = [c.absorb_block(ys) for c in self.components]
        skipped = "a y of the block is out of support" if -math.inf in marg else None
        return self._reweight([w + e for w, e in zip(self.log_w, marg)], skipped)

    def sample(self, rng):
        k = rng.choice(len(self.components), p=np.exp(self.log_w))
        return self.components[k].sample(rng)

    def prior(self):
        return {
            "kind": "mixture",
            "log_w": list(self.prior_log_w),
            "components": [c.prior() for c in self.components],
        }

    def state_dict(self):
        return {"log_w": list(self.log_w), "components": [c.state_dict() for c in self.components]}

    def prepare_block(self, ys, skip_outside=False):
        """The components' blocks, each tree skipping a y outside its
        box as ``update`` does; None when no component has one."""
        blocks = [c.prepare_block(ys, skip_outside=True) for c in self.components]
        return None if all(b is None for b in blocks) else blocks

    def refill(self, block, under):
        """Refill each component that has a block; returns their returns,
        None for a component without one."""
        out = []
        for i, (comp, b) in enumerate(zip(self.components, block)):
            if b is not None:
                b = comp.refill(b, under if type(under) is slice else [u[i] for u in under])
            out.append(b)
        return out

    def load(self, state) -> "MixtureLocal":
        """A mixture of the components' ``load`` of their states in
        ``state``, one per component, and the record's weights."""
        states, log_w = state["components"], [float(v) for v in state["log_w"]]
        if not len(states) == len(log_w) == len(self.components):
            raise BadConfig(f"a mixture record needs {len(self.components)} components and weights")
        comps = [c.load(r) for c, r in zip(self.components, states)]
        # a NaN or +inf weight makes the log-sum-exp NaN or +inf
        if not abs(logsumexp(log_w)) <= 1e-9:
            raise BadConfig("mixture log_w must be normalised, with no NaN or +inf")
        # verbatim, not through __init__: renormalising an already
        # normalised vector can move it by an ulp and break bit-exact
        # snapshot resume
        return self._with(comps, log_w)


def local_from_state(state, like):
    """``like.load(state)``: a local with the prior of ``like``, the
    posterior's prior, and the learnt state of ``state``, a
    ``state_dict`` record. Raises ``BadConfig`` on a malformed record,
    and for a ``like`` that does not load."""
    load = getattr(like, "load", None)
    if load is None:
        raise BadConfig(f"a {type(like).__name__} local does not load from a snapshot")
    return load(state)


def check_prior(record, like):
    """Raise ``BadConfig`` unless ``record``, a prior as plain data, is
    ``like.prior()``: a snapshot's records load only against the prior
    they were learnt under."""
    if record != like.prior():
        raise BadConfig(_OTHER_PRIOR)


def upgrade_state(record, like):
    """A format-3 or format-4 state record as formats 5 and 6 hold it: the
    learnt part alone, for ``local_from_state``.

    Those formats repeat the local's prior in every record, so this
    checks it against ``like.prior()`` and raises ``BadConfig`` on a
    record of another kind or prior, or a mixture record with another
    number of components. A mixture's record holds its posterior
    weights, which are learnt, and its components' records, upgraded in
    turn. What a record holds beyond its prior and the keys of ``like``'s
    ``state_dict`` (a format-3 tree's counts and points) is dropped.
    """
    if isinstance(like, MixtureLocal):
        comps = record.get("components")
        if record.get("kind") != "mixture" or len(comps) != len(like.components):
            raise BadConfig(_OTHER_PRIOR)
        parts = [upgrade_state(r, c) for r, c in zip(comps, like.components)]
        return {"log_w": record["log_w"], "components": parts}
    check_prior({key: record.get(key) for key in like.prior()}, like)
    return {key: record[key] for key in like.state_dict()}


def check_seen(local, n):
    """Raise ``BadConfig`` unless ``local`` holds the n observations the
    cover routed to its context. A tree density is not checked: a load
    rebuilds it from those observations."""
    if isinstance(local, MixtureLocal):
        for comp in local.components:
            check_seen(comp, n)
    elif not isinstance(local, BayesTreeDensity) and local.n_seen != n:
        raise BadConfig(f"a {type(local).__name__} local holds {local.n_seen} points, expected {n}")


def check_nested(parent, kids):
    """Raise ``BadConfig`` unless the locals ``kids``, offered disjoint
    subsets of what ``parent`` was offered, hold no more observations
    than ``parent``, component by component. All have one prior, so
    their components match."""
    if isinstance(parent, MixtureLocal):
        for i, comp in enumerate(parent.components):
            check_nested(comp, [kid.components[i] for kid in kids])
    elif sum(kid.n_seen for kid in kids) > parent.n_seen:
        raise BadConfig(f"children of a {type(parent).__name__} local hold more points than it")
