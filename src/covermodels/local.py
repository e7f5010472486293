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
  predictive that was in force before it, equal to what
  ``log_predictive(py)`` returned just before the call. It scores and
  updates in one pass. A y outside the model's support raises
  ``OutOfSupport`` before any state changes.

  A caller with a raw y writes ``local.update(local.prepare(y))``.
* ``absorb_block(ys)``: absorb a whole block into a local that has
  seen no point, and return the block's log marginal in closed form.
  The state equals that of ``update`` on each y in turn, bit for bit;
  the marginal equals the sum of ``update``'s returns up to rounding.
  A tree density inserts with ``update``'s ``_insert``, then sets
  every node value once with ``_refit``.
  ``ys`` are y tuples as a kd cover buffers them, each of which passed
  ``prepare`` when it was absorbed (and which a snapshot load checks
  again), so they are not checked here: a wrong length or a value
  that is not finite is the caller's fault.
* ``sample(rng)``: draw y from the posterior predictive.
* ``prior()``: the model's kind and hyperparameters as plain data,
  none of what it has learnt. Every context of one cover model has the
  same prior, which a snapshot's loader checks.
* ``state_dict()`` / ``local_from_state``: plain-data round trip. A
  leaf model's state extends its prior. Loading checks what it can
  check cheaply and raises ``BadConfig`` on a malformed record.
* ``n_seen`` (leaf models): the number of observations absorbed.
  ``check_seen`` and ``check_nested`` compare it with what the cover
  routed to the context.
* ``copy()`` (``DirichletMultinomial``, the VMM's local): an
  independent copy, which ``CoverModelPosterior.copy`` takes of every
  context's local.

All are exchangeable in y, so sequential products of predictives equal
batch marginal likelihoods, which the exact posterior engine relies on,
and which ``absorb_block`` computes directly.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .covers import Box, cut
from .errors import BadConfig, OutOfSupport, UnknownSymbol
from .logspace import LOG2, logsumexp

LOG_2PI = math.log(2.0 * math.pi)


def as_symbol(y, alphabet_size) -> int:
    """y as an int symbol of an alphabet of ``alphabet_size``. An
    integer, an integral float such as 2.0 from a float data column, a
    numpy scalar or size-1 array holding one, or the one-float tuple a
    kd cover's replayed block holds, passes; anything else, or a symbol
    outside the alphabet, raises ``UnknownSymbol`` with the plain value."""
    s = y
    if type(s) is not int:
        if isinstance(s, (np.ndarray, np.generic)) and s.size == 1:
            s = s.item()
        elif type(s) is tuple and len(s) == 1:
            s = s[0]
        if not (isinstance(s, numbers.Real) and float(s).is_integer()):
            raise UnknownSymbol(s, alphabet_size)
        s = int(s)
    if not 0 <= s < alphabet_size:
        raise UnknownSymbol(s, alphabet_size)
    return s


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
        if alphabet_size < 2:
            raise BadConfig("alphabet_size must be at least 2")
        alpha = np.asarray(concentration, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(alphabet_size, float(alpha))
        if alpha.shape != (alphabet_size,) or not np.all(alpha > 0):
            raise BadConfig("concentration must be positive, scalar or length n")
        self._set(alpha.tolist(), [0.0] * alphabet_size)

    def _set(self, alpha, counts):
        self.alpha = alpha
        self.counts = counts
        self._alpha_sum = sum(alpha)
        self._seen = sum(counts)

    @property
    def alphabet_size(self):
        return len(self.alpha)

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

    def copy(self) -> "DirichletMultinomial":
        """An independent copy: a new count list. ``alpha``, which no
        update changes, is shared."""
        obj = DirichletMultinomial.__new__(DirichletMultinomial)
        obj.alpha = self.alpha
        obj.counts = self.counts[:]
        obj._alpha_sum = self._alpha_sum
        obj._seen = self._seen
        return obj

    def sample(self, rng):
        a = np.array(self.alpha) + np.array(self.counts)
        return int(rng.choice(len(self.alpha), p=a / a.sum()))

    def prior(self):
        return {"kind": "dirichlet", "alpha": list(self.alpha)}

    def state_dict(self):
        return {**self.prior(), "counts": list(self.counts)}

    @classmethod
    def from_state(cls, state):
        # the constructor's checks, on plain floats
        alpha, counts = state["alpha"], state["counts"]
        if len(alpha) < 2 or not all(a > 0 for a in alpha):
            raise BadConfig("concentration must be positive, one per symbol")
        if len(counts) != len(alpha) or not all(
            type(c) in (int, float) and c >= 0 and float(c).is_integer() for c in counts
        ):
            raise BadConfig("Dirichlet counts must be nonnegative whole numbers, one per symbol")
        obj = cls.__new__(cls)
        obj._set([float(a) for a in alpha], [float(c) for c in counts])
        return obj


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
        mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
        m = mu0.shape[0]
        if nu0 is None:
            nu0 = m + 2.0
        if scale is None:
            scale = np.eye(m)
        scale = np.asarray(scale, dtype=float)
        if scale.ndim == 0:
            scale = float(scale) * np.eye(m)
        if not kappa0 > 0:
            raise BadConfig("kappa0 must be positive")
        if not nu0 > m - 1:
            raise BadConfig("nu0 must exceed dim - 1")
        if scale.shape != (m, m):
            raise BadConfig("scale matrix has wrong shape")
        if not all(map(math.isfinite, scale.ravel().tolist())):
            raise BadConfig("scale matrix must be finite")
        if m == 1:
            # a float test: every new context builds one of these
            if not scale[0, 0] > 0:
                raise BadConfig("scale must be positive")
        else:
            try:
                np.linalg.cholesky(scale)
            except np.linalg.LinAlgError:
                raise BadConfig("scale matrix must be positive definite") from None
        self.mu0 = mu0.tolist()
        self.kappa0 = float(kappa0)
        self.nu0 = float(nu0)
        self.T0 = scale.tolist()
        self.dim = m
        self.n = 0
        self.sum_y = [0.0] * m
        self.sum_yy = [[0.0] * m for _ in range(m)]
        self._cache = None

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
        return {
            **self.prior(),
            "n": self.n,
            "sum_y": self.sum_y[:],
            "sum_yy": [row[:] for row in self.sum_yy],
        }

    @classmethod
    def from_state(cls, state):
        obj = cls(state["mu0"], kappa0=state["kappa0"], nu0=state["nu0"], scale=state["T0"])
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


_LGAMMA_TABLES: dict = {}


def _lgamma_tables(a, n):
    """Lists of lgamma(a + k) and lgamma(2a + k) for k = 0 .. n at least.

    One pair per branch pseudo-count a, shared by every tree that uses
    it. A longer pair, twice as long as the last, replaces a pair that
    is too short instead of extending it, so no tree ever reads a list
    that another thread is filling.
    """
    tables = _LGAMMA_TABLES.get(a)
    if tables is None or len(tables[0]) <= n:
        size = max(n + 1, 2 * len(tables[0])) if tables else n + 1
        tables = (
            [math.lgamma(a + k) for k in range(size)],
            [math.lgamma(2.0 * a + k) for k in range(size)],
        )
        _LGAMMA_TABLES[a] = tables
    return tables


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

    ``_loglam`` is the only statement of that recursion. Scoring,
    updating, absorbing a block and rebuilding from a snapshot all go
    through it with the same operands in the same order, so they agree
    bit for bit. Its log-Beta terms come from ``_lgamma_tables``.

    The tree stores only the nodes its points distinguish:

    * An empty node has no children; its value is 0.
    * A *singleton* is a childless node above ``max_depth`` that holds
      one point and keeps that point rather than a chain of one-point
      nodes below it. ``_one[k]``, built from ``_loglam`` at
      construction, is the value of any depth-k node that holds one
      point: a singleton, or the empty node a new point lands in.
    * A second point pushes a singleton's point down one level at a
      time while the two share a cell, so the chain ends where they
      part or at ``max_depth``. No point is stored at ``max_depth``.

    ``_insert``, which ``update`` and ``absorb_block`` share, is the one
    insertion, pushes included. ``_refit`` is the one rule for a node's
    value: ``update`` applies it up the path, ``_fill_values`` to every
    node after a block or a load. ``_path_values`` (``log_predictive``)
    only reads, with the operands those two would use.

    The partition is fixed by the box and ``max_depth``, as a Pólya
    tree's is, so y's route through it (split dimension, midpoint and
    side at each depth) depends on y alone. ``prepare`` computes the
    route once, and every tree with the same prior walks it.

    Nodes live in flat lists indexed by node id, root at 0: ``_n``
    (count), ``_lam`` (cached log value), ``_kid`` (id of the left
    child, the right one follows it; 0 for a leaf, since the root is
    nobody's child) and ``_pt`` (a singleton's point, ``dim`` floats per
    node). A container per node or per point would leave tens of
    thousands of small objects per model for the garbage collector to
    walk.

    A snapshot (format 3) stores only counts and singleton points, as
    two flat lists in preorder; ``_load`` checks their structure and
    recomputes every value.
    """

    def __init__(self, lower, upper, gamma=0.5, branch_pseudo=0.5, max_depth=12):
        self.box = Box(lower, upper)
        if not 0 < gamma < 1:
            raise BadConfig("gamma must be strictly between 0 and 1")
        if not branch_pseudo > 0:  # NaN too: it would key its own lgamma tables
            raise BadConfig("branch_pseudo must be positive")
        # widths run from about 2^1024 down to 2^-1074, so no side of a
        # float box halves more than about 2100 times; checked before
        # max_depth sizes the tables below
        if not 0 <= max_depth <= 2100 * self.box.dim:
            raise BadConfig(f"max_depth must be in [0, {2100 * self.box.dim}]")
        self.gamma = float(gamma)
        self.branch_pseudo = float(branch_pseudo)
        self.max_depth = int(max_depth)
        self._n = [0]
        self._lam = [0.0]
        self._kid = [0]
        self._dim = self.box.dim
        self._pt = [0.0] * self._dim
        log_vol0 = math.log(self.box.volume())
        self._log_vol = [log_vol0 - k * math.log(2.0) for k in range(self.max_depth + 1)]
        self._log_gamma = math.log(self.gamma)
        self._log_split = math.log1p(-self.gamma)
        a = self.branch_pseudo
        self._log_beta0 = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
        self._lg_a, self._lg_2a = _lgamma_tables(a, 2)
        # the chain of one point: the same _loglam calls the recursion
        # makes, since x + 0.0 == 0.0 + x and the two lgamma terms commute
        one = [self._loglam(self.max_depth, 1, 0, 0.0, 0.0)]
        for depth in range(self.max_depth - 1, -1, -1):
            one.append(self._loglam(depth, 1, 1, one[-1], 0.0))
        one.reverse()
        self._one = one

    def _loglam(self, depth, n, nl, left, right):
        """Log mixture value of a node at ``depth`` that holds n points, nl
        of them in its left child; ``left`` and ``right`` are the
        children's log values."""
        uniform = -n * self._log_vol[depth]
        if depth == self.max_depth:
            return uniform
        lg_a = self._lg_a
        log_beta = lg_a[nl] + lg_a[n - nl] - self._lg_2a[n]
        # logaddexp(a, b), inline to save a call per level: the same
        # branches and operations, so the same values
        a = self._log_gamma + uniform
        b = self._log_split + log_beta - self._log_beta0 + left + right
        if a == b:
            return a + LOG2
        d = a - b
        if d > 0:
            return a + math.log1p(math.exp(-d))
        if d <= 0:
            return b + math.log1p(math.exp(d))
        return d  # a or b is nan

    @property
    def log_evidence(self) -> float:
        """Log marginal density of the points absorbed so far."""
        return self._lam[0]

    def _split(self, node):
        """Materialise two empty children of ``node``; returns the left id."""
        left = len(self._n)
        self._n += (0, 0)
        self._lam += (0.0, 0.0)
        self._kid += (0, 0)
        self._pt += (0.0,) * (2 * self._dim)
        self._kid[node] = left
        return left

    def _point(self, node):
        dim = self._dim
        return self._pt[node * dim:(node + 1) * dim]

    def _put(self, node, y):
        dim = self._dim
        self._pt[node * dim:(node + 1) * dim] = y

    def _insert(self, y, route=None):
        """Count y in and return its path, root first, whose values are
        left to ``_refit``. A singleton on the way pushes its point one
        level down, into a child of value ``_one``. y ends at
        ``max_depth`` or at an empty node, which turns singleton.
        ``route`` is y's from ``prepare``; without one, y's cells are cut
        only as deep as the walk goes."""
        counts, kid, top = self._n, self._kid, self.max_depth
        lo, hi = list(self.box.lower), list(self.box.upper)
        node = depth = 0
        path = [0]
        while counts[node] and depth < top:
            if route is None:
                d, mid = cut(lo, hi)
                if y[d] < mid:
                    hi[d], side = mid, 0
                else:
                    lo[d], side = mid, 1
            else:
                d, mid, side = route[depth]
            counts[node] += 1
            depth += 1
            left = kid[node]
            if not left:  # a singleton: push its point one level down
                left = self._split(node)
                p = self._point(node)
                q = left if p[d] < mid else left + 1
                counts[q] = 1
                self._lam[q] = self._one[depth]
                if depth < top:
                    self._put(q, p)
            node = left + side
            path.append(node)
        counts[node] += 1
        if counts[node] == 1 and depth < top:  # an empty node turned singleton
            self._put(node, y)
        return path

    def _refit(self, nodes, depths):
        """Set each node's value, at its depth in ``depths``, from its
        count and its children's values, which come first. Raises
        ``BadConfig`` on a count that is not the sum of its children's."""
        n, kid, lam, top, one = self._n, self._kid, self._lam, self.max_depth, self._one
        if len(self._lg_2a) <= n[0]:
            self._lg_a, self._lg_2a = _lgamma_tables(self.branch_pseudo, n[0])
        for node, depth in zip(nodes, depths):
            c, left = n[node], kid[node]
            if left:
                nl = n[left]
                if c != nl + n[left + 1]:
                    raise BadConfig(f"tree node count {c} is not the sum of its children's")
                lam[node] = self._loglam(depth, c, nl, lam[left], lam[left + 1])
            elif c and depth == top:
                lam[node] = self._loglam(top, c, 0, 0.0, 0.0)
            elif c:
                lam[node] = one[depth]

    def _path_values(self, route):
        """The root's log value were y, with route ``route``, added; a
        read. The walk ends at ``max_depth`` or where y leaves every
        point, follows a singleton's chain without materialising it, and
        uses the operands ``_insert`` and ``_refit`` would."""
        counts, lams, kid, one = self._n, self._lam, self._kid, self._one
        if len(self._lg_2a) <= counts[0] + 1:
            self._lg_a, self._lg_2a = _lgamma_tables(self.branch_pseudo, counts[0] + 1)
        node = 0
        n = counts[node]
        p = None  # a singleton's point, whose one-point chain the walk is on
        steps = []  # per level: count, left child's count, off-path value, y's side
        for depth, (d, mid, side) in enumerate(route):
            if not n:
                break
            if p is None:
                left = kid[node]
                if not left:  # a singleton
                    p = self._point(node)
            if p is None:
                steps.append((n, counts[left], lams[left + 1 - side], side))
                node = left + side
                n = counts[node]
            else:
                nl = 1 if p[d] < mid else 0
                parted = side == nl  # y takes the side p does not
                steps.append((n, nl, one[depth + 1] if parted else 0.0, side))
                n = 0 if parted else 1
        # y alone below an empty node, or at max_depth
        new = one[len(steps)] if not n else self._loglam(self.max_depth, n + 1, 0, 0.0, 0.0)
        for depth in range(len(steps) - 1, -1, -1):
            n, nl, other, side = steps[depth]
            if side == 0:
                new = self._loglam(depth, n + 1, nl + 1, new, other)
            else:
                new = self._loglam(depth, n + 1, nl, other, new)
        return new

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
        _, inside, route = y
        if not inside:
            return -math.inf
        # the evidence ratio of the would-be update
        return self._path_values(route) - self._lam[0]

    def update(self, y) -> float:
        y, inside, route = y
        if not inside:
            raise OutOfSupport(f"{y!r} outside {self.box!r}")
        old = self._lam[0]
        path = self._insert(y, route)
        self._refit(path[::-1], range(len(path) - 1, -1, -1))
        return self._lam[0] - old

    def sample(self, rng):
        lo = list(self.box.lower)
        hi = list(self.box.upper)
        node = 0  # None below the materialised tree: an empty node
        p = None  # a singleton's point, whose one-point chain the walk is on
        a = self.branch_pseudo
        for depth in range(self.max_depth):
            left = 0
            if p is not None:
                n, lam = 1, self._one[depth]
            elif node is None:
                n, lam = 0, 0.0
            else:
                n, lam, left = self._n[node], self._lam[node], self._kid[node]
                if n == 1 and not left:
                    p, node = self._point(node), None
            stop = math.exp(self._log_gamma - n * self._log_vol[depth] - lam)
            if rng.uniform() < min(stop, 1.0):
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
        """The tree as two flat lists, both in preorder.

        ``counts`` holds every materialised node's count, negated for a
        node that has children. The sign alone tells a node with
        children from a leaf: a version-1 snapshot re-saved in this
        format can hold one-point chains, whose nodes hold one point and
        have children, unlike a singleton. ``points`` holds every
        singleton's point, ``dim`` floats each. Node values are not
        stored.
        """
        counts, points = [], []
        n, kid, pt, dim, top = self._n, self._kid, self._pt, self._dim, self.max_depth
        stack, depths = [0], [0]
        while stack:
            node, depth = stack.pop(), depths.pop()
            left = kid[node]
            if left:
                counts.append(-n[node])
                stack += (left + 1, left)
                depths += (depth + 1, depth + 1)
            else:
                counts.append(n[node])
                if n[node] == 1 and depth < top:
                    points += pt[node * dim:(node + 1) * dim]
        return {**self.prior(), "counts": counts, "points": points}

    def _load(self, counts, points, max_seen=None):
        """Fill the empty tree from ``state_dict``'s flat lists.

        One forward pass lays out the nodes, each pair of children
        after their parent, and records their depths, so that
        ``_fill_values`` computes every value after its children's.
        Raises ``BadConfig`` on a list that is short or long, a count
        that is not an int or exceeds the root's, a root count above
        ``max_seen`` (checked before any table is sized by it), a split
        at ``max_depth``, a childless node above ``max_depth`` with two
        or more points, a singleton point that is not a float or lies
        outside the box, or a node whose count is not the sum of its
        children's. A singleton point is not checked against its own
        cell below the root.
        """
        size = len(counts)
        if not size or set(map(type, counts)) != {int}:
            raise BadConfig("tree counts must be a nonempty list of ints")
        dim, top = self._dim, self.max_depth
        n, kid, depth = [0] * size, [0] * size, [0] * size
        pt = [0.0] * (dim * size)
        stack = [0]  # ids of the nodes whose counts come next
        pop = stack.pop
        free = 1
        j = 0
        for c in counts:
            if not stack:
                raise BadConfig("tree counts list is too long")
            node = pop()
            if c < 0:
                if depth[node] >= top or free + 2 > size:
                    raise BadConfig("tree counts describe a split that cannot exist")
                kid[node] = free
                depth[free] = depth[free + 1] = depth[node] + 1
                stack += (free + 1, free)
                free += 2
                c = -c
            elif c and depth[node] < top:
                if c > 1:
                    raise BadConfig(f"childless tree node at depth {depth[node]} holds {c} points")
                pt[node * dim:(node + 1) * dim] = points[j:j + dim]
                j += dim
            n[node] = c
        if stack:
            raise BadConfig("tree counts list is too short")
        if j != len(points):
            raise BadConfig("tree points list does not hold one point per singleton")
        if not set(map(type, points)) <= {float}:
            raise BadConfig("tree points must be floats")
        for d in range(dim):
            col = points[d::dim]
            if any(map(math.isnan, col)) or col and not (
                self.box.lower[d] <= min(col) and max(col) <= self.box.upper[d]
            ):
                raise BadConfig(f"a tree point lies outside {self.box!r}")
        root = n[0]
        if max_seen is not None and root > max_seen:
            raise BadConfig(f"tree root holds {root} points, more than {max_seen} observed")
        if max(n) > root:
            raise BadConfig("a tree node holds more points than the root")
        self._n, self._kid, self._pt = n, kid, pt
        self._fill_values(depth)

    def _fill_values(self, depth=None):
        """``_refit`` every node, children (larger ids) first. ``depth``
        holds each node's depth; without it, a forward pass finds them."""
        kid = self._kid
        if depth is None:
            depth = [0] * len(kid)
            for node, left in enumerate(kid):
                if left:
                    depth[left] = depth[left + 1] = depth[node] + 1
        self._lam = [0.0] * len(kid)
        self._refit(range(len(kid) - 1, -1, -1), reversed(depth))

    def absorb_block(self, ys) -> float:
        """Absorb a block into the empty tree and return its log marginal,
        the root's value (a Pólya tree marginal).

        Each y inside the box goes in through ``_insert`` with no route;
        ``_fill_values`` then sets every value once. The state equals
        that of ``update`` on each y in turn, bit for bit. A y outside
        the box is skipped, and the marginal is -inf.
        """
        if self._n[0]:
            raise BadConfig("absorb_block needs a local that has seen no point")
        box = self.box
        skipped = False
        for y in ys:
            if box.contains(y, closed=True):
                self._insert(y)
            else:
                skipped = True
        self._fill_values()
        return -math.inf if skipped else self._lam[0]

    @classmethod
    def from_state(cls, state, max_seen=None):
        obj = cls(
            state["lower"],
            state["upper"],
            gamma=state["gamma"],
            branch_pseudo=state["branch_pseudo"],
            max_depth=state["max_depth"],
        )
        obj._load(state["counts"], state["points"], max_seen)
        return obj


class MixtureLocal:
    """Finite Bayesian mixture of local models.

    The weight over components is itself updated by Bayes rule using
    each component's predictive for the incoming observation, then the
    components update. A component that rejects the observation as
    outside its support keeps its state and loses all weight on that
    point. ``log_w`` holds the log weights as a list of floats.
    """

    def __init__(self, components, log_weights=None):
        if not components:
            raise BadConfig("mixture needs at least one component")
        self.components = list(components)
        k = len(self.components)
        if log_weights is None:
            self.log_w = [-math.log(k)] * k
        else:
            lw = np.asarray(log_weights, dtype=float)
            if lw.shape != (k,):
                raise BadConfig("log_weights length must match components")
            total = logsumexp(lw.tolist())
            self.log_w = [v - total for v in lw.tolist()]
        self._warned_skip = False

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
        """The components' priors in order. The weights are left out: a
        context's weights are a posterior, whose prior a snapshot does
        not keep."""
        return {"kind": "mixture", "components": [c.prior() for c in self.components]}

    def state_dict(self):
        return {
            "kind": "mixture",
            "log_w": list(self.log_w),
            "components": [c.state_dict() for c in self.components],
        }

    @classmethod
    def from_state(cls, state, max_seen=None):
        comps = [local_from_state(c, max_seen) for c in state["components"]]
        obj = cls(comps)
        log_w = [float(v) for v in state["log_w"]]
        if len(log_w) != len(comps):
            raise BadConfig("mixture log_w length must match components")
        # a NaN or +inf weight makes the log-sum-exp NaN or +inf
        if not abs(logsumexp(log_w)) <= 1e-9:
            raise BadConfig("mixture log_w must be normalised, with no NaN or +inf")
        # verbatim, not through __init__: renormalising an already
        # normalised vector can move it by an ulp and break bit-exact
        # snapshot resume
        obj.log_w = log_w
        return obj


_LOCAL_KINDS = {
    "dirichlet": DirichletMultinomial,
    "normal_wishart": NormalWishart,
    "bayes_tree": BayesTreeDensity,
    "mixture": MixtureLocal,
}


def local_from_state(state, max_seen=None):
    """Rebuild a local model from ``state_dict``. ``max_seen``, when
    given, bounds the observations the model can have been offered; a
    tree density checks its root count against it before it sizes its
    log-Beta tables by that count."""
    kind = state.get("kind")
    if kind not in _LOCAL_KINDS:
        raise BadConfig(f"unknown local model kind {kind!r}")
    if kind in ("bayes_tree", "mixture"):
        return _LOCAL_KINDS[kind].from_state(state, max_seen)
    return _LOCAL_KINDS[kind].from_state(state)


def check_seen(local, n):
    """Raise ``BadConfig`` unless ``local`` can have been offered exactly
    n observations: a tree density rejects y outside its box, so inside
    a mixture it may have skipped some of them; every other model
    absorbed all n."""
    if isinstance(local, MixtureLocal):
        for comp in local.components:
            check_seen(comp, n)
        return
    seen = local.n_seen
    if seen > n or (seen < n and not isinstance(local, BayesTreeDensity)):
        raise BadConfig(f"a {type(local).__name__} local holds {seen} points, expected {n}")


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
