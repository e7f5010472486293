"""Local observation models attached to contexts.

Each local model is a conjugate (or conjugate-mixture) Bayesian model
of the observations that land in one context. The shared duck type:

* ``log_predictive(y, x=None)``: log posterior predictive density or
  mass at y. ``x`` is accepted for interface uniformity and ignored by
  the models here.
* ``update(y, x=None)``: absorb one observation and return the log
  predictive that was in force before it, equal to what
  ``log_predictive(y, x)`` returned just before the call. It scores and
  updates in one pass, and it checks y before it changes any state: an
  invalid or unsupported y raises and leaves the model as it was.
* ``sample(rng)``: draw y from the posterior predictive.
* ``state_dict()`` / ``local_from_state``: plain-data round trip.

All are exchangeable in y, so sequential products of predictives equal
batch marginal likelihoods, which the exact posterior engine relies on.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import BadConfig, OutOfSupport, UnknownSymbol
from .logspace import logaddexp, logsumexp

LOG_2PI = math.log(2.0 * math.pi)


class DirichletMultinomial:
    """Dirichlet prior over a finite alphabet.

    concentration 0.5 gives the Krichevsky-Trofimov estimator, 1.0 the
    Laplace rule.
    """

    def __init__(self, alphabet_size: int, concentration=0.5):
        if alphabet_size < 2:
            raise BadConfig("alphabet_size must be at least 2")
        alpha = np.asarray(concentration, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(alphabet_size, float(alpha))
        if alpha.shape != (alphabet_size,) or np.any(alpha <= 0):
            raise BadConfig("concentration must be positive, scalar or length n")
        self.alpha = alpha
        self.counts = np.zeros(alphabet_size, dtype=float)

    @property
    def alphabet_size(self):
        return self.alpha.shape[0]

    def _check(self, y) -> int:
        # item() also unwraps the size-1 arrays replayed blocks arrive as
        y = int(np.asarray(y).item())
        if not 0 <= y < self.alphabet_size:
            raise UnknownSymbol(y, self.alphabet_size)
        return y

    def _score(self, y: int) -> float:
        a = self.alpha + self.counts
        return float(np.log(a[y]) - np.log(a.sum()))

    def log_predictive(self, y, x=None) -> float:
        return self._score(self._check(y))

    def update(self, y, x=None) -> float:
        y = self._check(y)
        lp = self._score(y)
        self.counts[y] += 1.0
        return lp

    def sample(self, rng):
        a = self.alpha + self.counts
        return int(rng.choice(self.alphabet_size, p=a / a.sum()))

    def state_dict(self):
        return {
            "kind": "dirichlet",
            "alpha": self.alpha.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_state(cls, state):
        obj = cls(len(state["alpha"]), np.asarray(state["alpha"]))
        obj.counts = np.asarray(state["counts"], dtype=float)
        return obj


class NormalWishart:
    """Normal-Wishart conjugate model for vector observations.

    Prior: precision ~ Wishart(nu0, T0^-1), mean | precision ~
    Normal(mu0, (kappa0 * precision)^-1). The posterior predictive is a
    multivariate Student t with nu_n - m + 1 degrees of freedom.
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
        if kappa0 <= 0:
            raise BadConfig("kappa0 must be positive")
        if nu0 <= m - 1:
            raise BadConfig("nu0 must exceed dim - 1")
        if scale.shape != (m, m):
            raise BadConfig("scale matrix has wrong shape")
        self.mu0 = mu0
        self.kappa0 = float(kappa0)
        self.nu0 = float(nu0)
        self.T0 = scale
        self.dim = m
        self.n = 0
        self.sum_y = np.zeros(m)
        self.sum_yy = np.zeros((m, m))
        self._cache = None

    def _as_obs(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim,):
            raise BadConfig(f"observation has shape {y.shape}, expected ({self.dim},)")
        if not all(map(math.isfinite, y.tolist())):
            raise BadConfig(f"observation {y.tolist()} is not finite")
        return y

    def posterior_params(self):
        kn = self.kappa0 + self.n
        vn = self.nu0 + self.n
        if self.n == 0:
            return self.mu0, kn, vn, self.T0.copy()
        ybar = self.sum_y / self.n
        mun = (self.kappa0 * self.mu0 + self.sum_y) / kn
        scatter = self.sum_yy - self.n * np.outer(ybar, ybar)
        shift = (self.kappa0 * self.n / kn) * np.outer(ybar - self.mu0, ybar - self.mu0)
        return mun, kn, vn, self.T0 + scatter + shift

    def _refresh(self):
        """Student t parameters (mean, df, scale, log normaliser).

        In dim 1 the mean and the squared scale are floats. Above, the
        scale is the Cholesky factor of the scale matrix.
        """
        if self._cache is not None:
            return self._cache
        m = self.dim
        if m == 1:
            kn = self.kappa0 + self.n
            df = self.nu0 + self.n
            mu0 = float(self.mu0[0])
            mun, tn = mu0, float(self.T0[0, 0])
            if self.n:
                s = float(self.sum_y[0])
                ybar = s / self.n
                mun = (self.kappa0 * mu0 + s) / kn
                scatter = float(self.sum_yy[0, 0]) - self.n * ybar * ybar
                tn += scatter + (self.kappa0 * self.n / kn) * (ybar - mu0) ** 2
            scale = tn * (kn + 1.0) / (kn * df)
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
            d = float(y[0]) - mun
            q = d * d / scale
        else:
            u = np.linalg.solve(scale, y - mun)
            q = float(u @ u)
        return const - 0.5 * (df + self.dim) * math.log1p(q / df)

    def log_predictive(self, y, x=None) -> float:
        return self._score(self._as_obs(y))

    def update(self, y, x=None) -> float:
        y = self._as_obs(y)
        lp = self._score(y)
        self.n += 1
        if self.dim == 1:
            # elementwise, without the array temporaries of the general form
            v = float(y[0])
            self.sum_y[0] += v
            self.sum_yy[0, 0] += v * v
        else:
            self.sum_y += y
            self.sum_yy += np.outer(y, y)
        self._cache = None
        return lp

    def sample(self, rng):
        mun, df, scale, _ = self._refresh()
        z = rng.standard_normal(self.dim)
        u = rng.chisquare(df)
        if self.dim == 1:
            return float(mun + (math.sqrt(scale) * z[0]) / math.sqrt(u / df))
        return mun + (scale @ z) / math.sqrt(u / df)

    def state_dict(self):
        return {
            "kind": "normal_wishart",
            "mu0": self.mu0.tolist(),
            "kappa0": self.kappa0,
            "nu0": self.nu0,
            "T0": self.T0.tolist(),
            "n": self.n,
            "sum_y": self.sum_y.tolist(),
            "sum_yy": self.sum_yy.tolist(),
        }

    @classmethod
    def from_state(cls, state):
        obj = cls(
            np.asarray(state["mu0"]),
            kappa0=state["kappa0"],
            nu0=state["nu0"],
            scale=np.asarray(state["T0"]),
        )
        obj.n = int(state["n"])
        obj.sum_y = np.asarray(state["sum_y"], dtype=float)
        obj.sum_yy = np.asarray(state["sum_yy"], dtype=float)
        return obj


class HistogramDensity:
    """Piecewise constant density on fixed bins with a Dirichlet prior."""

    def __init__(self, edges, concentration=1.0):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.shape[0] < 2 or np.any(np.diff(edges) <= 0):
            raise BadConfig("edges must be strictly increasing, length >= 2")
        if concentration <= 0:
            raise BadConfig("concentration must be positive")
        self.edges = edges
        self.alpha = float(concentration)
        self.counts = np.zeros(edges.shape[0] - 1, dtype=float)

    def _bin(self, y):
        y = float(np.asarray(y).reshape(()))
        if not math.isfinite(y):
            raise BadConfig(f"observation {y!r} is not finite")
        if y < self.edges[0] or y > self.edges[-1]:
            return None
        i = int(np.searchsorted(self.edges, y, side="right") - 1)
        return min(i, self.counts.shape[0] - 1)  # top edge closed

    def _score(self, i) -> float:
        a = self.counts + self.alpha
        width = self.edges[i + 1] - self.edges[i]
        return float(np.log(a[i]) - np.log(a.sum()) - np.log(width))

    def log_predictive(self, y, x=None) -> float:
        i = self._bin(y)
        return -math.inf if i is None else self._score(i)

    def update(self, y, x=None) -> float:
        i = self._bin(y)
        if i is None:
            raise OutOfSupport(f"{y!r} outside histogram support")
        lp = self._score(i)
        self.counts[i] += 1.0
        return lp

    def sample(self, rng):
        a = self.counts + self.alpha
        i = rng.choice(a.shape[0], p=a / a.sum())
        return float(rng.uniform(self.edges[i], self.edges[i + 1]))

    def state_dict(self):
        return {
            "kind": "histogram",
            "edges": self.edges.tolist(),
            "alpha": self.alpha,
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_state(cls, state):
        obj = cls(np.asarray(state["edges"]), state["alpha"])
        obj.counts = np.asarray(state["counts"], dtype=float)
        return obj


class BayesTreeDensity:
    """Dyadic tree density on a box.

    Every node mixes "points here are uniform on my box" (weight gamma)
    against "split at the midpoint of my largest side and send points
    to the children with Beta-distributed proportions" (weight
    1 - gamma). Counts are the only state; the per-node mixture value

        lam = gamma * vol^-n
            + (1 - gamma) * B(a + nL, a + nR) / B(a, a) * lam_L * lam_R

    is cached in log space. Nodes at ``max_depth`` are forced uniform.
    Volumes halve per level, so vol at depth k is vol(root) / 2^k.

    ``_loglam`` is the only statement of that recursion. Scoring,
    updating and rebuilding from a snapshot all go through it with the
    same operands in the same order, so they agree bit for bit.

    Nodes live in three flat lists indexed by node id, root at 0:
    ``_n`` (count), ``_lam`` (cached log value) and ``_kid`` (id of the
    left child, the right one follows it; 0 for a leaf, since the root
    is nobody's child). A node per dict would leave tens of thousands
    of small containers per model for the garbage collector to walk.
    """

    def __init__(self, lower, upper, gamma=0.5, branch_pseudo=0.5, max_depth=12):
        from .covers import Box

        self.box = Box(lower, upper)
        if not 0 < gamma < 1:
            raise BadConfig("gamma must be strictly between 0 and 1")
        if branch_pseudo <= 0:
            raise BadConfig("branch_pseudo must be positive")
        if max_depth < 0:
            raise BadConfig("max_depth must be nonnegative")
        self.gamma = float(gamma)
        self.branch_pseudo = float(branch_pseudo)
        self.max_depth = int(max_depth)
        self._n = [0]
        self._lam = [0.0]
        self._kid = [0]
        self._lower = self.box.lower.tolist()
        self._upper = self.box.upper.tolist()
        log_vol0 = math.log(self.box.volume())
        self._log_vol = [log_vol0 - k * math.log(2.0) for k in range(self.max_depth + 1)]
        self._log_gamma = math.log(self.gamma)
        self._log_split = math.log1p(-self.gamma)
        a = self.branch_pseudo
        self._log_beta0 = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)

    def _loglam(self, depth, n, nl, left, right):
        """Log mixture value of a node at ``depth`` that holds n points, nl
        of them in its left child; ``left`` and ``right`` are the
        children's log values."""
        uniform = -n * self._log_vol[depth]
        if depth == self.max_depth:
            return uniform
        a = self.branch_pseudo
        log_beta = math.lgamma(a + nl) + math.lgamma(a + (n - nl)) - math.lgamma(2.0 * a + n)
        return logaddexp(
            self._log_gamma + uniform,
            self._log_split + log_beta - self._log_beta0 + left + right,
        )

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
        self._kid[node] = left
        return left

    def _path_values(self, y, grow):
        """Log values of the nodes on y's root to leaf path once y is added.

        Returns ``(nodes, values)``, root first. ``nodes[k]`` is the id
        of the depth k node, or None below the materialised tree;
        ``grow`` materialises the path instead. Each node splits the
        largest side of its box, the lowest dimension on ties, as
        ``np.argmax`` would.
        """
        lo = list(self._lower)
        hi = list(self._upper)
        dim = len(lo)
        counts, lams, kid = self._n, self._lam, self._kid
        node = 0
        nodes = [node]
        steps = []
        for _ in range(self.max_depth):
            d = 0
            if dim > 1:
                best = hi[0] - lo[0]
                for i in range(1, dim):
                    w = hi[i] - lo[i]
                    if w > best:
                        d, best = i, w
            mid = 0.5 * (lo[d] + hi[d])
            if y[d] < mid:
                hi[d] = mid
                side = 0
            else:
                lo[d] = mid
                side = 1
            left = 0
            if node is not None:
                left = kid[node]
                if not left and grow:
                    left = self._split(node)
            steps.append((left, side))
            node = left + side if left else None
            nodes.append(node)
        n = 1 if node is None else counts[node] + 1
        new = self._loglam(self.max_depth, n, 0, 0.0, 0.0)
        values = [new]
        for depth in range(self.max_depth - 1, -1, -1):
            left, side = steps[depth]
            node = nodes[depth]
            n = 1 if node is None else counts[node] + 1
            nl, other = (counts[left], lams[left + 1 - side]) if left else (0, 0.0)
            if side == 0:
                new = self._loglam(depth, n, nl + 1, new, other)
            else:
                new = self._loglam(depth, n, nl, other, new)
            values.append(new)
        values.reverse()
        return nodes, values

    def _obs(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.box.dim,):
            raise BadConfig(f"observation has shape {y.shape}, expected ({self.box.dim},)")
        y = y.tolist()
        if not all(map(math.isfinite, y)):
            raise BadConfig(f"observation {y} is not finite")
        return y

    def _inside(self, y) -> bool:
        return all(lo <= v <= hi for lo, v, hi in zip(self._lower, y, self._upper))

    def log_predictive(self, y, x=None) -> float:
        y = self._obs(y)
        if not self._inside(y):
            return -math.inf
        # the evidence ratio of the would-be update
        _, values = self._path_values(y, grow=False)
        return values[0] - self._lam[0]

    def update(self, y, x=None) -> float:
        y = self._obs(y)
        if not self._inside(y):
            raise OutOfSupport(f"{y!r} outside {self.box!r}")
        old = self._lam[0]
        nodes, values = self._path_values(y, grow=True)
        counts, lams = self._n, self._lam
        for node, value in zip(nodes, values):
            counts[node] += 1
            lams[node] = value
        return values[0] - old

    def sample(self, rng):
        lo = self.box.lower.copy()
        hi = self.box.upper.copy()
        node = 0  # None below the materialised tree: an empty node
        a = self.branch_pseudo
        for depth in range(self.max_depth):
            n, lam, left = (0, 0.0, 0) if node is None else (
                self._n[node], self._lam[node], self._kid[node]
            )
            stop = math.exp(self._log_gamma - n * self._log_vol[depth] - lam)
            if rng.uniform() < min(stop, 1.0):
                break
            p_hi = (a + self._n[left + 1]) / (2 * a + n) if left else 0.5
            d = int(np.argmax(hi - lo))
            mid = 0.5 * (lo[d] + hi[d])
            if rng.uniform() < p_hi:
                lo[d] = mid
                node = left + 1 if left else None
            else:
                hi[d] = mid
                node = left if left else None
        y = rng.uniform(lo, hi)
        return y if self.box.dim > 1 else float(y[0])

    def _strip(self, node):
        n, left = self._n[node], self._kid[node]
        if n == 0 and not left:
            return None
        out = {"n": n}
        if left:
            out["kids"] = [self._strip(left), self._strip(left + 1)]
        return out

    def state_dict(self):
        return {
            "kind": "bayes_tree",
            "lower": self.box.lower.tolist(),
            "upper": self.box.upper.tolist(),
            "gamma": self.gamma,
            "branch_pseudo": self.branch_pseudo,
            "max_depth": self.max_depth,
            "tree": self._strip(0),
        }

    def _rebuild(self, rec, node, depth):
        """Fill the empty ``node`` at ``depth`` from its snapshot record."""
        if rec is None:
            return
        self._n[node] = n = int(rec["n"])
        kids = rec.get("kids")
        if kids is not None:
            left = self._split(node)
            self._rebuild(kids[0], left, depth + 1)
            self._rebuild(kids[1], left + 1, depth + 1)
            lams = self._lam
            lams[node] = self._loglam(depth, n, self._n[left], lams[left], lams[left + 1])
        elif depth == self.max_depth:
            self._lam[node] = self._loglam(depth, n, 0, 0.0, 0.0)
        # else the node is empty: only those are serialised without kids

    @classmethod
    def from_state(cls, state):
        obj = cls(
            np.asarray(state["lower"]),
            np.asarray(state["upper"]),
            gamma=state["gamma"],
            branch_pseudo=state["branch_pseudo"],
            max_depth=state["max_depth"],
        )
        obj._rebuild(state["tree"], 0, 0)
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

    def log_predictive(self, y, x=None) -> float:
        return logsumexp(
            [w + c.log_predictive(y, x) for w, c in zip(self.log_w, self.components)]
        )

    def update(self, y, x=None) -> float:
        joint = []
        skipped = False
        for w, comp in zip(self.log_w, self.components):
            try:
                joint.append(w + comp.update(y, x))
            except OutOfSupport:
                # the component raised before changing: it scores -inf
                joint.append(-math.inf)
                skipped = True
        total = logsumexp(joint)
        if total == -math.inf:
            raise OutOfSupport(f"{y!r} outside the support of every component")
        self.log_w = [j - total for j in joint]
        if skipped and not self._warned_skip:
            warnings.warn(
                "mixture component skipped an out-of-support observation",
                RuntimeWarning,
            )
            self._warned_skip = True
        return total

    def sample(self, rng):
        k = rng.choice(len(self.components), p=np.exp(self.log_w))
        return self.components[k].sample(rng)

    def state_dict(self):
        return {
            "kind": "mixture",
            "log_w": list(self.log_w),
            "components": [c.state_dict() for c in self.components],
        }

    @classmethod
    def from_state(cls, state):
        comps = [local_from_state(c) for c in state["components"]]
        obj = cls(comps)
        # verbatim, not through __init__: renormalising an already
        # normalised vector can move it by an ulp and break bit-exact
        # snapshot resume
        obj.log_w = [float(v) for v in state["log_w"]]
        return obj


_LOCAL_KINDS = {
    "dirichlet": DirichletMultinomial,
    "normal_wishart": NormalWishart,
    "histogram": HistogramDensity,
    "bayes_tree": BayesTreeDensity,
    "mixture": MixtureLocal,
}


def local_from_state(state):
    kind = state.get("kind")
    if kind not in _LOCAL_KINDS:
        raise BadConfig(f"unknown local model kind {kind!r}")
    return _LOCAL_KINDS[kind].from_state(state)
