"""Double kernel conditional density baseline.

Nadaraya-Watson style estimator: p(y | x) is a ratio of two Gaussian
kernel sums, one over (x, y) jointly and one over x alone, with a
single scalar bandwidth per space. Bandwidths are picked by k-fold
cross validation of held out conditional log likelihood on a log
spaced grid scaled to the data. Everything is batch; the evaluation
harness refits it from scratch at each checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, DegenerateData, ZeroDenominator

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the bandwidth grid's ends, as multiples of each space's rms deviation
_GRID_LO, _GRID_HI = 0.01, 10.0


def _sqdist(a, b):
    """Squared Euclidean distances between the rows of a and b.

    Squared differences are added one dimension at a time, the order
    in which ``scipy.spatial.distance.cdist`` sums them, so the two
    agree bit for bit. Only two n x m arrays are live at once; a
    broadcast n x m x d difference would hold d of them.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    d = np.empty_like(out)
    for k in range(a.shape[1]):
        np.subtract(a[:, k, None], b[None, :, k], out=d)
        d *= d
        out += d
    return out


def _logsumexp_rows(a):
    """log(sum(exp(a))) along each row of a 2-d array.

    Each row's max is shifted out first. A max that is not finite is
    replaced by 0, so a row of -inf gives -inf, not nan, and without a
    divide warning.
    """
    m = np.max(a, axis=1)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return m + np.log(np.sum(np.exp(a - m[:, None]), axis=1))


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise BadConfig(f"{name} must be one or two dimensional")
    if not np.all(np.isfinite(a)):
        raise BadConfig(f"{name} contains non-finite values")
    return a


class DoubleKernelCde:
    """Fixed bandwidth conditional density estimator."""

    def __init__(self, x, y, hx, hy):
        self.x = _as_matrix(x, "x")
        self.y = _as_matrix(y, "y")
        if self.x.shape[0] != self.y.shape[0]:
            raise BadConfig("x and y row counts differ")
        if self.x.shape[0] == 0:
            raise DegenerateData("no training points")
        if hx <= 0 or hy <= 0:
            raise BadConfig("bandwidths must be positive")
        self.hx = float(hx)
        self.hy = float(hy)

    def log_density_batch(self, xq, yq, block=1024) -> np.ndarray:
        xq = _as_matrix(xq, "xq")
        yq = _as_matrix(yq, "yq")
        if xq.shape[0] != yq.shape[0]:
            raise BadConfig("query row counts differ")
        if xq.shape[1] != self.x.shape[1] or yq.shape[1] != self.y.shape[1]:
            raise BadConfig("query dimension mismatch")
        dy = self.y.shape[1]
        norm = dy * (math.log(self.hy) + LOG_SQRT_2PI)
        out = np.empty(xq.shape[0])
        for s in range(0, xq.shape[0], block):
            e = min(s + block, xq.shape[0])
            # a tiny bandwidth overflows a scaled distance to inf, which
            # the finiteness check below turns into ZeroDenominator
            with np.errstate(over="ignore"):
                a = -_sqdist(xq[s:e], self.x) / (2.0 * self.hx**2)
                b = -_sqdist(yq[s:e], self.y) / (2.0 * self.hy**2)
            den = _logsumexp_rows(a)
            if not np.all(np.isfinite(den)):
                raise ZeroDenominator("covariate kernel sum underflowed")
            num = _logsumexp_rows(a + b)
            out[s:e] = num - den - norm
        return out

    def log_density(self, xq, yq) -> float:
        return float(self.log_density_batch(np.atleast_1d(xq), np.atleast_1d(yq))[0])


@dataclass
class CvReport:
    hx: float
    hy: float
    n_train: int
    n_used: int
    n_folds: int
    grid_hx: list
    grid_hy: list
    scores: list  # row major over (grid_hx, grid_hy), mean held out loglik


def fit_cv(
    x,
    y,
    n_folds=10,
    grid_size=9,
    subsample_cap=2000,
):
    """Pick bandwidths by cross validation, fit on everything.

    The grid is geometric on [0.01, 10] times the rms standard
    deviation of each space. For selection the data is capped to
    ``subsample_cap`` evenly spaced rows, deterministically; folds are
    assigned round robin by row index. Returns (model, CvReport).
    """
    x = _as_matrix(x, "x")
    y = _as_matrix(y, "y")
    n = x.shape[0]
    if n != y.shape[0]:
        raise BadConfig("x and y row counts differ")
    if n < 2:
        raise DegenerateData("cross validation needs at least two points")
    scale_x = float(np.sqrt(np.mean(x.var(axis=0))))
    scale_y = float(np.sqrt(np.mean(y.var(axis=0))))
    if scale_x == 0.0:
        raise DegenerateData("all covariates identical")
    if scale_y == 0.0:
        raise DegenerateData("all responses identical")

    if n > subsample_cap:
        idx = np.unique(np.linspace(0, n - 1, subsample_cap).astype(int))
    else:
        idx = np.arange(n)
    xs, ys = x[idx], y[idx]
    m = xs.shape[0]
    folds = min(n_folds, m)
    fold_id = np.arange(m) % folds

    grid_hx = np.geomspace(_GRID_LO, _GRID_HI, grid_size) * scale_x
    grid_hy = np.geomspace(_GRID_LO, _GRID_HI, grid_size) * scale_y
    dy = ys.shape[1]

    dx2 = _sqdist(xs, xs)
    dy2 = _sqdist(ys, ys)
    scores = np.zeros((grid_size, grid_size))
    for f in range(folds):
        test = fold_id == f
        train = ~test
        dxt = dx2[np.ix_(test, train)]
        dyt = dy2[np.ix_(test, train)]
        for a, hx in enumerate(grid_hx):
            ax = -dxt / (2.0 * hx**2)
            den = _logsumexp_rows(ax)
            for b, hy in enumerate(grid_hy):
                num = _logsumexp_rows(ax - dyt / (2.0 * hy**2))
                const = dy * (math.log(hy) + LOG_SQRT_2PI)
                scores[a, b] += float(np.sum(num - den - const))
    best = int(np.argmax(scores))
    a, b = divmod(best, grid_size)
    model = DoubleKernelCde(x, y, grid_hx[a], grid_hy[b])
    report = CvReport(
        hx=float(grid_hx[a]),
        hy=float(grid_hy[b]),
        n_train=n,
        n_used=m,
        n_folds=folds,
        grid_hx=grid_hx.tolist(),
        grid_hy=grid_hy.tolist(),
        scores=(scores / m).ravel().tolist(),
    )
    return model, report
