"""Method adapters for the evaluation harness.

Each adapter exposes begin/observe/prepare/holdout_loglik. ``observe``
feeds one training pair; ``prepare(t)`` is where batch methods refit;
``holdout_loglik`` must not mutate the method.
"""

from __future__ import annotations

import math

import numpy as np

from .cde import CdeConfig, CdeModel
from .errors import BadConfig
from .kernel import fit_cv
from .local import NormalWishart
from .vmm import VmmModel


class CoverCdeMethod:
    """Incremental cover model estimator; never refits."""

    name = "cover-cde"

    def __init__(self, config: CdeConfig, resume_text=None):
        self.config = config
        self.resume_text = resume_text
        self.model = None

    def begin(self, seed):
        if self.resume_text is not None:
            self.model = CdeModel.from_text(self.resume_text)
        else:
            self.model = CdeModel(self.config)

    def snapshot_text(self) -> str:
        return self.model.to_text()

    @property
    def n_absorbed(self) -> int:
        return 0 if self.model is None else self.model.n_obs

    def observe(self, x, y):
        self.model.absorb(x, y)

    def prepare(self, t):
        pass

    def holdout_loglik(self, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.array(
            [self.model.predict_logdensity(x[i], y[i]) for i in range(x.shape[0])]
        )


class KernelCdeMethod:
    """Double kernel baseline, refit with fresh CV at every checkpoint."""

    name = "kernel-cde"

    def __init__(self, n_folds=10, grid_size=9, subsample_cap=2000):
        self.n_folds = n_folds
        self.grid_size = grid_size
        self.subsample_cap = subsample_cap
        self.model = None
        self.reports = []

    def begin(self, seed):
        self._xs = []
        self._ys = []
        self.model = None
        self.reports = []

    def observe(self, x, y):
        self._xs.append(np.atleast_1d(np.asarray(x, dtype=float)))
        self._ys.append(np.atleast_1d(np.asarray(y, dtype=float)))

    def prepare(self, t):
        self.model, report = fit_cv(
            np.asarray(self._xs),
            np.asarray(self._ys),
            n_folds=self.n_folds,
            grid_size=self.grid_size,
            subsample_cap=self.subsample_cap,
        )
        self.reports.append({"t": t, "hx": report.hx, "hy": report.hy})

    def holdout_loglik(self, x, y):
        if self.model is None:
            raise BadConfig("kernel method queried before any checkpoint")
        return self.model.log_density_batch(x, y)


class GlobalNormalWishartMethod:
    """One Normal-Wishart for y, ignoring x entirely."""

    name = "global-nw"

    def __init__(self):
        self.local = None

    def begin(self, seed):
        self.local = None

    def observe(self, x, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.local is None:
            self.local = NormalWishart(np.zeros(y.shape[0]))
        self.local.update(self.local.prepare(y))

    def prepare(self, t):
        pass

    def holdout_loglik(self, x, y):
        if self.local is None:
            raise BadConfig("no data observed")
        y = np.atleast_2d(np.asarray(y, dtype=float))
        local = self.local
        return np.array([local.log_predictive(local.prepare(y[i])) for i in range(y.shape[0])])


class ConstantMethod:
    """Fixed density everywhere; anchors harness tests."""

    name = "constant"

    def __init__(self, density=1.0):
        if density <= 0:
            raise BadConfig("density must be positive")
        self.log_density = math.log(density)

    def begin(self, seed):
        pass

    def observe(self, x, y):
        pass

    def prepare(self, t):
        pass

    def holdout_loglik(self, x, y):
        n = np.atleast_2d(np.asarray(y, dtype=float)).shape[0]
        return np.full(n, self.log_density)


class VmmMethod:
    """Symbol stream model; x columns are ignored.

    Held out sequences are scored from an empty conditioning history
    on a throwaway ``VmmModel.copy``, so evaluation never perturbs
    training state. The copy is structural, linear in the number of
    contexts, and the scoring itself is one observe per held-out symbol.
    """

    name = "vmm"

    def __init__(self, alphabet_size, depth, prior="kt", stop_weight=0.5, resume_text=None):
        self.kw = dict(
            alphabet_size=alphabet_size,
            depth=depth,
            prior=prior,
            stop_weight=stop_weight,
        )
        self.resume_text = resume_text
        self.model = None

    def begin(self, seed):
        if self.resume_text is not None:
            self.model = VmmModel.from_text(self.resume_text)
        else:
            self.model = VmmModel(**self.kw)

    def snapshot_text(self) -> str:
        return self.model.to_text()

    @property
    def n_absorbed(self) -> int:
        return 0 if self.model is None else self.model.posterior.n_obs

    def observe(self, x, y):
        self.model.observe(np.asarray(y).reshape(-1)[0])

    def prepare(self, t):
        pass

    def holdout_loglik(self, x, y):
        seq = np.asarray(y, dtype=float).reshape(-1).tolist()
        clone = self.model.copy()
        clone.history.clear()
        return np.array([clone.observe(s) for s in seq])
