"""Method adapters for the evaluation harness.

An adapter has a ``name``, which the CLI selects it by, and four steps,
which ``run_eval`` calls in this order: ``begin(seed)`` readies it for a
run, ``observe(x, y)`` feeds one training pair, ``prepare(t)`` is where
batch methods refit once t pairs are in, and ``holdout_loglik(x, y)``
scores held-out rows without changing the method. Its constructor's
parameters are its options.

``CoverCdeMethod`` and ``VmmMethod`` wrap an incremental model, and only
they can resume. Built with ``resume_text``, a snapshot, their ``begin``
loads it instead of starting fresh; ``n_absorbed`` is the number of rows
their model holds, where ``run_eval`` starts the stream; and
``snapshot_text()`` saves the model.
"""

from __future__ import annotations

import math

import numpy as np

from .cde import CdeConfig, CdeModel
from .errors import BadConfig
from .kernel import fit_cv
from .local import NormalWishart
from .vmm import VmmModel


class _Adapter:
    """No-op ``begin`` and ``prepare``, for adapters that need neither."""

    def begin(self, seed):
        pass

    def prepare(self, t):
        pass


class _Resumable(_Adapter):
    """An adapter over one incremental ``model_class`` model, built from
    ``settings`` or loaded from ``resume_text``; it never refits."""

    def __init__(self, resume_text, **settings):
        self.settings = settings
        self.resume_text = resume_text
        self.model = None

    def begin(self, seed):
        if self.resume_text is None:
            self.model = self.model_class(**self.settings)
        else:
            self.model = self.model_class.from_text(self.resume_text)

    def snapshot_text(self) -> str:
        return self.model.to_text()

    @property
    def n_absorbed(self) -> int:
        return 0 if self.model is None else self.model.posterior.n_obs


class CoverCdeMethod(_Resumable):
    """Incremental cover model estimator."""

    name = "cover-cde"
    model_class = CdeModel

    def __init__(self, config: CdeConfig, resume_text=None):
        super().__init__(resume_text, config=config)

    def observe(self, x, y):
        self.model.absorb(x, y)

    def holdout_loglik(self, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.array(
            [self.model.predict_logdensity(x[i], y[i]) for i in range(x.shape[0])]
        )


class KernelCdeMethod(_Adapter):
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


class GlobalNormalWishartMethod(_Adapter):
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

    def holdout_loglik(self, x, y):
        if self.local is None:
            raise BadConfig("no data observed")
        y = np.atleast_2d(np.asarray(y, dtype=float))
        local = self.local
        return np.array([local.log_predictive(local.prepare(y[i])) for i in range(y.shape[0])])


class ConstantMethod(_Adapter):
    """Fixed density everywhere; anchors harness tests."""

    name = "constant"

    def __init__(self, density=1.0):
        if density <= 0:
            raise BadConfig("density must be positive")
        self.log_density = math.log(density)

    def observe(self, x, y):
        pass

    def holdout_loglik(self, x, y):
        n = np.atleast_2d(np.asarray(y, dtype=float)).shape[0]
        return np.full(n, self.log_density)


class VmmMethod(_Resumable):
    """Symbol stream model; x columns are ignored.

    Held out sequences are scored by ``VmmModel.sequence_logprobs``, from
    an empty conditioning history on a throwaway copy, so evaluation
    never perturbs training state.
    """

    name = "vmm"
    model_class = VmmModel

    def __init__(self, alphabet_size, depth=3, prior="kt", stop_weight=0.5, resume_text=None):
        super().__init__(
            resume_text,
            alphabet_size=alphabet_size,
            depth=depth,
            prior=prior,
            stop_weight=stop_weight,
        )

    def observe(self, x, y):
        self.model.observe(np.asarray(y).reshape(-1)[0])

    def holdout_loglik(self, x, y):
        seq = np.asarray(y, dtype=float).reshape(-1).tolist()
        return np.array(self.model.sequence_logprobs(seq))
