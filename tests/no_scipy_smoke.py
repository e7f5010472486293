"""Use the package with scipy unimportable.

scipy is a test dependency only: the package, its command line module
and the kernel baseline must import and run on numpy alone. Run it as
``python tests/no_scipy_smoke.py`` against an installed package, or
with ``PYTHONPATH=src``; it prints ``ok`` and exits 0, or raises.
"""

import math
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import numpy as np  # noqa: E402

import covermodels  # noqa: E402
import covermodels.cli  # noqa: E402, F401

rng = np.random.default_rng(0)
x = rng.uniform(-2.0, 2.0, size=(50, 1))
y = np.sin(x) + rng.normal(0.0, 0.2, size=(50, 1))
kernel, _ = covermodels.fit_cv(x, y, n_folds=5, grid_size=3)
assert np.all(np.isfinite(kernel.log_density_batch(x[:5], y[:5])))

assert math.isfinite(covermodels.ctw_logprob([0, 1, 1, 0, 1, 1], max_context=2))

cde = covermodels.new_cde([-2.0], [2.0], [-2.0], [2.0])
for xi, yi in zip(x[:10], y[:10]):
    cde.absorb(xi, yi)
assert math.isfinite(cde.predict_logdensity([0.0], [0.0]))

vmm = covermodels.VmmModel(2, 3)
assert math.isfinite(vmm.fit_sequence([0, 1, 1, 0, 1]))
print("ok")
