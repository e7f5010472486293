"""Use the package with scipy unimportable.

scipy is a test dependency only: the package, its command line module
and the kernel baseline must import and run on numpy alone. Run it as
``python tests/no_scipy_smoke.py`` against an installed package, or
with ``PYTHONPATH=src``; it prints ``ok`` and exits 0, or raises.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import numpy as np  # noqa: E402

import covermodels  # noqa: E402
from covermodels.cli import main  # noqa: E402

rng = np.random.default_rng(0)
x = rng.uniform(-2.0, 2.0, size=(50, 1))
y = np.sin(x) + rng.normal(0.0, 0.2, size=(50, 1))
kernel, _ = covermodels.fit_cv(x, y, n_folds=5, grid_size=3)
assert np.all(np.isfinite(kernel.log_density_batch(x[:5], y[:5])))

assert math.isfinite(covermodels.ctw_logprob([0, 1, 1, 0, 1, 1], max_context=2))

cde = covermodels.new_cde([-2.0], [2.0], [-2.0], [2.0])
for xi, yi in zip(x, y):
    cde.absorb(xi, yi)
assert math.isfinite(cde.predict_logdensity([0.0], [0.0]))
# a load rebuilds every context's tree density from the kd cover's
# buffers, routing them in numpy: the reloaded model predicts bit for bit
clone = covermodels.CdeModel.from_text(cde.to_text())
assert clone.n_contexts == cde.n_contexts > 1
assert clone.to_text() == cde.to_text()
grid = np.linspace(-2.0, 2.0, 9)
assert [clone.predict_logdensity([a], [b]) for a in grid for b in grid] == [
    cde.predict_logdensity([a], [b]) for a in grid for b in grid
]
# the sampler walks the reloaded trees' stop pairs: one seed, the same ys
rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
draws = [cde.sample_y([0.5], rng_a) for _ in range(10)]
assert [clone.sample_y([0.5], rng_b) for _ in range(10)] == draws


def grid_predictions(model):
    return [model.predict_logdensity([a], [b]) for a in grid for b in grid]


# a stream that repeats three ys: the load routes every copy of a y
# down to the tree's max_depth, and the reloaded model predicts bit
# for bit
reps = covermodels.new_cde([-2.0], [2.0], [-2.0], [2.0])
for xi, yi in zip(x, np.resize([[-1.0], [0.25], [1.5]], (50, 1))):
    reps.absorb(xi, yi)
clone = covermodels.CdeModel.from_text(reps.to_text())
assert clone.to_text() == reps.to_text()
assert grid_predictions(clone) == grid_predictions(reps)
# a zero mixture weight is a log weight of -inf, taken without a
# warning: the mixture predicts as its other component alone
with warnings.catch_warnings():
    warnings.simplefilter("error", RuntimeWarning)
    nw = covermodels.new_cde([-2.0], [2.0], [-2.0], [2.0], components=("nw",))
    mixed = covermodels.new_cde([-2.0], [2.0], [-2.0], [2.0], mixture_weights=[1.0, 0.0])
    for xi, yi in zip(x, y):
        nw.absorb(xi, yi)
        mixed.absorb(xi, yi)
    assert grid_predictions(mixed) == grid_predictions(nw)

vmm = covermodels.VmmModel(2, 3)
assert math.isfinite(vmm.fit_sequence([0, 1, 1, 0, 1]))
# every context's Dirichlet record loads against the fresh local
vmm_clone = covermodels.VmmModel.from_text(vmm.to_text())
assert vmm_clone.next_symbol_logprobs().tolist() == vmm.next_symbol_logprobs().tolist()
# scoring learns into a copy, whose child index is copied, and the
# reload rebuilt its index from the links: one held-out score
held = [1, 1, 0, 1, 0, 0, 1]
assert vmm_clone.sequence_logprob(held) == vmm.sequence_logprob(held)
# a copy holds its own state columns: a step on it leaves the original
# as it was
text, row = vmm.to_text(), vmm.next_symbol_logprobs().tolist()
fork = vmm.copy()
fork.fit_sequence([1, 1, 0])
assert vmm.to_text() == text and vmm.next_symbol_logprobs().tolist() == row
assert fork.to_text() != text

# two equal xs split the kd cover down to float resolution, 1074 levels
# in one absorb; the model predicts and reloads byte-identically
deep = covermodels.new_cde(
    [0.0], [1.0], [0.0], [1.0], alpha=1.0001, max_depth_x=2000, depth_weight="const:0.5"
)
deep.absorb([0.0], [0.5])
deep.absorb([0.0], [0.5])
assert deep.refinement_depth == 1074
deep_clone = covermodels.CdeModel.from_text(deep.to_text())
assert deep_clone.to_text() == deep.to_text()
assert deep_clone.predict_logdensity([0.0], [0.4]) == deep.predict_logdensity([0.0], [0.4])

# every committed version-3, version-4 and version-5 snapshot loads,
# and its version-6 re-save loads and saves to the same text
for path in sorted(Path(__file__).resolve().parent.glob("fixtures/snapshot_v[345]_*.txt")):
    load = {"cde": covermodels.CdeModel, "vmm": covermodels.VmmModel}[path.stem[-3:]].from_text
    again = load(path.read_text()).to_text()
    assert json.loads(again.splitlines()[1])["version"] == 6, path.name
    assert load(again).to_text() == again, path.name


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv


# the command line resumes a snapshot taken mid-stream: the resumed
# run's records equal the uninterrupted run's at the same checkpoints,
# byte for byte
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for method, data, opts in (
        ("cover-cde", "uniform-mix", ()),
        ("vmm", "markov", ("--set", "alphabet_size=2", "--set", "depth=4")),
    ):
        train, hold, snap = tmp / f"{method}.train", tmp / f"{method}.hold", tmp / f"{method}.snap"
        cli("gen", "--dataset", data, "--n", 120, "--seed", 1, "--out", train)
        cli("gen", "--dataset", data, "--n", 40, "--seed", 2, "--out", hold)
        run = ("fit-eval", "--method", method, "--train", train, "--holdout", hold,
               "--checkpoints", "40,80,120", "--no-timing")
        full, part, rest = (tmp / f"{method}.{name}.csv" for name in ("full", "part", "rest"))
        cli(*run, *opts, "--out", full)
        cli(*run, *opts, "--snapshot-at", 60, "--snapshot-out", snap, "--out", part)
        cli(*run, "--resume", snap, "--out", rest)
        lines = full.read_bytes().splitlines(keepends=True)
        assert part.read_bytes() == full.read_bytes(), method
        assert rest.read_bytes() == b"".join(lines[:1] + lines[-2:]), method
print("ok")
