"""The benchmark reads package names that the package itself may not.

``bench/tracer.py`` replaces each ``(owner, attribute)`` of its
``_layers()`` with a timing wrapper, reading the original from
``owner.__dict__``, and ``bench/workload.py`` counts a cover's size
through ``cover_counts``. Loading both here makes a rename or a move of
a name they read fail the suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from covermodels import VmmModel, gen_markov, new_cde

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    tracer = load("tracer")
    layers = tracer._layers()
    assert layers
    for owner, attr, layer in layers:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, layer)


def test_cover_counts_reads_both_covers(monkeypatch):
    """``cover_counts`` reads each context's ``cid`` and ``child_ids``,
    the kd cover's ``occupancy``, each cover's ``growth_mode``, which
    the package does not read, and ``n_contexts`` and
    ``deepest_depth``. Every point a CDE absorbed stays buffered in a
    leaf; a suffix cover buffers none."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src first
    cover_counts = load("workload").cover_counts
    rng = np.random.default_rng(2)
    cde = new_cde([0.0], [1.0], [0.0], [1.0], alpha=1.5)
    for x, y in rng.uniform(size=(60, 2)):
        cde.absorb([x], [y])
    vmm = VmmModel(2, 4)
    vmm.fit_sequence(gen_markov(80, seed=2))
    for model, buffered in [(cde, 60), (vmm, 0)]:
        cover = model.posterior.cover
        assert cover.n_contexts > 3
        assert cover_counts(cover) == {
            "covers.contexts": cover.n_contexts,
            "covers.depth": cover.deepest_depth,
            "covers.buffered_points": buffered,
        }
