"""Shared builders for randomized partition-tree fixtures."""

import json
import math

import numpy as np
from hypothesis import settings
from scipy.special import betaln

from covermodels import (
    BayesTreeDensity,
    Box,
    CoverModelPosterior,
    DirichletMultinomial,
    KdTreeCover,
    NormalWishart,
    local_from_state,
)
from oracle import ExactEnumerator, dirichlet_block_marginal, normal_wishart_block_marginal

# Property tests draw the same examples on every run and are not timed
# per example, so they cannot flake on a loaded host; no example
# database is written.
settings.register_profile(
    "covermodels", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("covermodels")


def score(local, y):
    """A local model's log predictive at a raw y."""
    return local.log_predictive(local.prepare(y))


def learn(local, y):
    """Absorb a raw y into a local model; returns its update's value."""
    return local.update(local.prepare(y))


def refilled(local, ys):
    """``local`` rebuilt as a snapshot load rebuilds it: from its record,
    loaded against an empty local with its prior, then refilled from
    ``ys``, which it absorbed, as one kd leaf buffers them."""
    clone = local_from_state(local.state_dict(), local.spawn())
    ys = [tuple(np.asarray(y, dtype=float).reshape(-1).tolist()) for y in ys]
    block = clone.prepare_block(ys)
    if block is not None:
        clone.refill(block, slice(0, len(ys)))
    return clone


def old_record(prior, state):
    """A local's record as snapshot formats 3 and 4 wrote it, from its
    ``prior()`` and ``state_dict()``: the prior and what the local
    learnt in one dict; a mixture's holds its kind, its posterior
    weights and its components' records."""
    if prior["kind"] == "mixture":
        comps = [old_record(p, s) for p, s in zip(prior["components"], state["components"])]
        return {"kind": "mixture", "log_w": state["log_w"], "components": comps}
    return {**prior, **state}


def v5_state(prior, state):
    """A local's state as snapshot format 5 wrote it, from its
    ``prior()`` and its format-6 state: the Dirichlet counts as floats,
    ``637.0`` for ``637``, a mixture's components' in turn."""
    if prior["kind"] == "mixture":
        comps = [v5_state(p, s) for p, s in zip(prior["components"], state["components"])]
        return {**state, "components": comps}
    if prior["kind"] == "dirichlet":
        return {"counts": [float(c) for c in state["counts"]]}
    return state


def suffixes(links):
    """A suffix cover's format-6 links as the suffixes formats 3 to 5
    wrote, root first: each the parent's with the link's symbol
    prepended."""
    out = [[]]
    for parent, symbol in links:
        out.append([symbol] + out[parent])
    return out


def as_version(text, version):
    """A version-6 snapshot text, a model's or a bare posterior's, as
    version 3, 4 or 5 wrote it: each row a keyed record whose local is
    a ``v5_state``, and a suffix cover's links as ``suffixes``. Versions
    3 and 4 also have no prior in the posterior's header, and every
    record's local an ``old_record``. Version 3 also held tree counts
    and points, which a load ignores and this leaves out."""
    out, prior = [], None
    for line in text.splitlines():
        rec = json.loads(line)
        if isinstance(rec, list):
            cid, w0, log_m, log_trunc, state = rec
            local = v5_state(prior, state)
            if version < 5:
                local = old_record(prior, local)
            rec = {"cid": cid, "w0": w0, "log_m": log_m, "log_trunc": log_trunc, "local": local}
        elif rec.get("format") == "covermodels-snapshot":
            rec["version"] = version
            prior = rec["prior"] if version == 5 else rec.pop("prior")
            cover = rec["cover"]
            if cover["kind"] == "suffix":
                cover["suffixes"] = suffixes(cover.pop("links"))
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


def tree_nodes(bt):
    """A tree density's state whatever its node ids: per node in
    preorder, its count, whether it has children, its point if it is a
    singleton, its value and its stop pair."""
    out, stack = [], [(0, 0)]
    while stack:
        node, depth = stack.pop()
        left = bt._kid[node]
        single = not left and bt._n[node] == 1 and depth < bt.max_depth
        point = bt._point(node) if single else None
        out.append((bt._n[node], bool(left), point, bt._lam[node], bt._g[node], bt._h[node]))
        if left:
            stack += [(left + 1, depth + 1), (left, depth + 1)]
    return out


def local_trees(local):
    """``tree_nodes`` of each tree density in a local, a mixture's in
    component order. A snapshot holds no tree state, so a test that a local is unchanged compares these as well."""
    parts = getattr(local, "components", [local])
    return [tree_nodes(c) for c in parts if isinstance(c, BayesTreeDensity)]


def model_trees(model):
    """``local_trees`` of every context of a CDE model, by context id."""
    return {cid: local_trees(local) for cid, local in enumerate(model.posterior.local)}


def random_static_tree(rng, max_extra_splits=6, dim=None, depth_cap=3):
    """A kd partition tree grown by unconditional splits, no data yet.

    With ``alpha`` infinite a leaf's split threshold alpha**k is
    infinite, so no leaf ever splits on data and the tree stays the one
    built here, which the enumeration oracle needs.
    """
    dim = dim or int(rng.integers(1, 3))
    box = Box(np.zeros(dim), rng.uniform(0.5, 2.0, size=dim))
    cov = KdTreeCover(box, alpha=math.inf, max_depth=depth_cap + 1)
    leaves = [cov.root_id]
    for _ in range(int(rng.integers(1, max_extra_splits + 1))):
        # only leaves below the depth cap stay splittable
        open_leaves = [c for c in leaves if cov.contexts[c].depth <= depth_cap]
        if not open_leaves:
            break
        pick = open_leaves[int(rng.integers(len(open_leaves)))]
        leaves.remove(pick)
        leaves.extend(cov.split_leaf(pick))
    return cov


def attach_random_engine(rng, cov, kind="dirichlet", alphabet=3, concentration=0.5):
    """Engine over a static tree with per-context random stop weights.

    ``kind`` is "dirichlet" (symbols) or "nw" (scalar y under a
    Normal-Wishart)."""
    if kind == "dirichlet":
        prior = DirichletMultinomial(alphabet, concentration)
        marginal = dirichlet_block_marginal(alphabet, concentration)
    else:
        prior = NormalWishart([0.0])
        marginal = normal_wishart_block_marginal([0.0])
    post = CoverModelPosterior(cov, prior, depth_weight="const:0.5")
    w0 = {}
    for cid in cov.contexts:
        w = float(rng.uniform(0.05, 0.95))
        post.set_w0(cid, w)
        w0[cid] = w
    oracle = ExactEnumerator(cov, w0, marginal)
    return post, oracle


def random_xy(rng, cov, kind="dirichlet", alphabet=3):
    box = cov.root_box
    x = rng.uniform(box.lower, box.upper)
    if kind == "dirichlet":
        y = int(rng.integers(alphabet))
    else:
        y = float(rng.uniform(-1.0, 1.0))
    return x, y


def enum_stopped_trees(lo, hi, depth, max_depth, gamma, a, points):
    """Dyadic density-tree evidence by explicit recursion over stopping
    configurations. Deliberately cache-free and count-free."""
    n = len(points)
    width = hi - lo
    d = int(np.argmax(width))
    vol = float(np.prod(width))
    here = vol ** (-n)
    if depth == max_depth:
        return here
    mid = 0.5 * (lo[d] + hi[d])
    left = [p for p in points if p[d] < mid]
    right = [p for p in points if p[d] >= mid]
    hi_l = hi.copy()
    hi_l[d] = mid
    lo_r = lo.copy()
    lo_r[d] = mid
    split = (
        math.exp(betaln(a + len(left), a + len(right)) - betaln(a, a))
        * enum_stopped_trees(lo, hi_l, depth + 1, max_depth, gamma, a, left)
        * enum_stopped_trees(lo_r, hi, depth + 1, max_depth, gamma, a, right)
    )
    return gamma * here + (1 - gamma) * split
