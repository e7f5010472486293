"""The streaming contract of ``CdeModel`` as properties of random streams:
a rejected row changes nothing, a snapshot resumes exactly, and a
snapshot whose structure was corrupted is refused."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_version, model_trees
from covermodels import BadConfig, CdeConfig, CdeModel, OutOfSupport, VmmModel, local

COMPONENTS = [("tree",), ("nw", "tree")]
KINDS = ["ok", "ok", "ok", "nan_x", "nan_y", "y_outside"]
unit = st.floats(0.0, 1.0)
streams = st.lists(st.tuples(st.sampled_from(KINDS), unit, unit), min_size=1, max_size=40)


def make(components):
    cfg = CdeConfig(
        x_lower=[0.0],
        x_upper=[1.0],
        y_lower=[0.0],
        y_upper=[1.0],
        components=components,
        tree_max_depth=8,
    )
    return CdeModel(cfg)


def row(kind, x, y):
    if kind == "nan_x":
        x = math.nan
    elif kind == "nan_y":
        y = math.nan
    elif kind == "y_outside":
        y += 1.5  # outside the tree's box: only a tree-only model rejects it
    return [x], [y]


def rejected(kind, components):
    return kind.startswith("nan") or (kind == "y_outside" and "nw" not in components)


def feed(model, stream):
    """Absorb a stream; returns each row's log predictive, None where
    the row was rejected."""
    out = []
    with warnings.catch_warnings():
        # the mixture warns once when its tree skips a y outside its box
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind, x, y in stream:
            try:
                out.append(model.absorb(*row(kind, x, y)))
            except (BadConfig, OutOfSupport):
                out.append(None)
    return out


@given(st.sampled_from(COMPONENTS), streams)
def test_rejected_rows_leave_the_snapshot_unchanged(components, stream):
    model = make(components)
    for kind, x, y in stream:
        if rejected(kind, components):
            before = model.to_text(), model_trees(model)
            with pytest.raises((BadConfig, OutOfSupport)):
                model.absorb(*row(kind, x, y))
            assert (model.to_text(), model_trees(model)) == before
        else:
            assert feed(model, [(kind, x, y)]) != [None]


@given(st.sampled_from(COMPONENTS), streams, st.integers(0, 40))
def test_resume_from_a_snapshot_matches_continuing(components, stream, cut):
    cut = min(cut, len(stream))
    model = make(components)
    feed(model, stream[:cut])
    resumed = CdeModel.from_text(model.to_text())
    assert feed(resumed, stream[cut:]) == feed(model, stream[cut:])
    assert resumed.to_text() == model.to_text()
    assert resumed.posterior.log_evidence == model.posterior.log_evidence


@given(st.sampled_from(COMPONENTS), streams)
def test_reload_recomputes_every_log_lambda_bit_for_bit(components, stream):
    model = make(components)
    feed(model, stream)
    text = model.to_text()
    loaded = CdeModel.from_text(text)
    assert loaded.to_text() == text
    for cid, lam in enumerate(model.posterior.log_lambda):
        assert loaded.posterior.log_lambda[cid] == lam


def saved_models():
    cde = make(("nw", "tree"))
    rng = np.random.default_rng(5)
    feed(cde, [("ok", float(x), float(y)) for x, y in rng.uniform(0.0, 1.0, size=(40, 2))])
    vmm = VmmModel(alphabet_size=3, depth=4)
    vmm.fit_sequence(rng.integers(3, size=60).tolist())
    return {"cde": cde.to_text(), "vmm": vmm.to_text()}


SAVED = saved_models()
CDE_FIELDS = ["split", "buffered_x", "buffer_length", "nw_count", "nw_sums", "mixture_log_w"]
VMM_FIELDS = ["dirichlet_count", "link", "n_seen"]


def sites(field, lines):
    """(container, key) of every value of one kind of structural field
    in a parsed snapshot: lines[0] is the model's header, lines[1] holds
    the cover, lines[2:] the context rows, each [cid, w0, log_m,
    log_trunc, local state]."""
    cover = lines[1]["cover"]
    locals_ = [row[4] for row in lines[2:]]
    if field == "split":
        return [(rec, i) for rec in cover["splits"] for i in (1, 2)]
    if field == "buffered_x":
        width = len(cover["root_lower"]) + cover["y_dim"]
        return [(b, i) for b in cover["buffers"].values() for i in range(0, len(b), width)]
    if field == "buffer_length":
        return [(cover["buffers"], k) for k, b in cover["buffers"].items() if b]
    if field == "nw_count":
        return [(c["components"][0], "n") for c in locals_]
    if field == "nw_sums":
        return [(c["components"][0], key) for c in locals_ for key in ("sum_y", "sum_yy")]
    if field == "mixture_log_w":
        return [(c, "log_w") for c in locals_]  # every context's local is a mixture
    if field == "dirichlet_count":
        return [(c["counts"], i) for c in locals_ for i in range(len(c["counts"]))]
    if field == "n_seen":
        return [(lines[0], "n_seen")]
    return [(link, i) for link in cover["links"] for i in (0, 1)]


def corrupt(field, value, pick, lines):
    if field == "split":
        return value + 1 if isinstance(value, int) else value + 2.0**-20
    if field == "buffered_x":
        return -(pick % 7 + 1) / 8  # below the root box, in no leaf
    if field == "buffer_length":
        # one float too few, or one whole point (x and y) too few
        return value[:-1] if pick % 2 else value[:-2]
    if field in ("nw_count", "n_seen"):
        return value + 1
    if field == "nw_sums":
        # one float too many (in sum_yy a row too long to be square), a
        # NaN, or a sum no data can give: a negative sum of squares or a
        # mean far beyond it. pick's parity already chose sum_y or sum_yy.
        how = (pick // 2) % 3
        matrix = isinstance(value[0], list)  # sum_yy
        if how == 0:
            return [r + [0.0] for r in value] if matrix else value + [0.0]
        bad = math.nan if how == 1 else (-100.0 if matrix else 1e6)
        return [[bad] + r[1:] for r in value] if matrix else [bad] + value[1:]
    if field == "mixture_log_w":
        # one weight too few, or one NaN or +inf, or all shifted off normal
        k = pick % len(value)
        bad = [value[:-1], value[:k] + [math.nan] + value[k + 1:]]
        bad += [value[:k] + [math.inf] + value[k + 1:], [v + 1e-6 for v in value]]
        return bad[pick % 4]
    if field == "dirichlet_count":
        return value + lines[1]["n_obs"] + 1  # more than any parent holds
    # pick's parity chose the link's parent or its symbol: a parent that
    # is no earlier context, or a symbol outside the alphabet
    return value + (3 if pick % 2 else len(lines[1]["cover"]["links"]))


@given(st.sampled_from(CDE_FIELDS + VMM_FIELDS), st.integers(0, 10**6))
def test_a_corrupted_structural_field_is_refused(field, pick):
    kind, load = ("vmm", VmmModel.from_text) if field in VMM_FIELDS else ("cde", CdeModel.from_text)
    lines = [json.loads(line) for line in SAVED[kind].splitlines()]
    found = sites(field, lines)
    container, key = found[pick % len(found)]
    container[key] = corrupt(field, container[key], pick, lines)
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    with pytest.raises(BadConfig):
        load(text)


def edit_prior(field, local):
    """Change one prior field in place: of a prior, or of a version-4
    local record, which repeats its prior."""
    if field == "dirichlet_alpha":
        local["alpha"][0] += 0.5
        return
    nw, tree = local["components"]
    if field == "component_kind":  # the components trade places
        local["components"].reverse()
        local["log_w"].reverse()
    elif field == "tree_gamma":
        tree["gamma"] = 0.25
    elif field == "tree_branch_pseudo":
        tree["branch_pseudo"] = 1.0
    elif field == "tree_bounds":  # a wider box still holds every point
        tree["lower"] = [v - 1.0 for v in tree["lower"]]
        tree["upper"] = [v + 1.0 for v in tree["upper"]]
    elif field == "nw_kappa0":
        nw["kappa0"] = 2.0
    else:
        nw["T0"] = [[2.0 * v for v in row] for row in nw["T0"]]


PRIOR_FIELDS = [
    "tree_gamma", "tree_branch_pseudo", "tree_bounds", "nw_kappa0", "nw_T0", "component_kind",
]


@pytest.mark.parametrize("field", PRIOR_FIELDS + ["dirichlet_alpha"])
def test_a_context_with_another_prior_is_refused(field):
    """Every context has the model's one prior, so a version-4 snapshot
    in which one context below the root has another does not load,
    whichever context it is, and neither does a version-5 snapshot whose
    header holds another prior."""
    if field == "dirichlet_alpha":
        kind, load = "vmm", VmmModel.from_text
    else:
        kind, load = "cde", CdeModel.from_text
    old = as_version(SAVED[kind], 4)
    assert load(old).to_text() == SAVED[kind]
    records = old.splitlines()[2:]
    assert json.loads(records[0])["cid"] == 0  # the root; each record after it is edited in turn
    for i in range(1, len(records)):
        lines = [json.loads(line) for line in old.splitlines()]
        edit_prior(field, lines[2 + i]["local"])
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        with pytest.raises(BadConfig):
            load(text)
    lines = [json.loads(line) for line in SAVED[kind].splitlines()]
    edit_prior(field, lines[1]["prior"])
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    with pytest.raises(BadConfig, match="another kind or prior"):
        load(text)


def test_a_huge_version_3_tree_count_sizes_no_table(monkeypatch):
    """A version-3 snapshot also stored each tree's counts, which a load
    ignores and rebuilds from the buffers. A count raised to 10**9 along
    one root-to-leaf chain, which only the header's ``n_obs`` refutes,
    must not size the log-Beta tables that the model's trees share, and
    the model loads as saved."""
    a = 0.4375  # any pseudo-count: a model's tables start unsized
    cfg = CdeConfig(
        x_lower=[0.0], x_upper=[1.0], y_lower=[0.0], y_upper=[1.0],
        tree_max_depth=3, tree_branch_pseudo=a,
    )
    model = CdeModel(cfg)
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(0.0, 0.1, size=(30, 2)):
        model.absorb([x], [y])
    lines = [json.loads(line) for line in as_version(model.to_text(), 3).splitlines()]
    n_obs = lines[1]["n_obs"]
    for rec in lines[2:]:
        rec["local"]["components"][1].update(counts=[0], points=[])
    # the root context's tree: a chain of split nodes, whose counts are
    # negated, down to max_depth, where any count is legal
    lines[2]["local"]["components"][1]["counts"] = [-(10**9), -(10**9), -(10**9), 10**9, 0, 0, 0]
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)

    real = local.BayesTreeDensity._grow_tables

    def guarded(tree, n):
        if n > n_obs + 1:
            pytest.fail(f"log-Beta tables sized for {n} points, n_obs is {n_obs}")
        return real(tree, n)

    monkeypatch.setattr(local.BayesTreeDensity, "_grow_tables", guarded)
    assert CdeModel.from_text(text).to_text() == model.to_text()
