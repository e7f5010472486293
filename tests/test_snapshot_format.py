"""Snapshot format 6: the prior is written once, in the header, each
context's row holds its id, stop weight, ``log_m``, ``log_trunc`` and
only what its local learnt, and a suffix cover writes each context as
a link to its parent; tree densities are rebuilt from the kd cover's
buffers on load, and equal the saved model's trees bit for bit.
Format-3, format-4 and format-5 snapshots still load."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_version, tree_nodes
from covermodels import (
    BadConfig,
    BayesTreeDensity,
    Box,
    CdeConfig,
    CdeModel,
    CoverModelPosterior,
    KdTreeCover,
    MixtureLocal,
    NormalWishart,
    SuffixTreeCover,
    VmmModel,
    new_cde,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def trees(local):
    """The tree densities of a local, in component order."""
    comps = local.components if isinstance(local, MixtureLocal) else [local]
    return [c for c in comps if isinstance(c, BayesTreeDensity)]


def assert_same_trees(post, other):
    """Every context's trees hold the same nodes, values and pairs."""
    assert len(other.local) == len(post.local)
    for cid, local in enumerate(post.local):
        for mine, theirs in zip(trees(local), trees(other.local[cid])):
            assert theirs.state_dict() == mine.state_dict()
            assert tree_nodes(theirs) == tree_nodes(mine), cid


def stream_ys(rng, lo, hi, n, outside):
    """n ys in the box [lo, hi]: uniform ones, repeats, ys on the cells'
    dyadic midpoints and on the box's upper face; with ``outside``, some
    beyond the box, which a mixture's tree skips."""
    out = []
    for _ in range(n):
        kind = int(rng.integers(5 if outside else 4))
        if kind == 1 and out:
            y = out[int(rng.integers(len(out)))]
        elif kind == 2:
            levels = 2.0 ** rng.integers(1, 8, size=len(lo))
            y = lo + (hi - lo) * rng.integers(0, levels + 1) / levels
        elif kind == 3:
            y = rng.uniform(lo, hi)
            k = int(rng.integers(len(lo)))
            y[k] = hi[k]
        elif kind == 4:
            y = hi + rng.uniform(0.1, 1.0, size=len(lo))
        else:
            y = rng.uniform(lo, hi)
        out.append(np.array(y, dtype=float))
    return out


def absorb_all(model, xs, ys):
    with warnings.catch_warnings():
        # a mixture warns once when its tree skips a y outside its box
        warnings.simplefilter("ignore", RuntimeWarning)
        return [model.absorb(x, y) for x, y in zip(xs, ys)]


@given(
    components=st.sampled_from([("tree",), ("nw", "tree")]),
    y_dim=st.sampled_from([1, 2]),
    max_depth=st.sampled_from([0, 1, 4, 12, 70]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
)
def test_the_loads_rebuilt_trees_equal_the_saved_models(components, y_dim, max_depth, seed, n):
    """Nodes, values and stop pairs by ``tree_nodes``, the records, and
    then queries and seeded draws bit for bit. Depth 70 needs route codes
    past 64 bits."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, size=y_dim)
    hi = lo + rng.uniform(0.5, 3.0, size=y_dim)
    cfg = CdeConfig(
        x_lower=[0.0], x_upper=[1.0], y_lower=lo.tolist(), y_upper=hi.tolist(),
        components=components, alpha=1.5, tree_max_depth=max_depth,
    )
    model = CdeModel(cfg)
    xs = rng.uniform(0.0, 1.0, size=(n, 1))
    absorb_all(model, xs, stream_ys(rng, lo, hi, n, outside="nw" in components))
    text = model.to_text()
    loaded = CdeModel.from_text(text)
    assert loaded.to_text() == text
    assert_same_trees(model.posterior, loaded.posterior)
    queries = zip(rng.uniform(0.0, 1.0, size=(12, 1)), stream_ys(rng, lo, hi, 12, False))
    for x, y in queries:
        assert loaded.predict_logdensity(x, y) == model.predict_logdensity(x, y)
        a, b = np.random.default_rng(seed % 1000), np.random.default_rng(seed % 1000)
        assert np.array_equal(loaded.sample_y(x, a), model.sample_y(x, b))


@pytest.mark.parametrize("kind", ["tree", "mixture"])
def test_an_engine_with_tree_locals_round_trips(kind):
    """The rebuild belongs to the engine, so a posterior with any prior
    on a kd cover loads its trees, not only a ``CdeModel``."""
    prior = BayesTreeDensity([0.0, 0.0], [1.0, 1.0], gamma=0.3, max_depth=9)
    if kind == "mixture":
        prior = MixtureLocal([NormalWishart([0.5, 0.5]), prior], [0.2, -0.2])
    rng = np.random.default_rng(3)
    post = CoverModelPosterior(KdTreeCover(Box([0.0], [1.0]), alpha=1.5), prior)
    for x, y in zip(rng.uniform(size=(300, 1)), rng.beta(2.0, 5.0, size=(300, 2))):
        post.absorb(x, y)
    text = post.to_text()
    loaded = CoverModelPosterior.from_text(text, prior)
    assert loaded.to_text() == text
    assert_same_trees(post, loaded)
    for x, y in zip(rng.uniform(size=(20, 1)), rng.uniform(size=(20, 2))):
        assert loaded.absorb(x, y) == post.absorb(x, y)
    assert_same_trees(post, loaded)


def test_tree_locals_need_a_cover_with_buffers(monkeypatch):
    """A suffix cover buffers nothing, so a tree density on it cannot be
    rebuilt: such a posterior neither saves nor loads."""
    prior = BayesTreeDensity([0.0], [1.0])
    post = CoverModelPosterior(SuffixTreeCover(2, 3), prior)
    for h, y in [((), 0.3), ((0,), 0.6), ((0, 1), 0.9)]:
        post.absorb(h, y)
    with pytest.raises(BadConfig, match="kd cover"):
        post.to_text()
    monkeypatch.setattr(CoverModelPosterior, "_check_rebuildable", lambda self: None)
    text = post.to_text()
    monkeypatch.undo()
    with pytest.raises(BadConfig, match="kd cover"):
        CoverModelPosterior.from_text(text, prior)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("components", [("tree",), ("nw", "tree")])
def test_an_n_obs_other_than_the_buffered_points_is_refused(components, delta):
    """The leaf buffers hold every absorbed point, so a header ``n_obs``
    off by one is refused, also where no local keeps a count to check."""
    model = CdeModel(CdeConfig([0.0], [1.0], [0.0], [1.0], components=components, alpha=1.5))
    rng = np.random.default_rng(4)
    absorb_all(model, rng.uniform(size=(80, 1)), rng.uniform(size=(80, 1)))
    assert model.n_contexts > 1
    lines = model.to_text().splitlines()
    meta = json.loads(lines[1])
    meta["n_obs"] += delta
    lines[1] = json.dumps(meta, sort_keys=True)
    with pytest.raises(BadConfig, match="leaf buffers hold 80 points"):
        CdeModel.from_text("\n".join(lines) + "\n")


def test_a_mid_stream_resume_continues_exactly():
    """A 2-d model saved halfway and loaded absorbs, predicts, samples
    and saves as the model that never stopped."""
    rng = np.random.default_rng(11)
    n = 600
    xs = rng.uniform(0.0, 1.0, size=(n, 2))
    ys = np.stack([np.sin(4 * xs[:, 0]), xs[:, 1] ** 2], axis=1) + rng.normal(0, 0.2, (n, 2))
    cfg = CdeConfig(
        x_lower=[0.0, 0.0], x_upper=[1.0, 1.0], y_lower=[-1.5, -1.0], y_upper=[1.5, 2.0],
        alpha=1.5,
    )
    whole, first = CdeModel(cfg), CdeModel(cfg)
    went = absorb_all(whole, xs, ys)
    assert absorb_all(first, xs[: n // 2], ys[: n // 2]) == went[: n // 2]
    resumed = CdeModel.from_text(first.to_text())
    assert absorb_all(resumed, xs[n // 2:], ys[n // 2:]) == went[n // 2:]
    assert resumed.n_contexts == whole.n_contexts > first.n_contexts
    for x, y in zip(rng.uniform(0.0, 1.0, size=(30, 2)), rng.normal(0.0, 1.0, size=(30, 2))):
        assert resumed.predict_logdensity(x, y) == whole.predict_logdensity(x, y)
    a, b = np.random.default_rng(2), np.random.default_rng(2)
    for x in rng.uniform(0.0, 1.0, size=(20, 2)):
        assert np.array_equal(resumed.sample_y(x, a), whole.sample_y(x, b))
    assert resumed.to_text() == whole.to_text()
    assert_same_trees(whole.posterior, resumed.posterior)


# what a local of each kind learnt: the part of its record that
# version 5 keeps
LEARNT = {"dirichlet": ("counts",), "normal_wishart": ("n", "sum_y", "sum_yy"), "bayes_tree": ()}


def learnt(local):
    """A version-3 or version-4 record's local as version 5 writes it."""
    if local["kind"] == "mixture":
        return {"log_w": local["log_w"], "components": [learnt(c) for c in local["components"]]}
    return {key: local[key] for key in LEARNT[local["kind"]]}


def as_version_5(text, prior):
    """A version-3 or version-4 text as version 5 writes it: the
    version, ``prior`` in the posterior's header, and each record's local
    as what it learnt (``learnt``), with no tree ``counts`` or
    ``points``."""
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        if rec.get("format") == "covermodels-snapshot":
            rec["version"] = 5
            rec["prior"] = prior
        elif "cid" in rec:
            rec["local"] = learnt(rec["local"])
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


def trees_of_record(local):
    if local is None:
        return []
    comps = local["components"] if local["kind"] == "mixture" else [local]
    return [c for c in comps if c["kind"] == "bayes_tree"]


# Recorded with the version-3 code that wrote the fixtures: an nw+tree
# model with 2-d y, one of whose buffered ys lies outside the tree's box.
# The predictives and draws here and below were recorded again when the
# predictive became one mixture over the path's stop weights, summed in
# another order (each moved by 1 or 2 ulp, at most 1.8e-15), and
# sampling drew the stopping depth with one uniform.
V3_CDE_QUERIES = [
    ([0.1], [0.3, 0.9]), ([0.45], [0.9, 0.2]), ([0.8], [0.7, -0.8]), ([0.97], [-1.9, 1.99]),
]
V3_CDE = (
    29,
    ["-0.7715860654713427", "-0.5606778687178565", "-0.2731331264308108", "-11.35329552999123"],
    [
        "[0.8612617409402228, 0.5936423343900596]",
        "[0.24718498804479389, 0.859329194753276]",
        "[1.0328360351154389, 0.17443896963088934]",
        "[1.3666578381110048, 0.20180247105411941]",
        "[0.5823489809004345, -0.058256600119304]",
        "[0.8951593383074501, -0.7225195454262431]",
        "[0.8806277799474939, -0.43989744888118704]",
        "[0.23217277477025475, -0.9738398324433877]",
    ],
)
V3_VMM = (
    ["-0.9152685913556302", "-0.5792700281435794", "-3.236945376787502"],
    "-11.581323174606384",
    [1, 0, 2, 0, 2, 1, 0, 1, 1, 2, 1, 0],
)


# Recorded with the version-4 code that wrote the fixtures: an nw+tree
# model with 2-d y and mixture weights 2:1, one of whose buffered ys lies
# outside the tree's box, and a Laplace VMM with stop weight 0.4.
V4_CDE_QUERIES = [
    ([0.05], [0.9, -0.4]), ([0.5], [-0.8, 0.1]), ([0.75], [0.2, 0.3]), ([0.99], [1.9, -1.95]),
]
V4_CDE = (
    45,
    ["-0.4702650535404268", "-0.07931667221489563", "-1.1642020527386605", "-9.101935330744347"],
    [
        "[1.1085649275510832, -0.4541661024632125]",
        "[0.40794967729201564, -0.23413896478650076]",
        "[-0.6172918939172753, -0.10161425110886896]",
        "[-0.33411381102645366, 0.005072550842251833]",
        "[0.10159780560223608, 1.248795024996681]",
        "[0.5973390666722482, 0.328798121273835]",
        "[0.6013096534920083, 0.8536010296100722]",
        "[-0.22440730440164253, 0.24645461797035972]",
    ],
)
V4_VMM = (
    ["-2.1138836795398754", "-0.5078860708803175", "-1.2820581614604654"],
    "-8.90463915168881",
    [2, 0, 2, 0, 2, 2, 2, 1, 0, 0, 1, 1],
)


def check_cde(pinned, queries, model):
    n_contexts, logdens, draws = pinned
    assert model.n_contexts == n_contexts
    assert [repr(model.predict_logdensity(x, y)) for x, y in queries] == logdens
    rng = np.random.default_rng(13)
    got = [repr(np.atleast_1d(model.sample_y(x, rng)).tolist()) for x, _ in queries for _ in "ab"]
    assert got == draws


def check_vmm(pinned, model):
    nexts, seq, draws = pinned
    assert [repr(v) for v in model.next_symbol_logprobs().tolist()] == nexts
    assert repr(model.sequence_logprob([0, 1, 2, 2, 1, 0, 0])) == seq
    assert model.generate(12, np.random.default_rng(13)) == draws


def check_v3_cde(model):
    check_cde(V3_CDE, V3_CDE_QUERIES, model)


def check_v3_vmm(model):
    check_vmm(V3_VMM, model)


def check_v4_cde(model):
    check_cde(V4_CDE, V4_CDE_QUERIES, model)


def check_v4_vmm(model):
    check_vmm(V4_VMM, model)


def loads_and_saves_as_version_6(version, name, load, check):
    """The fixture predicts and samples as the code that wrote it did,
    and saves as version 6 (one row per context holding what it learnt,
    its prior once), which loads to the same model and, written back as
    version 5, is the version-5 text of the fixture."""
    text = (FIXTURES / f"snapshot_v{version}_{name}.txt").read_text()
    assert json.loads(text.splitlines()[1])["version"] == version
    model = load(text)
    check(model)
    again = model.to_text()
    assert json.loads(again.splitlines()[1])["version"] == 6
    v5 = text if version == 5 else as_version_5(text, model.posterior.prior.prior())
    assert as_version(again, 5) == v5
    check(load(again))
    assert load(again).to_text() == again
    if name == "cde":
        assert_same_trees(model.posterior, load(again).posterior)
    return text, again


@pytest.mark.parametrize(
    "name,load,check",
    [("cde", CdeModel.from_text, check_v3_cde), ("vmm", VmmModel.from_text, check_v3_vmm)],
)
def test_a_version_3_snapshot_loads_and_saves_as_version_6(name, load, check):
    """Its tree counts and points are ignored."""
    loads_and_saves_as_version_6(3, name, load, check)


@pytest.mark.parametrize(
    "name,load,check",
    [("cde", CdeModel.from_text, check_v4_cde), ("vmm", VmmModel.from_text, check_v4_vmm)],
)
def test_a_version_4_snapshot_loads_and_saves_as_version_6(name, load, check):
    """Written back as version 4, the version-6 text is the fixture
    byte for byte: the two hold the same information."""
    text, again = loads_and_saves_as_version_6(4, name, load, check)
    assert as_version(again, 4) == text


@pytest.mark.parametrize(
    "name,load,check",
    [("cde", CdeModel.from_text, check_v4_cde), ("vmm", VmmModel.from_text, check_v4_vmm)],
)
def test_a_version_5_snapshot_loads_and_saves_as_version_6(name, load, check):
    """The version-5 fixtures are the version-4 ones saved by the
    version-5 code, so they hold the same models. Written back as
    version 5, the version-6 text is the fixture byte for byte."""
    loads_and_saves_as_version_6(5, name, load, check)


def leaf_paths(obj, path=()):
    """The key path of every number and string in a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("name,load", [("cde", CdeModel.from_text), ("vmm", VmmModel.from_text)])
def test_a_version_5_header_with_any_prior_field_changed_is_refused(name, load):
    """Each number and string of the header's prior, changed alone, in
    a version-6 text and in the same text written as version 5."""
    text = load((FIXTURES / f"snapshot_v4_{name}.txt").read_text()).to_text()
    paths = list(leaf_paths(json.loads(text.splitlines()[1])["prior"]))
    assert len(paths) > 2
    versions = [text.splitlines(), as_version(text, 5).splitlines()]
    for lines, path in itertools.product(versions, paths):
        meta = json.loads(lines[1])
        parent = meta["prior"]
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if isinstance(value, str):
            parent[path[-1]] = value + "x"
        else:
            parent[path[-1]] = 2.0 * value + 1.0 if math.isfinite(value) else 0.0
        edited = "\n".join([lines[0], json.dumps(meta, sort_keys=True)] + lines[2:]) + "\n"
        with pytest.raises(BadConfig, match="another kind or prior"):
            load(edited)


def test_version_3_tree_records_are_not_read():
    """Tree counts that no data could give, in a version-3 snapshot,
    change nothing: the trees come from the buffers."""
    text = (FIXTURES / "snapshot_v3_cde.txt").read_text()
    lines = [json.loads(line) for line in text.splitlines()]
    for rec in lines[2:]:
        for tree in trees_of_record(rec["local"]):
            tree["counts"], tree["points"] = [-7, 1], [math.nan]
    edited = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    assert CdeModel.from_text(edited).to_text() == CdeModel.from_text(text).to_text()


def _edit_rows(rows, case):
    """The state rows, one JSON line per context in id order, with one
    fault."""
    if case == "dropped":
        return rows[:-1]
    if case == "repeated":
        return rows[:2] + rows[1:]
    if case == "unknown":
        row = json.loads(rows[-1])
        row[0] = len(rows)
        return rows[:-1] + [json.dumps(row, sort_keys=True)]
    return [rows[0], rows[2], rows[1]] + rows[3:]  # swapped


@pytest.mark.parametrize("case", ["dropped", "repeated", "unknown", "swapped"])
@pytest.mark.parametrize("kind", ["cde", "vmm"])
def test_state_records_name_each_context_once_in_id_order(kind, case):
    """A load reads the state rows in id order, as ``to_text`` writes
    them, and refuses a row dropped, repeated, naming no context or out
    of order."""
    if kind == "cde":
        model = new_cde([0.0], [1.0], [0.0], [1.0], alpha=1.5)
        rng = np.random.default_rng(5)
        absorb_all(model, rng.uniform(size=(60, 1)), rng.uniform(size=(60, 1)))
        load = CdeModel.from_text
    else:
        model = VmmModel(2, 4)
        model.fit_sequence([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0])
        load = VmmModel.from_text
    text = model.to_text()
    assert load(text).to_text() == text
    lines = text.splitlines()
    assert len(lines) - 2 == model.posterior.cover.n_contexts > 3
    edited = lines[:2] + _edit_rows(lines[2:], case)
    with pytest.raises(BadConfig):
        load("\n".join(edited) + "\n")


def saved_vmm():
    """A version-6 text of the version-5 VMM fixture's model."""
    return VmmModel.from_text((FIXTURES / "snapshot_v5_vmm.txt").read_text()).to_text()


def test_a_version_6_row_is_a_list_and_a_dirichlet_count_an_int():
    """Each context's line is ``[cid, w0, log_m, log_trunc, state]``,
    in id order, and a suffix cover writes one link per context but the
    root."""
    lines = [json.loads(line) for line in saved_vmm().splitlines()]
    rows, cover = lines[2:], lines[1]["cover"]
    assert [row[0] for row in rows] == list(range(len(rows)))
    assert all(len(row) == 5 and type(row[4]["counts"][0]) is int for row in rows)
    assert "suffixes" not in cover and len(cover["links"]) == len(rows) - 1


@pytest.mark.parametrize("header", ["3", "[]", "null", '"x"'])
@pytest.mark.parametrize("line", ["model", "posterior", "cover"])
@pytest.mark.parametrize("name,load", [("cde", CdeModel.from_text), ("vmm", VmmModel.from_text)])
def test_a_header_that_is_not_a_json_object_is_refused(name, load, line, header):
    """A header of valid JSON that is not an object raised
    ``AttributeError`` from ``meta.get``: the model's header, the
    posterior's, or the cover's state in it."""
    lines = load((FIXTURES / f"snapshot_v5_{name}.txt").read_text()).to_text().splitlines()
    if line == "cover":
        meta = json.loads(lines[1])
        meta["cover"] = json.loads(header)
        lines[1] = json.dumps(meta, sort_keys=True)
    else:
        lines[0 if line == "model" else 1] = header
    with pytest.raises(BadConfig):
        load("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row",
    [
        '{"cid": 1}',
        "[1, 0.5, 0.0, 0.0]",
        '[1, 0.5, 0.0, 0.0, {"counts": [0, 0, 0]}, 0]',
        '"x"',
        "3",
    ],
)
def test_a_row_that_is_not_a_five_element_list_is_refused(row):
    lines = saved_vmm().splitlines()
    lines[3] = row
    with pytest.raises(BadConfig):
        VmmModel.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("w0", [0.0, -0.25, 1.5, math.nan])
def test_a_stop_weight_outside_0_1_is_refused(w0):
    lines = saved_vmm().splitlines()
    row = json.loads(lines[3])
    row[1] = w0
    lines[3] = json.dumps(row)
    with pytest.raises(BadConfig, match=r"not in \(0, 1\]"):
        VmmModel.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["0.5", True, 10**400], ids=["string", "bool", "huge"])
@pytest.mark.parametrize("field", ["log_evidence", "w0", "log_m", "log_trunc"])
def test_a_snapshot_number_must_be_a_json_number(field, value):
    """The header's ``log_evidence`` and a row's ``w0``, ``log_m`` and
    ``log_trunc`` went through ``float``, so ``"0.5"`` and ``true``
    loaded and an int past the largest float raised ``OverflowError``.
    A string stop weight fails its range check, and a huge one is out of
    range."""
    lines = saved_vmm().splitlines()
    if field == "log_evidence":
        meta = json.loads(lines[1])
        meta[field] = value
        lines[1] = json.dumps(meta, sort_keys=True)
    else:
        row = json.loads(lines[3])
        row[["cid", "w0", "log_m", "log_trunc"].index(field)] = value
        lines[3] = json.dumps(row)
    with pytest.raises(BadConfig, match=r"is not a number|malformed|not in \(0, 1\]"):
        VmmModel.from_text("\n".join(lines) + "\n")


def test_dirichlet_counts_load_as_ints_or_integral_floats_and_no_larger_than_a_float():
    """Version 5 wrote ``637.0``, version 6 writes ``637``; both load to
    the same model. A count past the largest float raised
    ``OverflowError``."""
    text = saved_vmm()
    lines = [json.loads(line) for line in text.splitlines()]
    for row in lines[2:]:
        row[4]["counts"] = [float(c) for c in row[4]["counts"]]
    as_floats = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    assert as_floats != text and VmmModel.from_text(as_floats).to_text() == text
    edited = text.splitlines()
    row = json.loads(edited[2])
    row[4]["counts"][0] = 10**400
    edited[2] = json.dumps(row)
    with pytest.raises(BadConfig, match="whole numbers"):
        VmmModel.from_text("\n".join(edited) + "\n")
