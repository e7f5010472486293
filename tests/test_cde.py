"""Streaming conditional density estimator, end to end."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from conftest import as_version, model_trees
from covermodels import local
from covermodels import (
    BadConfig,
    BayesTreeDensity,
    Box,
    CdeConfig,
    CdeModel,
    CtwOracle,
    DirichletMultinomial,
    DoubleKernelCde,
    KdTreeCover,
    MixtureLocal,
    NormalWishart,
    OutOfSupport,
    VmmModel,
    gen_gaussian_ring,
    gen_markov,
    gen_mixture,
    new_cde,
)

_NAN = math.nan
_UNIT = dict(x_lower=[0.0], x_upper=[1.0], y_lower=[0.0], y_upper=[1.0])


def _two_normals(log_weights):
    return MixtureLocal([NormalWishart([0.0]), NormalWishart([1.0])], log_weights)


# Each builds an object or validates a config that must be refused: a
# NaN passes a check written as `x <= bound`, an infinite box has no
# midpoint to split at and no finite volume, a Normal-Wishart scale
# that is not positive definite or not dim by dim has no Student t
# predictive, a y_dim that is not a positive int sizes no
# Normal-Wishart, and a prior number that is not finite made a model
# that scored nan or raised a bare ValueError or OverflowError (`--set
# tree_branch_pseudo=Infinity` parses as JSON inf). So did a tree box
# of finite bounds whose volume over- or underflows, and mixture log
# weights with a NaN, a +inf or nothing but -inf.
_UNUSABLE = {
    "kd-alpha-nan": lambda: KdTreeCover(Box([0.0], [1.0]), alpha=_NAN),
    "kd-max-depth-nan": lambda: KdTreeCover(Box([0.0], [1.0]), max_depth=_NAN),
    "kd-max-depth-inf": lambda: KdTreeCover(Box([0.0], [1.0]), max_depth=math.inf),
    "kd-max-depth-fractional": lambda: KdTreeCover(Box([0.0], [1.0]), max_depth=1.5),
    "cde-max-depth-x-inf": lambda: CdeModel(CdeConfig(max_depth_x=math.inf, **_UNIT)),
    "cde-max-depth-x-fractional": lambda: CdeConfig(max_depth_x=1.5, **_UNIT).validate(),
    "cde-2^-k-zero-at-max-depth-x": lambda: new_cde(
        [0.0], [1.0], [0.0], [1.0], max_depth_x=1075, components=("nw",)
    ),
    "cde-alpha-nan": lambda: CdeConfig(alpha=_NAN, **_UNIT).validate(),
    "cde-tree-max-depth-nan": lambda: CdeModel(CdeConfig(tree_max_depth=_NAN, **_UNIT)),
    "cde-tree-max-depth-huge": lambda: CdeModel(CdeConfig(tree_max_depth=10**9, **_UNIT)),
    "nw-kappa0-nan": lambda: NormalWishart([0.0], kappa0=_NAN),
    "nw-nu0-nan": lambda: NormalWishart([0.0], nu0=_NAN),
    "nw-scale-nan": lambda: NormalWishart([0.0], scale=_NAN),
    "cde-nw-kappa0-nan": lambda: CdeModel(CdeConfig(nw_kappa0=_NAN, **_UNIT)),
    "cde-nw-nu0-nan": lambda: CdeModel(CdeConfig(nw_nu0=_NAN, **_UNIT)),
    "cde-nw-scale-nan": lambda: CdeModel(CdeConfig(nw_scale=_NAN, **_UNIT)),
    "cde-nw-scale-negative": lambda: CdeModel(
        CdeConfig(nw_scale=-1.0, components=("nw",), **_UNIT)
    ),
    "cde-nw-scale-zero": lambda: CdeModel(CdeConfig(nw_scale=0.0, components=("nw",), **_UNIT)),
    "nw-scale-indefinite": lambda: NormalWishart([0.0, 0.0], scale=[[1.0, 2.0], [2.0, 1.0]]),
    "nw-scale-1x1-for-dim-2": lambda: NormalWishart([0.0, 1.0], scale=[[2.0]]),
    "nw-mu0-nan": lambda: NormalWishart([_NAN]),
    "nw-kappa0-inf": lambda: NormalWishart([0.0], kappa0=math.inf),
    "nw-nu0-inf": lambda: NormalWishart([0.0], nu0=math.inf),
    "tree-branch-pseudo-inf": lambda: BayesTreeDensity([0.0], [1.0], branch_pseudo=math.inf),
    "tree-branch-pseudo-1e308": lambda: BayesTreeDensity([0.0], [1.0], branch_pseudo=1e308),
    "cde-tree-branch-pseudo-inf": lambda: CdeModel(CdeConfig(tree_branch_pseudo=math.inf, **_UNIT)),
    "dirichlet-concentration-nan": lambda: DirichletMultinomial(3, _NAN),
    "dirichlet-concentration-inf": lambda: DirichletMultinomial(2, math.inf),
    "vmm-prior-nan": lambda: VmmModel(3, 3, prior=_NAN),
    "vmm-prior-inf": lambda: VmmModel(2, 3, prior=math.inf),
    "vmm-depth-inf": lambda: VmmModel(2, math.inf),
    "vmm-depth-fractional": lambda: VmmModel(2, 2.5),
    "vmm-alphabet-fractional": lambda: VmmModel(2.5, 3),
    "ctw-alphabet-fractional": lambda: CtwOracle(2.5, 1),
    "ctw-depth-fractional": lambda: CtwOracle(2, 1.5),
    "ctw-depth-inf": lambda: CtwOracle(2, math.inf),
    "tree-max-depth-fractional": lambda: BayesTreeDensity([0.0], [1.0], max_depth=1.5),
    "cde-mixture-weight-negative": lambda: CdeConfig(
        mixture_weights=[-1.0, 2.0], **_UNIT
    ).validate(),
    "cde-mixture-weight-nan": lambda: CdeConfig(mixture_weights=[_NAN, 1.0], **_UNIT).validate(),
    "box-upper-inf": lambda: Box([0.0], [math.inf]),
    "cde-y-upper-inf": lambda: CdeConfig(
        x_lower=[0.0], x_upper=[1.0], y_lower=[0.0], y_upper=[math.inf], components=("tree",)
    ).validate(),
    "cde-x-upper-inf": lambda: CdeConfig(
        x_lower=[0.0], x_upper=[math.inf], y_lower=[0.0], y_upper=[1.0]
    ).validate(),
    "tree-volume-overflow": lambda: BayesTreeDensity([-1e308], [1e308]),
    "cde-tree-volume-overflow": lambda: new_cde(
        [0.0], [1.0], [-1e308], [1e308], components=("tree",)
    ),
    "tree-volume-underflow": lambda: BayesTreeDensity([0.0, 0.0], [1e-200, 1e-200]),
    "cde-tree-volume-underflow": lambda: new_cde(
        [0.0], [1.0], [0.0, 0.0], [1e-200, 1e-200], components=("tree",)
    ),
    "mixture-weight-nan": lambda: _two_normals([_NAN, 0.0]),
    "mixture-weight-inf": lambda: _two_normals([math.inf, 0.0]),
    "mixture-weights-all-zero": lambda: _two_normals([-math.inf, -math.inf]),
    "cde-y-dim-zero": lambda: CdeModel(
        CdeConfig([0.0], [1.0], y_dim=0, components=("nw",))
    ),
    "cde-y-dim-negative": lambda: CdeModel(
        CdeConfig([0.0], [1.0], y_dim=-1, components=("nw",))
    ),
    "cde-y-dim-fractional": lambda: CdeModel(
        CdeConfig([0.0], [1.0], y_dim=1.5, components=("nw",))
    ),
    "box-no-dims": lambda: Box([], []),
    "cde-x-box-no-dims": lambda: CdeModel(CdeConfig([], [], [0.0], [1.0])),
    "cde-y-box-no-dims": lambda: new_cde([0.0], [1.0], [], [], components=("nw",)),
    "nw-no-dims": lambda: NormalWishart([]),
    "tree-no-dims": lambda: BayesTreeDensity([], [], max_depth=0),
    # sizes go through covers.as_size; each of these raised a bare
    # numpy TypeError
    "dirichlet-alphabet-fractional": lambda: DirichletMultinomial(2.5),
    "dirichlet-alphabet-inf": lambda: DirichletMultinomial(math.inf),
    "dirichlet-alphabet-nan": lambda: DirichletMultinomial(_NAN),
    "dirichlet-alphabet-one": lambda: DirichletMultinomial(1),
    "markov-n-fractional": lambda: gen_markov(2.5),
    "markov-order-fractional": lambda: gen_markov(10, order=1.5),
    "markov-alphabet-fractional": lambda: gen_markov(10, alphabet_size=2.5),
    "markov-n-zero": lambda: gen_markov(0),
    "mixture-n-fractional": lambda: gen_mixture(2.5),
    "mixture-n-nan": lambda: gen_mixture(_NAN),
    "ring-n-inf": lambda: gen_gaussian_ring(math.inf),
    # a CdeConfig field of the wrong type raised a bare TypeError from a
    # comparison or a constructor
    "cde-alpha-list": lambda: CdeModel(CdeConfig(alpha=[2.0], **_UNIT)),
    "cde-tree-gamma-string": lambda: CdeModel(CdeConfig(tree_gamma="a", **_UNIT)),
    "cde-x-lower-number": lambda: CdeModel(CdeConfig(0.0, [1.0], [0.0], [1.0])),
    "cde-nw-kappa0-list": lambda: CdeModel(CdeConfig(nw_kappa0=[1.0], **_UNIT)),
    "cde-components-int": lambda: CdeModel(CdeConfig(components=3, **_UNIT)),
    "cde-mixture-weights-number": lambda: CdeModel(CdeConfig(mixture_weights=1.0, **_UNIT)),
    "cde-mixture-weight-string": lambda: CdeModel(
        CdeConfig(mixture_weights=["1", 1.0], **_UNIT)
    ),
    "cde-x-upper-bool": lambda: CdeModel(CdeConfig([0.0], [True], [0.0], [1.0])),
    "cde-x-upper-huge-int": lambda: CdeModel(CdeConfig([0.0], [10**400], [0.0], [1.0])),
    "cde-alpha-huge-int": lambda: CdeModel(CdeConfig(alpha=10**400, **_UNIT)),
    # a bool passed as_size as 1 and was written to the header as true
    "cde-max-depth-x-bool": lambda: CdeModel(CdeConfig(max_depth_x=True, **_UNIT)),
    "vmm-depth-bool": lambda: VmmModel(2, True),
    "cde-nw-kappa0-huge-int": lambda: CdeModel(CdeConfig(nw_kappa0=10**400, **_UNIT)),
    # every number a constructor takes goes through the float rule; each
    # of these built through float() or raised a bare TypeError
    "dirichlet-concentration-bool": lambda: DirichletMultinomial(2, True),
    "dirichlet-concentration-string": lambda: DirichletMultinomial(2, "0.5"),
    "vmm-stop-weight-bool": lambda: VmmModel(2, 3, stop_weight=True),
    "vmm-stop-weight-string": lambda: VmmModel(2, 3, stop_weight="0.5"),
    "oracle-stop-weight-string": lambda: CtwOracle(stop_weight="0.5"),
    "tree-branch-pseudo-bool": lambda: BayesTreeDensity([0.0], [1.0], branch_pseudo=True),
    # past the check, 0 would end in lgamma(0)'s bare ValueError
    "tree-branch-pseudo-zero": lambda: BayesTreeDensity([0.0], [1.0], branch_pseudo=0.0),
    "tree-gamma-string": lambda: BayesTreeDensity([0.0], [1.0], gamma="0.5"),
    "tree-bounds-strings": lambda: BayesTreeDensity(["0"], ["1"]),
    "nw-kappa0-bool": lambda: NormalWishart([0.0], kappa0=True),
    "nw-kappa0-string": lambda: NormalWishart([0.0], kappa0="1"),
    "nw-nu0-string": lambda: NormalWishart([0.0], nu0="3"),
    "nw-scale-string": lambda: NormalWishart([0.0], scale="2"),
    "nw-scale-bool": lambda: NormalWishart([0.0], scale=True),
    "mixture-weights-strings": lambda: _two_normals(["0", "0"]),
    "kd-alpha-string": lambda: KdTreeCover(Box([0.0], [1.0]), alpha="3"),
    "kernel-bandwidth-string": lambda: DoubleKernelCde([[0.0]], [[0.0]], "1", 1.0),
    "kernel-bandwidth-bool": lambda: DoubleKernelCde([[0.0]], [[0.0]], 1.0, True),
    "kernel-bandwidth-nan": lambda: DoubleKernelCde([[0.0]], [[0.0]], _NAN, 1.0),
    # numpy refused these alphabets with a bare ValueError, before it
    # allocated anything
    "dirichlet-alphabet-huge": lambda: DirichletMultinomial(10**30),
    "vmm-alphabet-huge": lambda: VmmModel(10**30, 3),
}


def small_model(n=300, seed=5, **overrides):
    ds = gen_mixture(n, "gaussian", seed=seed)
    cfg = CdeConfig.from_data(ds.x, ds.y, **overrides)
    model = CdeModel(cfg)
    return model, ds


class TestConfig:
    def test_from_data_padding(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[2.0], [4.0]])
        cfg = CdeConfig.from_data(x, y, pad=0.1)
        assert cfg.x_lower == [-0.1] and cfg.x_upper == [1.1]
        assert cfg.y_lower == [1.8] and cfg.y_upper == [4.2]

    def test_from_data_degenerate_column(self):
        x = np.zeros((5, 1))
        y = np.ones((5, 1))
        cfg = CdeConfig.from_data(x, y, pad=0.5)
        assert cfg.x_upper[0] - cfg.x_lower[0] == pytest.approx(1.0)

    def test_validation(self):
        base = dict(x_lower=[0.0], x_upper=[1.0], y_lower=[0.0], y_upper=[1.0])
        with pytest.raises(BadConfig):
            CdeConfig(alpha=1.0, **base).validate()
        with pytest.raises(BadConfig):
            CdeConfig(components=("nw", "huh"), **base).validate()
        with pytest.raises(BadConfig):
            CdeConfig(
                x_lower=[0.0], x_upper=[1.0], components=("tree",)
            ).validate()  # tree needs y bounds
        with pytest.raises(BadConfig):
            CdeConfig(x_lower=[0.0], x_upper=[1.0]).validate()  # y unknown
        ok = CdeConfig(
            x_lower=[0.0], x_upper=[1.0], y_dim=2, components=("nw",)
        ).validate()
        assert ok.y_dim == 2

    @pytest.mark.parametrize("build", list(_UNUSABLE.values()), ids=list(_UNUSABLE))
    def test_unusable_settings_are_rejected(self, build):
        with pytest.raises(BadConfig):
            build()

    def test_a_nan_size_is_refused_before_numpy_sees_it(self):
        # gen_mixture(nan) warned from numpy, then raised a TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadConfig):
                gen_mixture(_NAN)

    def test_an_integral_float_size_is_its_int(self):
        assert gen_markov(3.0) == gen_markov(3)
        assert gen_markov(40, 0, 3.0, 2.0) == gen_markov(40, 0, 3, 2)
        for gen in (gen_mixture, gen_gaussian_ring):
            a, b = gen(5.0), gen(5)
            assert a.x.tolist() == b.x.tolist() and a.y.tolist() == b.y.tolist()
        assert DirichletMultinomial(3.0).state_dict() == DirichletMultinomial(3).state_dict()

    def test_infinite_alpha_is_accepted(self):
        assert CdeConfig(alpha=math.inf, **_UNIT).validate().alpha == math.inf


def _cascade(**kw):
    """A CDE whose kd cover splits down to float resolution at x = 0
    once it holds two points: alpha barely above 1 lets two points
    split every leaf, and equal xs share every leaf."""
    model = new_cde([0.0], [1.0], [0.0], [1.0], alpha=1.0001, components=("nw",), **kw)
    for _ in range(2):
        model.absorb([0.0], [0.5])
    return model


class TestDeepCascade:
    """A split cascade as deep as float resolution, far below Python's
    recursion limit, leaves a whole model."""

    def test_two_equal_xs_split_to_float_resolution(self):
        model = _cascade(max_depth_x=2000, depth_weight="const:0.5")
        # the unit interval halves 1074 times before a midpoint is no
        # longer strictly inside its box
        assert model.refinement_depth == 1074
        assert model.n_contexts == 2 * 1074 + 1
        lp = model.predict_logdensity([0.0], [0.4])
        assert math.isfinite(lp)
        text = model.to_text()
        clone = CdeModel.from_text(text)
        assert clone.to_text() == text
        assert clone.predict_logdensity([0.0], [0.4]) == lp
        assert clone.absorb([0.0], [0.6]) == model.absorb([0.0], [0.6])
        assert clone.to_text() == model.to_text()

    def test_the_deepest_depth_whose_halving_weight_is_positive_absorbs(self):
        # 2**-1074 is the least positive float, and 2**-1075 is 0.0, which
        # the construction refuses (see _UNUSABLE)
        model = _cascade(max_depth_x=1074)
        assert model.refinement_depth == 1073
        assert math.isfinite(model.predict_logdensity([0.0], [0.4]))
        assert CdeModel.from_text(model.to_text()).to_text() == model.to_text()


class TestStreaming:
    def test_prequential_identity(self):
        model, ds = small_model()
        lps = model.fit_stream(ds.x, ds.y)
        assert lps.shape == (len(ds),)
        assert np.sum(lps) == pytest.approx(model.posterior.log_evidence, abs=1e-9)
        assert model.n_obs == len(ds)

    def test_tree_grows_with_data(self):
        model, ds = small_model()
        model.fit_stream(ds.x, ds.y)
        assert model.refinement_depth >= 3
        assert model.n_contexts > 5

    def test_estimates_sharpen_near_data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(800, 1))
        y = 2.0 * x + rng.normal(0, 0.15, size=(800, 1))
        cfg = CdeConfig.from_data(x, y)
        model = CdeModel(cfg)
        model.fit_stream(x, y)
        # conditional mean tracks the line: on-line beats off-line density
        on = model.predict_logdensity([0.5], [1.0])
        off = model.predict_logdensity([0.5], [-1.0])
        assert on - off > 1.0

    def test_clamps_out_of_box_queries(self):
        model, ds = small_model()
        model.fit_stream(ds.x, ds.y)
        far = model.predict_logdensity([1e6], ds.y[0])
        edge = model.predict_logdensity([model.config.x_upper[0]], ds.y[0])
        assert far == edge

    def test_tree_only_rejects_y_outside_box(self):
        model, ds = small_model(components=("tree",))
        model.fit_stream(ds.x[:50], ds.y[:50])
        assert model.predict_logdensity(ds.x[0], [1e4]) == -np.inf
        with pytest.raises(OutOfSupport):
            model.absorb(ds.x[0], [1e4])

    def test_nw_only_handles_any_y(self):
        model, ds = small_model(components=("nw",))
        model.fit_stream(ds.x[:50], ds.y[:50])
        assert np.isfinite(model.predict_logdensity(ds.x[0], [1e4]))


class TestRejectedInput:
    """A rejected observation leaves the posterior byte-identical."""

    def test_out_of_support_absorb_changes_nothing(self):
        model, ds = small_model(components=("tree",))
        model.fit_stream(ds.x[:50], ds.y[:50])
        before = model.to_text(), model_trees(model)
        with pytest.raises(OutOfSupport):
            model.absorb(ds.x[0], [model.config.y_upper[0] + 1.0])
        assert (model.to_text(), model_trees(model)) == before
        assert np.isfinite(model.absorb(ds.x[50], ds.y[50]))
        assert model.n_obs == 51

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("components", [("nw",), ("tree",), ("nw", "tree")])
    def test_non_finite_input_is_rejected(self, components, where, value):
        model, ds = small_model(n=60, components=components)
        model.fit_stream(ds.x[:50], ds.y[:50])
        x, y = ds.x[50].copy(), ds.y[50].copy()
        (x if where == "x" else y)[0] = value
        before = model.to_text(), model_trees(model)
        with pytest.raises(BadConfig):
            model.predict_logdensity(x, y)
        with pytest.raises(BadConfig):
            model.absorb(x, y)
        assert (model.to_text(), model_trees(model)) == before
        assert np.isfinite(model.absorb(ds.x[51], ds.y[51]))
        assert np.isfinite(model.posterior.log_evidence)


class TestPreparedRoute:
    def test_y_is_routed_once_per_call(self, monkeypatch):
        """Every context's tree density shares one partition, so one
        predict and one absorb each route y once, at most
        ``tree_max_depth`` cuts, however many contexts x's path holds."""
        model = new_cde([0.0], [1.0], [0.0], [1.0], tree_max_depth=10)
        rng = np.random.default_rng(8)
        n = 400
        model.fit_stream(0.3 + rng.normal(0.0, 0.01, size=(n, 1)), rng.uniform(size=(n, 1)))
        x, y = [0.3], [0.6]
        cover = model.posterior.cover
        assert len(cover.match_levels(cover.prepare_query(x))) >= 5
        calls = []
        real_cut = local.cut

        def counting_cut(lo, hi):
            calls.append(1)
            return real_cut(lo, hi)

        monkeypatch.setattr(local, "cut", counting_cut)
        model.predict_logdensity(x, y)
        assert 0 < len(calls) <= 10
        calls.clear()
        n_contexts = model.n_contexts
        model.absorb(x, y)
        assert model.n_contexts == n_contexts  # no split, so nothing replayed
        assert 0 < len(calls) <= 10


class TestNormalization:
    @pytest.mark.parametrize("components", [("nw",), ("tree",), ("nw", "tree")])
    def test_conditional_integrates_to_one(self, components):
        model, ds = small_model(n=200, components=components)
        model.fit_stream(ds.x, ds.y)
        ylo, yhi = model.config.y_lower[0], model.config.y_upper[0]
        span = yhi - ylo
        # the tree carries no mass outside its box; Student-t tails do
        pad = 6 * span if "nw" in components else 0.0
        ys = np.linspace(ylo - pad, yhi + pad, 8001)
        for xq in (ds.x[0], ds.x[7]):
            dens = np.exp([model.predict_logdensity(xq, [v]) for v in ys])
            assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-3)


class TestSnapshot:
    def test_round_trip_continues_exactly(self):
        model, ds = small_model(n=150)
        model.fit_stream(ds.x[:100], ds.y[:100])
        clone = CdeModel.from_text(model.to_text())
        assert clone.n_obs == model.n_obs
        assert clone.config == model.config
        for i in range(100, 150):
            assert clone.absorb(ds.x[i], ds.y[i]) == model.absorb(ds.x[i], ds.y[i])
        q = ds.x[3]
        assert clone.predict_logdensity(q, [0.0]) == model.predict_logdensity(
            q, [0.0]
        )

    def test_rejects_foreign_snapshots(self):
        with pytest.raises(BadConfig):
            CdeModel.from_text('{"kind": "vmm"}\n')

    def test_the_message_names_the_buffered_y_that_is_not_finite(self):
        """The NaN sits in the second buffered point, so a check that
        named the first point, or any finite one, would name 0.1."""
        model = CdeModel(CdeConfig(**_UNIT))
        model.absorb([0.2], [0.1])
        model.absorb([0.7], [0.9])
        head, posterior, rest = model.to_text().split("\n", 2)
        meta = json.loads(posterior)
        meta["cover"]["buffers"]["0"][3] = math.nan
        edited = "\n".join([head, json.dumps(meta, sort_keys=True), rest])
        with pytest.raises(BadConfig, match=r"buffered y \[nan\] is not finite"):
            CdeModel.from_text(edited)

    @pytest.mark.parametrize("value", [math.nan, "0.5"], ids=["nan", "string"])
    def test_a_buffered_y_that_is_not_a_finite_float_is_refused(self, value):
        """A buffered NaN once loaded, and the absorb that split its leaf
        raised from the replay after the path's locals had changed; a
        string loaded, was replayed as 0.5 and was written back as a
        string."""
        model = CdeModel(CdeConfig(**_UNIT))
        model.absorb([0.2], [0.1])
        model.absorb([0.7], [0.9])
        head, posterior, rest = model.to_text().split("\n", 2)
        meta = json.loads(posterior)
        assert meta["cover"]["buffers"] == {"0": [0.2, 0.1, 0.7, 0.9]}
        meta["cover"]["buffers"]["0"][1] = value
        edited = "\n".join([head, json.dumps(meta, sort_keys=True), rest])
        with pytest.raises(BadConfig, match="buffered y"):
            CdeModel.from_text(edited)

    def test_a_tree_only_snapshot_refuses_a_buffered_y_outside_the_y_box(self):
        """It once loaded, and the absorb that split its leaf raised
        OutOfSupport from the replay after the path's locals had
        changed. A model with nw as well skips such a y in the tree and
        loads it."""
        texts = {}
        for components in [("tree",), ("nw", "tree")]:
            model = CdeModel(CdeConfig(**_UNIT, components=components))
            model.absorb([0.2], [0.1])
            model.absorb([0.7], [0.9])
            head, posterior, rest = model.to_text().split("\n", 2)
            meta = json.loads(posterior)
            assert meta["cover"]["buffers"] == {"0": [0.2, 0.1, 0.7, 0.9]}
            meta["cover"]["buffers"]["0"][1] = 5.0
            texts[components] = "\n".join([head, json.dumps(meta, sort_keys=True), rest])
        with pytest.raises(BadConfig, match="buffered y"):
            CdeModel.from_text(texts[("tree",)])
        both = CdeModel.from_text(texts[("nw", "tree")])
        with pytest.warns(RuntimeWarning, match="skipped an out-of-support"):
            both.absorb([0.3], [0.4])
        assert both.n_obs == 3

    @pytest.mark.parametrize("components", [("nw",), ("nw", "tree"), ("tree",)])
    def test_a_buffered_y_of_the_wrong_length_is_refused(self, components):
        """It once loaded, and the absorb that split its leaf raised from
        the replay after the path's locals had changed; ``to_text`` then
        refused the model's own buffers."""
        model = CdeModel(CdeConfig(**_UNIT, components=components))
        model.absorb([0.2], [0.1])
        model.absorb([0.7], [0.9])
        head, posterior, rest = model.to_text().split("\n", 2)
        meta = json.loads(posterior)
        assert meta["cover"]["y_dim"] == 1
        meta["cover"]["y_dim"] = 2
        meta["cover"]["buffers"]["0"] = [0.2, 0.1, 0.5, 0.7, 0.9, 0.5]
        edited = "\n".join([head, json.dumps(meta, sort_keys=True), rest])
        with pytest.raises(BadConfig, match="buffered y"):
            CdeModel.from_text(edited)

    @pytest.mark.parametrize("head",['{"kind": "cde", "config": {"bogus": 1}}', "not json"])
    def test_rejects_malformed_headers(self, head):
        with pytest.raises(BadConfig):
            CdeModel.from_text(head + "\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", 3.0),
            ("x_upper", [5.0]),
            ("y_upper", [9.0]),
            ("max_depth_x", 2),
            ("tree_max_depth", 3),
            ("tree_gamma", 0.25),
            ("tree_branch_pseudo", 1.0),
            ("nw_kappa0", 2.0),
            ("nw_nu0", 7.0),
            ("nw_scale", 2.0),
            ("on_outside", "reject"),
            ("depth_weight", "const:0.5"),
            ("components", ["tree", "nw"]),
            ("components", ["nw"]),
        ],
    )
    def test_rejects_headers_that_disagree_with_the_posterior(self, key, value):
        """Contexts made after a restore take the header's config, so
        it must be the config the stored posterior was built with."""
        model, ds = small_model(n=80)
        model.fit_stream(ds.x, ds.y)
        head, _, rest = model.to_text().partition("\n")
        meta = json.loads(head)
        assert meta["config"][key] != value
        meta["config"][key] = value
        with pytest.raises(BadConfig):
            CdeModel.from_text(json.dumps(meta, sort_keys=True) + "\n" + rest)

    @pytest.mark.parametrize(
        "key, value",
        [("nw_kappa0", [1.0]), ("alpha", "2.0"), ("tree_gamma", None), ("components", 3)],
    )
    def test_a_header_field_of_the_wrong_type_is_refused(self, key, value):
        """``"nw_kappa0": [1.0]`` raised ``TypeError``: the header's config
        was checked and turned into a prior outside the ``BadConfig``
        wrapper."""
        model, ds = small_model(n=40)
        model.fit_stream(ds.x, ds.y)
        head, _, rest = model.to_text().partition("\n")
        meta = json.loads(head)
        meta["config"][key] = value
        with pytest.raises(BadConfig):
            CdeModel.from_text(json.dumps(meta, sort_keys=True) + "\n" + rest)


class TestConfigPaths:
    def test_stop_weight_one_predicts_the_root_local(self):
        """At stop weight 1 every walk stops at the root, whose log(1 -
        w0) is log1mexp(0) = -inf: a prediction is the root local's
        predictive, bit for bit, before and after a reload."""
        model, ds = small_model(n=200, depth_weight="const:1.0")
        model.fit_stream(ds.x[:150], ds.y[:150])
        assert model.n_contexts > 1
        loaded = CdeModel.from_text(model.to_text())
        assert loaded.to_text() == model.to_text()
        post = model.posterior
        root = post.local[post.cover.root_id]
        for x, y in zip(ds.x[150:], ds.y[150:]):
            want = root.log_predictive(post.prior.prepare(y))
            assert model.predict_logdensity(x, y) == want
            assert loaded.predict_logdensity(x, y) == want

    def test_mixture_weights_set_the_prior_and_survive_a_snapshot(self):
        model, ds = small_model(n=120, mixture_weights=[3.0, 1.0])
        root = model.posterior.local[model.posterior.cover.root_id]
        np.testing.assert_allclose(np.exp(root.log_w), [0.75, 0.25], rtol=0, atol=1e-12)
        model.fit_stream(ds.x[:60], ds.y[:60])
        clone = CdeModel.from_text(model.to_text())
        for i in range(60, 120):
            assert clone.absorb(ds.x[i], ds.y[i]) == model.absorb(ds.x[i], ds.y[i])
        assert clone.to_text() == model.to_text()

    @pytest.mark.parametrize(
        "weights, alone", [([1.0, 0.0], ("nw",)), ([0.0, 1.0], ("tree",))]
    )
    def test_a_zero_mixture_weight_leaves_the_other_component_alone(self, weights, alone):
        """A zero weight's log is -inf, taken without a warning: the
        mixture absorbs, predicts, reloads and sums its evidence as the
        other component alone does, bit for bit."""
        mixed, ds = small_model(n=150, mixture_weights=weights)
        single, _ = small_model(n=150, components=alone)
        assert [mixed.absorb(x, y) for x, y in zip(ds.x[:100], ds.y[:100])] == [
            single.absorb(x, y) for x, y in zip(ds.x[:100], ds.y[:100])
        ]
        held = list(zip(ds.x[100:], ds.y[100:]))
        want = [single.predict_logdensity(x, y) for x, y in held]
        assert [mixed.predict_logdensity(x, y) for x, y in held] == want
        clone = CdeModel.from_text(mixed.to_text())
        assert [clone.predict_logdensity(x, y) for x, y in held] == want
        lml = single.posterior.log_marginal_likelihood()
        assert mixed.posterior.log_marginal_likelihood() == lml

    @staticmethod
    def _swap_weights(text):
        head, _, rest = text.partition("\n")
        meta = json.loads(head)
        assert meta["config"]["mixture_weights"] == [3.0, 1.0]
        meta["config"]["mixture_weights"] = [1.0, 3.0]
        return json.dumps(meta, sort_keys=True) + "\n" + rest

    def test_edited_mixture_weights_are_refused_on_an_empty_model(self):
        model = new_cde([0.0], [1.0], [0.0], [1.0], mixture_weights=[3.0, 1.0])
        text = model.to_text()
        assert CdeModel.from_text(text).to_text() == text
        with pytest.raises(BadConfig):
            CdeModel.from_text(self._swap_weights(text))

    def test_edited_mixture_weights_are_refused_by_an_empty_split_child(self):
        """Every x lies left of the root's midpoint, so the root's right
        child holds no point and still holds the prior weights, which
        the edited header contradicts; the trained contexts alone would
        pass."""
        model = new_cde([0.0], [1.0], [0.0], [1.0], mixture_weights=[3.0, 1.0])
        rng = np.random.default_rng(6)
        model.fit_stream(rng.uniform(0.0, 0.4, size=(40, 1)), rng.uniform(size=(40, 1)))
        locals_ = model.posterior.local
        empty = [c for c, local in enumerate(locals_) if not local.components[0].n_seen]
        assert empty and len(empty) < len(locals_)
        text = model.to_text()
        assert CdeModel.from_text(text).to_text() == text
        with pytest.raises(BadConfig):
            CdeModel.from_text(self._swap_weights(text))

    def test_nw_alone_needs_no_y_bounds(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=(80, 1))
        y = np.hstack([x, 1.0 - x]) + rng.normal(0.0, 0.1, size=(80, 2))
        model = CdeModel(CdeConfig(x_lower=[0.0], x_upper=[1.0], y_dim=2, components=("nw",)))
        assert np.all(np.isfinite(model.fit_stream(x[:60], y[:60])))
        assert model.n_contexts > 1
        assert np.isfinite(model.predict_logdensity([0.5], [0.5, 0.5]))
        text = model.to_text()
        clone = CdeModel.from_text(text)
        assert clone.to_text() == text
        for i in range(60, 80):
            assert clone.absorb(x[i], y[i]) == model.absorb(x[i], y[i])
        assert clone.to_text() == model.to_text()


class TestSampling:
    def test_samples_follow_the_conditional(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(600, 1))
        y = np.where(x > 0, 3.0, -3.0) + rng.normal(0, 0.3, size=(600, 1))
        model = CdeModel(CdeConfig.from_data(x, y))
        model.fit_stream(x, y)
        draws = np.array([model.sample_y([0.7], rng) for _ in range(300)])
        assert np.mean(draws > 0) > 0.9


def test_new_cde_helper():
    model = new_cde([0.0], [1.0], [0.0], [1.0], alpha=3.0)
    assert isinstance(model, CdeModel)
    assert model.config.alpha == 3.0


def test_buffered_points_do_not_alias_the_callers_arrays():
    x = np.random.default_rng(0).uniform(0, 1, size=(50, 1))
    y = np.random.default_rng(1).uniform(0, 1, size=(50, 1))
    model = CdeModel(CdeConfig([0.0], [1.0], [0.0], [1.0]))
    model.fit_stream(x, y)
    text = model.to_text()
    x[:], y[:] = 0.99, 0.01  # the caller reuses its arrays
    assert model.to_text() == text


def test_array_bounds_become_lists_and_serialise():
    cfg = CdeConfig(np.zeros(1), np.ones(1), (0.0,), np.array([2.0]))
    assert cfg.x_lower == [0.0] and cfg.y_upper == [2.0]
    model = CdeModel(cfg)
    model.absorb([0.5], [1.0])
    assert CdeModel.from_text(model.to_text()).to_text() == model.to_text()


def _pinned_model(name):
    """A trained model and three (x, y) queries, the last outside the x
    box, so it is clamped."""
    if name == "nw+tree, 1-d y":
        data = gen_mixture(300, "uniform", seed=5)
        cfg = CdeConfig.from_data(data.x, data.y)
        queries = [([0.5], [1.0]), ([-3.0], [-2.5]), ([100.0], [0.25])]
    elif name == "nw+tree, 2-d y":
        data = gen_gaussian_ring(200, seed=7)
        cfg = CdeConfig.from_data(data.x, data.y)
        queries = [([0.1], [1.0, 0.1]), ([3.0], [-0.9, 0.2]), ([-50.0], [0.0, -1.0])]
    else:
        data = gen_gaussian_ring(200, seed=8)
        cfg = CdeConfig(x_lower=[-2.0], x_upper=[7.0], y_dim=2, components=("nw",))
        queries = [([0.1], [1.0, 0.1]), ([4.7], [0.0, -1.0]), ([9.0], [5.0, 5.0])]
    model = CdeModel(cfg)
    model.fit_stream(data.x, data.y)
    return model, queries


# the digests of the same snapshots in format 6
_PINNED_V6 = {
    "nw+tree, 1-d y": "1e2d08b542319f7e6c89908a9aa30b4bf9b6ab4ecb8b2b727db722f9c361b06b",
    "nw+tree, 2-d y": "c50edcd90bc7c7bcb491b3d03ca04dfc197a9c3be956692cac6674ef21c84ab1",
    "nw only, y_dim 2": "f6ecc292a97e9289c1944e75d2df96cfc325f609df33e44c82a9a62615d97fa8",
}

_PINNED = {
    "nw+tree, 1-d y": (
        "c91defd1134cb85da7b23e2457440640612b9264cfada78c0acce80d77f3d1ad",
        33,
        ["-5.6890460757638515", "-0.793800166458537", "-1.7797129424723723"],
        [
            "[2.3045470192430235]",
            "[1.492784329970837]",
            "[-2.8277487787804385]",
            "[-2.4634958590330913]",
            "[-0.6312342527635306]",
            "[-0.9570388828253289]",
        ],
    ),
    "nw+tree, 2-d y": (
        "c70870af906327c8c4cead4d14aa9ca0eb87db601c9b3d5c9bdbfc5482d58c28",
        29,
        ["1.17378116072641", "0.24622690863987867", "-1.720304757066877"],
        [
            "[0.5358907068461037, 0.711297838373921]",
            "[0.4042966491942458, 0.09113820072713219]",
            "[-1.0809212068104785, -0.2366826785415143]",
            "[-1.4464340636813993, 0.1889276779942626]",
            "[-0.6061628181832602, -0.22604436194717048]",
            "[-0.2545873256291238, 1.2655065240924794]",
        ],
    ),
    "nw only, y_dim 2": (
        "230bfe883797aefedb1fd8d8b6db4ad6f684147fb8b9b744e09d1fce5c9e99ee",
        25,
        ["0.5094509230271822", "0.2579278161191463", "-9.711184695970617"],
        [
            "[0.008585215991469108, 0.21054404484534522]",
            "[1.527008619278022, 0.017427701388166357]",
            "[-0.2765106309343297, -0.9909976607268185]",
            "[-0.26736021796848736, -1.383280333549298]",
            "[0.21589416600627126, 1.0053288898551105]",
            "[-2.1976036521880884, 2.9111413040864247]",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_outputs_are_pinned(name):
    """Snapshot text, log densities and seeded draws of three fixed
    models, recorded before the kd cover and the Normal-Wishart local
    kept plain floats: storage changes must leave every one bit-equal.
    The digests and five log densities were recorded again when split
    replay became one closed-form ``absorb_block`` per new child, which
    moves new children's ``log_m`` and mixture weights in the last bits
    (``test_local.py``'s block property test bounds that move). The log
    densities of the two models with a tree were recorded again when a
    tree's query became a walk over kept stop pairs, which moved them by
    at most 3.7e-14; digests and draws stayed. The digests were recorded
    again for snapshot format 4, whose text is format 3's with version
    4 and no tree ``counts`` or ``points``, and for snapshot format 5,
    whose text is format 4's with version 5, the prior once in the
    header and none in the records; nothing else moved. Snapshot
    format 6 writes each record as a row: written back as format 5
    (``as_version``), its text still has the recorded digest, and its
    own digest was recorded too. The draws and three log densities were
    recorded again when the predictive became one mixture over the
    path's stop weights, summed in another order, and sampling drew the
    stopping depth with one uniform: the densities moved by at most
    2.2e-16 and the digests stayed."""
    model, queries = _pinned_model(name)
    digest, n_contexts, logdens, draws = _PINNED[name]
    assert model.n_contexts == n_contexts
    text = model.to_text()
    assert hashlib.sha256(as_version(text, 5).encode()).hexdigest() == digest
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_V6[name]
    assert [repr(model.predict_logdensity(x, y)) for x, y in queries] == logdens
    rng = np.random.default_rng(13)
    got = [repr(np.atleast_1d(model.sample_y(x, rng)).tolist()) for x, _ in queries for _ in "ab"]
    assert got == draws


def _hot_path_outputs(name):
    """Every value a CdeModel's hot path returns on a fixed stream: each
    ``absorb`` return, split calls included, the held-out
    ``predict_logdensity`` values every 100 points and the final log
    evidence. Halfway through, the model goes through
    ``to_text``/``from_text`` and the stream continues on the reload."""
    if name == "nw+tree, 1-d y":
        data, held = gen_mixture(800, "uniform", seed=21), gen_mixture(40, "uniform", seed=22)
    else:
        data, held = gen_gaussian_ring(800, seed=23), gen_gaussian_ring(40, seed=24)
    model = CdeModel(CdeConfig.from_data(data.x, data.y))
    out = []
    for t in range(len(data.x)):
        if t == len(data.x) // 2:
            model = CdeModel.from_text(model.to_text())
        out.append(model.absorb(data.x[t], data.y[t]))
        if t % 100 == 99:
            out.append([model.predict_logdensity(x, y) for x, y in zip(held.x, held.y)])
    out.append(model.posterior.log_marginal_likelihood())
    return model, out


_HOT_PATH_DIGESTS = {
    "nw+tree, 1-d y": "ab8d5c61a6534bdd85c3dc6302130ba8124a6c9203cf997a05fd3c8c96814e4e",
    "nw+tree, 2-d y": "08d51226dce801a537dda714640f88ae706bb1cce23ce9e2b9a0b7d64612af13",
}


@pytest.mark.parametrize("name", sorted(_HOT_PATH_DIGESTS))
def test_hot_path_outputs_are_pinned(name):
    """The outputs of ``_hot_path_outputs``, bit for bit, on a stream
    long enough that its kd cover splits many times, so absorb returns
    include split replay."""
    model, out = _hot_path_outputs(name)
    assert model.n_contexts > 20
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == _HOT_PATH_DIGESTS[name]
