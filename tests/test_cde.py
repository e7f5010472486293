"""Streaming conditional density estimator, end to end."""

import numpy as np
import pytest

from covermodels import (
    BadConfig,
    CdeConfig,
    CdeModel,
    OutOfSupport,
    gen_mixture,
    new_cde,
)


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
        before = model.to_text()
        with pytest.raises(OutOfSupport):
            model.absorb(ds.x[0], [model.config.y_upper[0] + 1.0])
        assert model.to_text() == before
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
        before = model.to_text()
        with pytest.raises(BadConfig):
            model.predict_logdensity(x, y)
        with pytest.raises(BadConfig):
            model.absorb(x, y)
        assert model.to_text() == before
        assert np.isfinite(model.absorb(ds.x[51], ds.y[51]))
        assert np.isfinite(model.posterior.log_evidence)


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
