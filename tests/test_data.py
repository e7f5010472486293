"""Synthetic generators and file round trips."""

import numpy as np
import pytest

from covermodels import (
    BadConfig,
    Dataset,
    MissingColumn,
    ParseError,
    gen_gaussian_ring,
    gen_markov,
    gen_mixture,
    load_csv,
    load_symbols,
    save_csv,
    save_symbols,
)
from covermodels.data import GENERATORS


class TestGenerators:
    def test_ring_geometry(self):
        ds = gen_gaussian_ring(500, seed=0)
        assert ds.x.shape == (500, 1) and ds.y.shape == (500, 2)
        radii = np.linalg.norm(ds.y, axis=1)
        assert abs(radii.mean() - 1.0) < 0.05

    def test_ring_conditional_is_tight(self):
        ds = gen_gaussian_ring(2000, seed=1, angle_sd=0.0, noise_sd=0.05)
        on_circle = np.stack([np.cos(ds.x[:, 0]), np.sin(ds.x[:, 0])], axis=1)
        err = np.linalg.norm(ds.y - on_circle, axis=1)
        assert err.mean() < 0.1

    def test_mixture_kinds_share_geometry(self):
        g = gen_mixture(3000, "gaussian", seed=2)
        u = gen_mixture(3000, "uniform", seed=2)
        assert g.x.shape == u.x.shape == (3000, 1)
        # same component means, so the coarse layout agrees
        assert abs(g.y.mean() - u.y.mean()) < 0.3
        with pytest.raises(BadConfig):
            gen_mixture(10, "triangle")

    def test_uniform_mixture_has_hard_edges(self):
        u = gen_mixture(5000, "uniform", seed=3)
        # component 2 spans y in [-2.5, 0.5]; nothing should leak far out
        assert u.y.min() >= -3.0 - 1e-9 and u.y.max() <= 3.5 + 1e-9

    def test_seeded_determinism(self):
        a = gen_mixture(50, "gaussian", seed=7)
        b = gen_mixture(50, "gaussian", seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_markov_stream(self):
        seq = gen_markov(300, seed=0, alphabet_size=3, order=2)
        assert len(seq) == 300
        assert set(seq) <= {0, 1, 2}
        # same source, different paths
        assert gen_markov(300, seed=1) != gen_markov(300, seed=2)
        assert gen_markov(300, seed=1) == gen_markov(300, seed=1)

    def test_registry(self):
        assert set(GENERATORS) == {"ring", "gauss-mix", "uniform-mix"}
        ds = GENERATORS["uniform-mix"](20, seed=0)
        assert len(ds) == 20


class TestDataset:
    def test_coerces_vectors(self):
        ds = Dataset(np.arange(4.0), np.arange(4.0) * 2)
        assert ds.x.shape == ds.y.shape == (4, 1)

    def test_row_mismatch(self):
        with pytest.raises(BadConfig):
            Dataset(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_take(self):
        ds = Dataset(np.arange(10.0), np.arange(10.0))
        assert len(ds.take(3)) == 3


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=(30, 1)))
        p = tmp_path / "d.csv"
        save_csv(p, ds)
        back = load_csv(p)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_column_selection(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("a,x0,y0\n1,2,3\n4,5,6\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.x, [[2.0], [5.0]])
        ds2 = load_csv(p, x_cols=["a", "x0"], y_cols=["y0"])
        assert ds2.x.shape == (2, 2)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x0,y0\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, x_cols=["x9"], y_cols=["y0"])

    def test_no_response_columns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x0,z\n1,2\n")
        with pytest.raises(ParseError):
            load_csv(p)  # nothing matches the y* convention

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x0,y0\n1,2\nfoo,3\n")
        with pytest.raises(ParseError) as ei:
            load_csv(p)
        assert ei.value.line == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x0,y0\n")
        with pytest.raises(ParseError):
            load_csv(p)


class TestSymbols:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.txt"
        seq = [0, 1, 2, 1, 0, 2]
        save_symbols(p, seq)
        assert load_symbols(p) == seq

    def test_tolerant_formats(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# header comment\n0 1,2\n0110\n")
        assert load_symbols(p) == [0, 1, 2, 0, 1, 1, 0]

    def test_garbage(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 zebra\n")
        with pytest.raises(ParseError):
            load_symbols(p)

    def test_a_symbol_outside_the_alphabet_names_its_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1\n# comment\n1 2 0\n")
        assert load_symbols(p, 3) == [0, 1, 1, 2, 0]
        with pytest.raises(ParseError, match=r"^line 3: symbol 2 not in alphabet of size 2$"):
            load_symbols(p, 2)
        p.write_text("0 -1\n")
        with pytest.raises(ParseError, match=r"^line 1: symbol -1 not in"):
            load_symbols(p, 2)
