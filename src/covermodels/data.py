"""Synthetic datasets and CSV round trips."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .covers import as_size
from .errors import BadConfig, MissingColumn, ParseError


@dataclass
class Dataset:
    x: np.ndarray  # (n, dx)
    y: np.ndarray  # (n, dy)
    name: str = ""

    def __post_init__(self):
        self.x = self._as_rows(self.x)
        self.y = self._as_rows(self.y)
        if self.x.shape[0] != self.y.shape[0]:
            raise BadConfig("x and y row counts differ")

    @staticmethod
    def _as_rows(arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            return arr[:, None]  # vectors are columns, not single rows
        if arr.ndim != 2:
            raise BadConfig("data must be a vector or a matrix")
        return arr

    def __len__(self):
        return self.x.shape[0]

    def take(self, n):
        return Dataset(self.x[:n], self.y[:n], self.name)


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def gen_gaussian_ring(n, seed=0, angle_sd=0.5, noise_sd=0.1) -> Dataset:
    """Angle covariate, noisy point on the unit circle as response.

    Angles cluster around the four axis directions, so p(y | x) is a
    tight two dimensional blob that moves with x while the marginal of
    y is spread around the whole ring.
    """
    n = as_size(n, "n", 1)
    rng = _rng(seed)
    centers = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    theta = centers[rng.integers(0, 4, size=n)] + rng.normal(0.0, angle_sd, size=n)
    y = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    y += rng.normal(0.0, noise_sd, size=(n, 2))
    return Dataset(theta[:, None], y, "gaussian-ring")


_MIX_MEANS = np.array([[-2.0, -2.0], [0.0, 2.0], [3.0, -1.0]])
_MIX_SPREADS = np.array([1.0, 0.5, 1.5])
_MIX_WEIGHTS = np.array([0.3, 0.4, 0.3])


def gen_mixture(n, kind="gaussian", seed=0) -> Dataset:
    """Three component mixture in the plane; x is the first coordinate.

    kind "gaussian" uses isotropic normals, "uniform" axis aligned
    boxes, with shared means, spreads and weights so the two stress
    smooth and hard edged conditionals on identical geometry.
    """
    n = as_size(n, "n", 1)
    if kind not in ("gaussian", "uniform"):
        raise BadConfig(f"unknown mixture kind {kind!r}")
    rng = _rng(seed)
    comp = rng.choice(3, size=n, p=_MIX_WEIGHTS)
    if kind == "gaussian":
        z = _MIX_MEANS[comp] + rng.standard_normal((n, 2)) * _MIX_SPREADS[comp, None]
    else:
        z = _MIX_MEANS[comp] + rng.uniform(-1.0, 1.0, (n, 2)) * _MIX_SPREADS[comp, None]
    return Dataset(z[:, :1], z[:, 1:], f"{kind}-mixture")


def gen_markov(n, seed=0, alphabet_size=2, order=2) -> list:
    """Sample a symbol stream from a fixed random order-k chain.

    The transition table is drawn once from its own fixed generator,
    so different seeds give different paths through the same source.
    """
    n = as_size(n, "n", 1)
    alphabet_size = as_size(alphabet_size, "alphabet_size", 2)
    order = as_size(order, "order", 1)
    table_rng = np.random.default_rng(12345)
    n_ctx = alphabet_size**order
    table = table_rng.dirichlet(np.full(alphabet_size, 0.3), size=n_ctx)
    rng = _rng(seed)
    seq = []
    for _ in range(n):
        if len(seq) < order:
            seq.append(int(rng.integers(alphabet_size)))
            continue
        ctx = 0
        for s in seq[-order:]:
            ctx = ctx * alphabet_size + s
        seq.append(int(rng.choice(alphabet_size, p=table[ctx])))
    return seq


GENERATORS = {
    "ring": gen_gaussian_ring,
    "gauss-mix": lambda n, seed=0: gen_mixture(n, "gaussian", seed),
    "uniform-mix": lambda n, seed=0: gen_mixture(n, "uniform", seed),
}


def save_csv(path, dataset: Dataset):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = [f"x{i}" for i in range(dataset.x.shape[1])]
        header += [f"y{i}" for i in range(dataset.y.shape[1])]
        w.writerow(header)
        for xi, yi in zip(dataset.x, dataset.y):
            w.writerow([repr(float(v)) for v in xi] + [repr(float(v)) for v in yi])


def read_text(path, what, newline=None) -> str:
    """The contents of a UTF-8 text file, read with ``open``'s
    ``newline``. Bytes that do not decode raise ``ParseError`` naming
    ``what`` the file was meant to be."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: byte {exc.start} does not decode") from None


def load_csv(path, x_cols=None, y_cols=None) -> Dataset:
    """Load a dataset from CSV with a header row.

    When column names are not given, every column named x* is a
    covariate and every column named y* a response, in header order.
    """
    # newline="" leaves line ends to the csv reader, as its docs ask
    text = read_text(path, "CSV file", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    header = [h.strip() for h in header]
    if x_cols is None:
        x_cols = [h for h in header if h.startswith("x")]
    if y_cols is None:
        y_cols = [h for h in header if h.startswith("y")]
    if not x_cols or not y_cols:
        raise ParseError("could not infer x and y columns from header", line=1)
    idx = {}
    for name in list(x_cols) + list(y_cols):
        if name not in header:
            raise MissingColumn(name)
        idx[name] = header.index(name)
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=lineno
            )
        try:
            xs.append([float(row[idx[c]]) for c in x_cols])
            ys.append([float(row[idx[c]]) for c in y_cols])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not xs:
        raise ParseError("no data rows", line=2)
    return Dataset(np.asarray(xs), np.asarray(ys))


def load_symbols(path, alphabet_size=None) -> list:
    """Whitespace separated integer symbols, or one contiguous string
    of single digit symbols per line. With ``alphabet_size``, a symbol
    outside 0 .. alphabet_size - 1 raises ``ParseError`` naming its
    line, as a token that is not an integer does."""
    out = []
    for lineno, line in enumerate(read_text(path, "symbol file").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sep = " " in line or "," in line
        tokens = line.replace(",", " ").split() if sep else list(line)
        for tok in tokens:
            if not tok:
                continue
            try:
                sym = int(tok)
            except ValueError:
                raise ParseError(f"bad symbol {tok!r}", line=lineno) from None
            if alphabet_size is not None and not 0 <= sym < alphabet_size:
                raise ParseError(
                    f"symbol {sym} not in alphabet of size {alphabet_size}", line=lineno
                )
            out.append(sym)
    return out


def save_symbols(path, seq):
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(s)) for s in seq))
        fh.write("\n")
