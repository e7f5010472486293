"""Online conditional density estimation on kd tree covers.

The covariate space is carved by an occupancy driven kd tree; each
context carries a small Bayesian mixture over density models for y
(Normal-Wishart, dyadic Bayes tree, or both). The exact cover model
posterior then blends coarse and fine contexts per query, so estimates
start smooth and sharpen where data accumulates, in O(depth) per
update with no refitting.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .covers import Box, KdTreeCover, as_size
from .engine import CoverModelPosterior, parse_depth_weight
from .errors import BadConfig
from .local import BayesTreeDensity, MixtureLocal, NormalWishart

_COMPONENTS = ("nw", "tree")
_BOUNDS = ("x_lower", "x_upper", "y_lower", "y_upper")
# the fields that take a number; nw_nu0 may also be None
_NUMBERS = ("alpha", "tree_gamma", "tree_branch_pseudo", "nw_kappa0", "nw_nu0", "nw_scale")


def _is_number(value):
    """The config's one float rule: a float, or an int within a float's
    range, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


@dataclass
class CdeConfig:
    """Configuration for ``CdeModel``.

    x bounds are required (queries outside are clamped or rejected per
    ``on_outside``). y bounds are required by the "tree" component and,
    when present, centre the Normal-Wishart prior mean.
    """

    x_lower: list
    x_upper: list
    y_lower: list | None = None
    y_upper: list | None = None
    y_dim: int | None = None
    alpha: float = 2.0
    depth_weight: str = "2^-k"
    components: tuple = ("nw", "tree")
    max_depth_x: int = 24
    on_outside: str = "clamp"
    tree_max_depth: int = 12
    tree_gamma: float = 0.5
    tree_branch_pseudo: float = 0.5
    nw_kappa0: float = 1.0
    nw_nu0: float | None = None
    nw_scale: float = 1.0
    mixture_weights: list | None = None

    def __post_init__(self):
        self._bounds_as_lists()

    def _bounds_as_lists(self):
        """Make each bound given the plain list of floats that a
        snapshot's JSON header can hold, from a list, a tuple or an
        array of finite numbers; anything else raises ``BadConfig``."""
        for name in _BOUNDS:
            value = getattr(self, name)
            if value is None and name.startswith("y"):
                continue
            if isinstance(value, np.ndarray):
                value = value.tolist()
            if not isinstance(value, (list, tuple)) or not all(
                _is_number(v) and math.isfinite(v) for v in value
            ):
                raise BadConfig(f"{name} must be a list of finite numbers, got {value!r}")
            setattr(self, name, [float(v) for v in value])

    def validate(self):
        """Check the type and the value of every field, raising
        ``BadConfig``; sizes go through ``as_size``. Returns the config,
        its bounds as lists of floats and its components as a tuple."""
        self._bounds_as_lists()
        for name in _NUMBERS:
            value = getattr(self, name)
            if not (_is_number(value) or value is None and name == "nw_nu0"):
                raise BadConfig(f"{name} must be a number, got {value!r}")
        if not self.alpha > 1.0:  # NaN too: every leaf would split
            raise BadConfig("alpha must exceed 1")
        if not isinstance(self.components, (list, tuple)):
            raise BadConfig(f"components must be a list of names, got {self.components!r}")
        comps = self.components = tuple(self.components)
        if not comps or any(c not in _COMPONENTS for c in comps):
            raise BadConfig(f"components must be a nonempty subset of {_COMPONENTS}")
        if len(set(comps)) != len(comps):
            raise BadConfig("components must not repeat")
        has_ybox = self.y_lower is not None and self.y_upper is not None
        if "tree" in comps and not has_ybox:
            raise BadConfig("the tree component needs y bounds")
        if not has_ybox and self.y_dim is None:
            raise BadConfig("need y bounds or y_dim")
        if self.y_dim is not None and not (type(self.y_dim) is int and self.y_dim >= 1):
            raise BadConfig(f"y_dim must be a positive int, got {self.y_dim!r}")
        if has_ybox:
            ybox = Box(self.y_lower, self.y_upper)
            if self.y_dim is not None and self.y_dim != ybox.dim:
                raise BadConfig("y_dim disagrees with y bounds")
        Box(self.x_lower, self.x_upper)
        parse_depth_weight(self.depth_weight)
        weights = self.mixture_weights
        if weights is not None:
            if not isinstance(weights, (list, tuple)) or not all(map(_is_number, weights)):
                raise BadConfig(f"mixture_weights must be a list of numbers, got {weights!r}")
            if len(weights) != len(comps):
                raise BadConfig("mixture_weights length must match components")
            if not (all(0.0 <= w < math.inf for w in weights) and sum(weights) > 0.0):
                raise BadConfig("mixture_weights must be finite, nonnegative and not all zero")
        as_size(self.max_depth_x, "max_depth_x", 1)
        as_size(self.tree_max_depth, "tree_max_depth", 0)
        return self

    @classmethod
    def from_data(cls, x, y, pad=0.05, **overrides):
        """Bounds from data extents, widened by ``pad`` per side."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))

        def bounds(arr):
            lo = arr.min(axis=0)
            hi = arr.max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            return (lo - pad * span).tolist(), (hi + pad * span).tolist()

        xlo, xhi = bounds(x)
        ylo, yhi = bounds(y)
        kw = dict(x_lower=xlo, x_upper=xhi, y_lower=ylo, y_upper=yhi)
        kw.update(overrides)
        return cls(**kw)


class CdeModel:
    """Streaming conditional density estimator p(y | x)."""

    def __init__(self, config: CdeConfig):
        self.config = config.validate()
        cover = KdTreeCover(
            Box(config.x_lower, config.x_upper),
            alpha=config.alpha,
            max_depth=config.max_depth_x,
            on_outside=config.on_outside,
        )
        self.posterior = CoverModelPosterior(
            cover, self._make_local(), depth_weight=config.depth_weight
        )

    def _make_local(self):
        """The posterior's prior, an empty local whose ``spawn`` makes
        every context's. The Normal-Wishart prior mean is the y box's
        centre, or 0 without one."""
        cfg = self.config
        if cfg.y_lower is not None and cfg.y_upper is not None:
            mu0 = Box(cfg.y_lower, cfg.y_upper).center
        else:
            mu0 = [0.0] * cfg.y_dim
        comps = []
        for name in cfg.components:
            if name == "nw":
                comps.append(
                    NormalWishart(
                        mu0, kappa0=cfg.nw_kappa0, nu0=cfg.nw_nu0, scale=cfg.nw_scale
                    )
                )
            else:
                comps.append(
                    BayesTreeDensity(
                        cfg.y_lower,
                        cfg.y_upper,
                        gamma=cfg.tree_gamma,
                        branch_pseudo=cfg.tree_branch_pseudo,
                        max_depth=cfg.tree_max_depth,
                    )
                )
        if len(comps) == 1:
            return comps[0]
        lw = None
        if cfg.mixture_weights is not None:
            with np.errstate(divide="ignore"):  # a zero weight's log is -inf
                lw = np.log(np.asarray(cfg.mixture_weights, dtype=float))
        return MixtureLocal(comps, lw)

    # thin delegation; the engine owns all the state

    def predict_logdensity(self, x, y) -> float:
        return self.posterior.predict_logdensity(x, y)

    def absorb(self, x, y) -> float:
        return self.posterior.absorb(x, y)

    def fit_stream(self, x, y) -> np.ndarray:
        """Absorb rows in order; returns each pre-update log predictive."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[0] != y.shape[0]:
            raise BadConfig("x and y row counts differ")
        return np.array([self.absorb(x[i], y[i]) for i in range(x.shape[0])])

    def sample_y(self, x, rng):
        return self.posterior.sample_y(x, rng)

    @property
    def n_obs(self) -> int:
        return self.posterior.n_obs

    @property
    def refinement_depth(self) -> int:
        return self.posterior.cover.refinement_depth

    @property
    def n_contexts(self) -> int:
        return self.posterior.cover.n_contexts

    def to_text(self) -> str:
        cfg = asdict(self.config)
        cfg["components"] = list(self.config.components)
        meta = {"kind": "cde", "config": cfg}
        return json.dumps(meta, sort_keys=True) + "\n" + self.posterior.to_text()

    @classmethod
    def from_text(cls, text) -> "CdeModel":
        """Rebuild a model from ``to_text`` output. Raises ``BadConfig``
        unless the header's config is the one the posterior was built
        with, as far as its cover, stop weights and locals show:
        contexts made after the restore take their locals from it.

        Every buffered y must have ``y_dim`` values, and for a tree-only
        model lie in the y box (the engine's load checks that as it
        rebuilds the trees): a split hands the buffered ys to the new
        contexts' ``absorb_block`` without checking them again.

        A mixture's weights are a posterior, so only a context whose
        components have all seen no point still holds the prior weights
        the header's ``mixture_weights`` give, and each such context
        must hold exactly those. A trained context's weights are not
        checked, because that would take a refit."""
        head, _, rest = text.partition("\n")
        try:
            meta = json.loads(head)
            if not isinstance(meta, dict) or meta.get("kind") != "cde":
                raise BadConfig("not a cde snapshot")
            obj = cls.__new__(cls)
            config = obj.config = CdeConfig(**meta["config"]).validate()
            prior = obj._make_local()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadConfig(f"malformed cde snapshot header: {exc!r}") from exc
        obj.posterior = post = CoverModelPosterior.from_text(rest, prior)
        cover = post.cover
        if not isinstance(cover, KdTreeCover):
            raise BadConfig("a cde snapshot must hold a kd cover")
        box = cover.root_box
        if (
            (list(box.lower), list(box.upper)) != (config.x_lower, config.x_upper)
            or (cover.alpha, cover.max_depth, cover.on_outside)
            != (config.alpha, config.max_depth_x, config.on_outside)
            or parse_depth_weight(config.depth_weight)[0] != post.depth_weight_spec
        ):
            raise BadConfig("cde snapshot header disagrees with its posterior")
        # the cover's record gives every buffered y one length, so one
        # value checks them all
        y_dim = config.y_dim if config.y_dim is not None else len(config.y_lower)
        y = next((ys[0] for _, ys in cover.leaf_ys() if ys), None)
        if y is not None and len(y) != y_dim:
            raise BadConfig(f"buffered y {list(y)} has length {len(y)}, expected {y_dim}")
        prior = post.prior
        if isinstance(prior, MixtureLocal):
            for cid, local in enumerate(post.local):
                if local.log_w != prior.log_w and not any(c.n_seen for c in local.components):
                    raise BadConfig(
                        f"context {cid} has seen no point but holds other mixture "
                        "weights than the header's mixture_weights give"
                    )
        return obj


def new_cde(x_lower, x_upper, y_lower=None, y_upper=None, **kw) -> CdeModel:
    """``CdeModel(CdeConfig(...))`` with the bounds as positional arguments."""
    return CdeModel(CdeConfig(x_lower, x_upper, y_lower, y_upper, **kw))
