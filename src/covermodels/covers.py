"""Cover sequences: nested systems of regions that queries fall into.

A cover sequence is an ordered list of covers C_1 .. C_K, coarsest
first. Each cover is a collection of contexts; a context owns a region
of query space. A query matches one or more contexts per cover, and
matching is contiguous from the top: once some cover has no matching
context the chain ends there.

Three concrete builders:

* ``KdTreeCover``: axis aligned boxes refined online by midpoint splits
  of the largest side, driven by occupancy counts.
* ``SuffixTreeCover``: contexts are suffixes of a symbol history,
  materialised lazily as histories are seen.
* ``ExplicitCover``: hand built levels over hashable atoms, intended
  for tests and small fixtures.

Depths are 1-based; depth 1 is the coarsest cover.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadConfig,
    DepthLimitExceeded,
    EmptyPath,
    QueryOutOfRootRegion,
    UnknownSymbol,
)


class Box:
    """Axis aligned box with half open membership [lower, upper)."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise BadConfig("box bounds must be 1-d arrays of equal length")
        if not np.all(self.lower < self.upper):
            raise BadConfig("box must have positive width in every dimension")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self):
        return self.upper - self.lower

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, x, closed=False) -> bool:
        x = np.asarray(x, dtype=float)
        if closed:
            return bool(np.all(x >= self.lower) and np.all(x <= self.upper))
        return bool(np.all(x >= self.lower) and np.all(x < self.upper))

    def clamp(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def split_largest(self):
        """Split at the midpoint of the largest side.

        Ties pick the lowest dimension. Returns ``(dim, mid, (lo, hi))``
        where ``lo`` keeps the half open convention x[dim] < mid.
        Raises BadConfig once float resolution is exhausted and the
        midpoint is no longer strictly interior.
        """
        d = int(np.argmax(self.widths))
        mid = 0.5 * (self.lower[d] + self.upper[d])
        if not (self.lower[d] < mid < self.upper[d]):
            raise BadConfig("box too thin to split")
        lo_upper = self.upper.copy()
        lo_upper[d] = mid
        hi_lower = self.lower.copy()
        hi_lower[d] = mid
        return d, mid, (Box(self.lower, lo_upper), Box(hi_lower, self.upper))

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class SuffixRegion:
    """Histories whose most recent symbols equal ``suffix``.

    The suffix is stored in chronological order, so ``SuffixRegion((0, 1))``
    matches any history ending ... 0, 1.
    """

    __slots__ = ("suffix",)

    def __init__(self, suffix):
        self.suffix = tuple(int(s) for s in suffix)

    def __len__(self):
        return len(self.suffix)

    def matches(self, history) -> bool:
        k = len(self.suffix)
        if k == 0:
            return True
        h = tuple(history)
        return len(h) >= k and h[-k:] == self.suffix

    def __repr__(self):
        return f"SuffixRegion({self.suffix!r})"


class Context:
    """One set in one cover of the sequence."""

    __slots__ = ("cid", "depth", "region", "parent_ids", "child_ids")

    def __init__(self, cid, depth, region, parent_ids=()):
        self.cid = cid
        self.depth = depth
        self.region = region
        self.parent_ids = list(parent_ids)
        self.child_ids = []

    def __repr__(self):
        return f"Context(cid={self.cid}, depth={self.depth}, region={self.region!r})"


class CoverSequence:
    """Base class holding the context graph.

    Subclasses set ``growth_mode`` to one of "static", "replay" or
    "truncate" and implement ``match_levels``. ``exact`` declares that
    every context has at most one parent and regions at each depth
    partition their parent, which is what the exact posterior
    bookkeeping in the engine relies on.
    """

    growth_mode = "static"
    exact = True

    def __init__(self):
        self.contexts: dict[int, Context] = {}
        self._next_cid = 0

    def _new_context(self, depth, region, parent_ids=()) -> Context:
        cid = self._next_cid
        self._next_cid += 1
        ctx = Context(cid, depth, region, parent_ids)
        self.contexts[cid] = ctx
        for p in ctx.parent_ids:
            self.contexts[p].child_ids.append(cid)
        return ctx

    def roots(self):
        return [c.cid for c in self.contexts.values() if c.depth == 1]

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    @property
    def deepest_depth(self) -> int:
        return max(c.depth for c in self.contexts.values())

    def prepare_query(self, query):
        return query

    def match_levels(self, query):
        """Matched context ids per depth, contiguous from depth 1."""
        raise NotImplementedError

    def state_dict(self):
        raise BadConfig(f"{type(self).__name__} does not support serialisation")


class KdTreeCover(CoverSequence):
    """Binary box refinement driven by occupancy.

    The root box alone is cover C_1. A leaf at depth k buffers the
    observations that landed in it; once the buffer size exceeds
    alpha**k the leaf splits at the midpoint of its largest side and
    the buffer is partitioned between the two children. Splits cascade
    when the points are clustered enough that a child immediately
    exceeds its own threshold.

    Buffered payloads are (x, y) pairs of float vectors; they are what
    a split event hands back so the caller can rebuild per child state.
    """

    growth_mode = "replay"

    def __init__(self, root_box: Box, alpha=2.0, max_depth=24, on_outside="clamp"):
        super().__init__()
        if alpha <= 1.0:
            raise BadConfig("alpha must exceed 1")
        if max_depth < 1:
            raise BadConfig("max_depth must be at least 1")
        if on_outside not in ("clamp", "reject"):
            raise BadConfig("on_outside must be 'clamp' or 'reject'")
        self.root_box = root_box
        self.alpha = float(alpha)
        self.max_depth = int(max_depth)
        self.on_outside = on_outside
        root = self._new_context(1, root_box)
        self.root_id = root.cid
        self._split = {}  # cid -> (dim, mid, lo_cid, hi_cid)
        self._buffer = {root.cid: []}  # leaves only

    def prepare_query(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.root_box.dim:
            raise BadConfig(
                f"query has dimension {x.shape[0]}, cover expects {self.root_box.dim}"
            )
        if not np.isfinite(x).all():
            raise BadConfig(f"query {x.tolist()} is not finite")
        if not self.root_box.contains(x, closed=True):
            if self.on_outside == "reject":
                raise QueryOutOfRootRegion(x.tolist(), self.root_box)
            x = self.root_box.clamp(x)
        return x

    def descend(self, x):
        """Context ids along the root to leaf chain for a prepared query."""
        cid = self.root_id
        path = [cid]
        while cid in self._split:
            d, mid, lo, hi = self._split[cid]
            cid = lo if x[d] < mid else hi
            path.append(cid)
        return path

    def match_levels(self, query):
        return [[cid] for cid in self.descend(self.prepare_query(query))]

    def threshold(self, depth) -> float:
        return self.alpha ** depth

    def occupancy(self, cid) -> int:
        return len(self._buffer[cid])

    @property
    def refinement_depth(self) -> int:
        """Number of split levels below the root."""
        return self.deepest_depth - 1

    def observe_and_refine(self, x, y):
        """Buffer (x, y) at the containing leaf, splitting as needed.

        ``x`` must already be prepared. Returns the list of split
        events in creation order; each event is ``(parent_cid,
        [(child_cid, block), (child_cid, block)])`` where block lists
        the (x, y) pairs that fell inside that child, oldest first.
        """
        leaf = self.descend(x)[-1]
        self._buffer[leaf].append((x, np.asarray(y, dtype=float).reshape(-1)))
        events = []
        self._maybe_split(leaf, events)
        return events

    def _maybe_split(self, cid, events):
        ctx = self.contexts[cid]
        if ctx.depth >= self.max_depth:
            return
        buf = self._buffer[cid]
        if len(buf) <= self.threshold(ctx.depth):
            return
        try:
            d, mid, (box_lo, box_hi) = ctx.region.split_largest()
        except BadConfig:
            return  # float resolution exhausted, leaf keeps absorbing
        lo = self._new_context(ctx.depth + 1, box_lo, (cid,))
        hi = self._new_context(ctx.depth + 1, box_hi, (cid,))
        self._split[cid] = (d, mid, lo.cid, hi.cid)
        buf_lo = [(xx, yy) for xx, yy in buf if xx[d] < mid]
        buf_hi = [(xx, yy) for xx, yy in buf if xx[d] >= mid]
        self._buffer[lo.cid] = buf_lo
        self._buffer[hi.cid] = buf_hi
        del self._buffer[cid]
        events.append((cid, [(lo.cid, list(buf_lo)), (hi.cid, list(buf_hi))]))
        self._maybe_split(lo.cid, events)
        self._maybe_split(hi.cid, events)

    def split_leaf(self, cid):
        """Split a leaf unconditionally (fixture construction).

        Intended for building static partition trees before any data
        arrives. Returns the two child ids.
        """
        if cid in self._split:
            raise BadConfig(f"context {cid} is not a leaf")
        ctx = self.contexts[cid]
        if ctx.depth >= self.max_depth:
            raise DepthLimitExceeded(
                f"cannot split leaf at depth {ctx.depth}, max_depth={self.max_depth}"
            )
        d, mid, (box_lo, box_hi) = ctx.region.split_largest()
        lo = self._new_context(ctx.depth + 1, box_lo, (cid,))
        hi = self._new_context(ctx.depth + 1, box_hi, (cid,))
        self._split[cid] = (d, mid, lo.cid, hi.cid)
        buf = self._buffer.pop(cid)
        self._buffer[lo.cid] = [(xx, yy) for xx, yy in buf if xx[d] < mid]
        self._buffer[hi.cid] = [(xx, yy) for xx, yy in buf if xx[d] >= mid]
        return lo.cid, hi.cid

    def state_dict(self):
        ctxs = []
        for c in self.contexts.values():
            sp = self._split.get(c.cid)
            ctxs.append(
                {
                    "cid": c.cid,
                    "depth": c.depth,
                    "lower": c.region.lower.tolist(),
                    "upper": c.region.upper.tolist(),
                    "parents": list(c.parent_ids),
                    "split": list(sp) if sp is not None else None,
                }
            )
        buffers = {
            str(cid): [[x.tolist(), y.tolist()] for x, y in buf]
            for cid, buf in self._buffer.items()
        }
        return {
            "kind": "kdtree",
            "alpha": self.alpha,
            "max_depth": self.max_depth,
            "on_outside": self.on_outside,
            "root_lower": self.root_box.lower.tolist(),
            "root_upper": self.root_box.upper.tolist(),
            "next_cid": self._next_cid,
            "root_id": self.root_id,
            "contexts": ctxs,
            "buffers": buffers,
        }

    @classmethod
    def from_state(cls, state):
        cover = cls.__new__(cls)
        CoverSequence.__init__(cover)
        cover.alpha = float(state["alpha"])
        cover.max_depth = int(state["max_depth"])
        cover.on_outside = state["on_outside"]
        cover.root_box = Box(state["root_lower"], state["root_upper"])
        cover.root_id = state["root_id"]
        cover._split = {}
        cover._buffer = {}
        for rec in state["contexts"]:
            ctx = Context(
                rec["cid"], rec["depth"], Box(rec["lower"], rec["upper"]), rec["parents"]
            )
            cover.contexts[ctx.cid] = ctx
            if rec["split"] is not None:
                d, mid, lo, hi = rec["split"]
                cover._split[ctx.cid] = (int(d), float(mid), int(lo), int(hi))
        for ctx in cover.contexts.values():
            for p in ctx.parent_ids:
                cover.contexts[p].child_ids.append(ctx.cid)
        for key, buf in state["buffers"].items():
            cover._buffer[int(key)] = [
                (np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in buf
            ]
        cover._next_cid = int(state["next_cid"])
        return cover


class SuffixTreeCover(CoverSequence):
    """Suffix contexts over a finite alphabet, materialised lazily.

    Cover k holds suffixes of length k-1, so the root (empty suffix)
    matches every history. ``extend`` materialises the suffix chain of
    the current history down to cover min(len(history) + 1, max_depth),
    creating missing contexts with no attached state. The parent of a
    suffix drops its oldest symbol.
    """

    growth_mode = "truncate"

    def __init__(self, alphabet_size, max_depth):
        super().__init__()
        if alphabet_size < 2:
            raise BadConfig("alphabet_size must be at least 2")
        if max_depth < 1:
            raise BadConfig("max_depth must be at least 1")
        self.alphabet_size = int(alphabet_size)
        self.max_depth = int(max_depth)
        root = self._new_context(1, SuffixRegion(()))
        self.root_id = root.cid
        self._by_suffix = {(): root.cid}

    def prepare_query(self, history):
        h = tuple(int(s) for s in history)
        # only the last max_depth-1 symbols are ever looked at
        for s in h[len(h) - min(len(h), self.max_depth - 1):]:
            if not 0 <= s < self.alphabet_size:
                raise UnknownSymbol(s, self.alphabet_size)
        return h

    def match_levels(self, history):
        h = self.prepare_query(history)
        levels = [[self.root_id]]
        for k in range(1, min(len(h), self.max_depth - 1) + 1):
            cid = self._by_suffix.get(h[len(h) - k:])
            if cid is None:
                break
            levels.append([cid])
        return levels

    def extend(self, history):
        """Materialise the suffix chain for ``history``.

        Returns ``(path, new_cids)`` where path runs root to deepest.
        """
        h = self.prepare_query(history)
        path = [self.root_id]
        new = []
        for k in range(1, min(len(h), self.max_depth - 1) + 1):
            suffix = h[len(h) - k:]
            cid = self._by_suffix.get(suffix)
            if cid is None:
                ctx = self._new_context(k + 1, SuffixRegion(suffix), (path[-1],))
                self._by_suffix[suffix] = ctx.cid
                cid = ctx.cid
                new.append(cid)
            path.append(cid)
        return path, new

    def state_dict(self):
        ctxs = [
            {
                "cid": c.cid,
                "depth": c.depth,
                "suffix": list(c.region.suffix),
                "parents": list(c.parent_ids),
            }
            for c in self.contexts.values()
        ]
        return {
            "kind": "suffix",
            "alphabet_size": self.alphabet_size,
            "max_depth": self.max_depth,
            "next_cid": self._next_cid,
            "root_id": self.root_id,
            "contexts": ctxs,
        }

    @classmethod
    def from_state(cls, state):
        cover = cls.__new__(cls)
        CoverSequence.__init__(cover)
        cover.alphabet_size = int(state["alphabet_size"])
        cover.max_depth = int(state["max_depth"])
        cover.root_id = state["root_id"]
        cover._by_suffix = {}
        for rec in state["contexts"]:
            region = SuffixRegion(rec["suffix"])
            ctx = Context(rec["cid"], rec["depth"], region, rec["parents"])
            cover.contexts[ctx.cid] = ctx
            cover._by_suffix[region.suffix] = ctx.cid
        for ctx in cover.contexts.values():
            for p in ctx.parent_ids:
                cover.contexts[p].child_ids.append(ctx.cid)
        cover._next_cid = int(state["next_cid"])
        return cover


def cover_from_state(state):
    kind = state.get("kind")
    if kind == "kdtree":
        return KdTreeCover.from_state(state)
    if kind == "suffix":
        return SuffixTreeCover.from_state(state)
    raise BadConfig(f"unknown cover kind {kind!r}")


class ExplicitCover(CoverSequence):
    """Hand built cover sequence over hashable atoms.

    ``levels`` is a list over depths; each entry lists the contexts at
    that depth as iterables of atoms. Parents of a depth k context are
    the depth k-1 contexts it intersects. The cover is static: no
    growth, no serialisation. ``exact`` is inferred: True only when
    every context has at most one parent (a tree).
    """

    growth_mode = "static"

    def __init__(self, levels):
        super().__init__()
        if not levels or not levels[0]:
            raise BadConfig("need at least one context at depth 1")
        self.max_depth = len(levels)
        tree = True
        prev = []
        for k, level in enumerate(levels, start=1):
            current = []
            for atoms in level:
                region = frozenset(atoms)
                if not region:
                    raise BadConfig("empty context region")
                parents = [c.cid for c in prev if self.contexts[c.cid].region & region]
                if k > 1 and not parents:
                    raise BadConfig("context at depth %d overlaps no parent" % k)
                if len(parents) > 1:
                    tree = False
                current.append(self._new_context(k, region, parents))
            prev = current
        if tree:
            # exactness needs a recursive partition: the children of a
            # context must tile it without overlap, or the engine's
            # product factorisation over subtrees does not hold
            for ctx in self.contexts.values():
                kids = [self.contexts[d].region for d in ctx.child_ids]
                if not kids:
                    continue
                union = frozenset().union(*kids)
                if union != ctx.region or sum(map(len, kids)) != len(union):
                    tree = False
                    break
        self.exact = tree

    def match_levels(self, query):
        levels = []
        for depth in range(1, self.max_depth + 1):
            hit = [
                c.cid
                for c in self.contexts.values()
                if c.depth == depth and query in c.region
            ]
            if not hit:
                break
            levels.append(hit)
        if not levels:
            raise EmptyPath(f"no depth-1 context contains {query!r}")
        return levels
