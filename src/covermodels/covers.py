"""Cover sequences: nested systems of regions that queries fall into.

A cover sequence is an ordered list of covers C_1 .. C_K, coarsest
first. Each cover is a collection of contexts; a context owns a region
of query space. The covers nest as one partition tree: C_1 is a single
root context, and the children of a context tile its region. A query
therefore matches one chain of contexts, at most one per cover, from
the root down to the deepest context that contains it.

Two concrete builders, one per shipped model:

* ``KdTreeCover`` (``CdeModel``): axis aligned boxes refined online by
  midpoint splits of the largest side, driven by occupancy counts.
* ``SuffixTreeCover`` (``VmmModel``): contexts are suffixes of a symbol
  history, materialised lazily as histories are seen.

Depths are 1-based; depth 1 is the coarsest cover.
"""

from __future__ import annotations

import copy
import math
import numbers
import sys
from functools import partial
from itertools import chain, islice, repeat
from operator import ge, gt, le

import numpy as np

from .errors import BadConfig, DepthLimitExceeded, QueryOutOfRootRegion, UnknownSymbol


def is_number(value):
    """The one float rule for a number that enters the package: a float,
    or an int within a float's range, and never a bool or a str."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and type(value) is not bool and abs(value) <= sys.float_info.max


def as_float(value, name):
    """``value`` as a float if it is a number by ``is_number``; anything
    else raises ``BadConfig``."""
    if is_number(value):
        return float(value)
    raise BadConfig(f"{name} must be a number, got {value!r}")


def as_floats(value, name):
    """``value`` as a float array: a number by ``is_number``, or a list,
    tuple or array of them, nested for a matrix; anything else raises
    ``BadConfig``."""

    def numbers(v):
        if isinstance(v, np.ndarray):
            return v.dtype.kind in "iuf"
        return all(map(numbers, v)) if isinstance(v, (list, tuple)) else is_number(v)

    try:
        if numbers(value):
            return np.asarray(value, dtype=float)
    except ValueError:  # a ragged nesting
        pass
    raise BadConfig(f"{name} must be a number or an array of numbers, got {value!r}")


def as_size(value, name, least):
    """A size such as a depth or an alphabet's, as an int: a whole number
    of at least ``least``, which an integral float such as 3.0 is too.
    Anything else, NaN, an infinity, 2.5 or a bool among them, raises
    ``BadConfig``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and value >= least and value % 1 == 0:
        return int(value)
    raise BadConfig(f"{name} must be a whole number of at least {least}, got {value!r}")


def cut(lo, hi):
    """Split dimension and midpoint of the box [lo, hi], the one split
    rule of kd covers and tree densities: its largest side, the lowest
    dimension on ties, as numpy's ``argmax`` would pick."""
    d = 0
    if len(lo) > 1:
        best = hi[0] - lo[0]
        for i in range(1, len(lo)):
            w = hi[i] - lo[i]
            if w > best:
                d, best = i, w
    return d, 0.5 * (lo[d] + hi[d])


class Box:
    """Axis aligned box with half open membership [lower, upper), at
    least one dimension and finite bounds, which splits and volumes
    need. The bounds are tuples of floats."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lower, upper = as_floats(lower, "lower"), as_floats(upper, "upper")
        if lower.shape != upper.shape or lower.ndim != 1:
            raise BadConfig("box bounds must be 1-d arrays of equal length")
        if not lower.size:
            raise BadConfig("a box needs at least one dimension")
        self.lower, self.upper = tuple(lower.tolist()), tuple(upper.tolist())
        if not all(map(math.isfinite, self.lower + self.upper)):
            raise BadConfig("box bounds must be finite")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise BadConfig("box must have positive width in every dimension")

    @classmethod
    def _of(cls, lower, upper):
        """The box of ``lower`` and ``upper``, tuples of floats taken as
        they are: ``split_largest``'s halves of a checked box."""
        box = cls.__new__(cls)
        box.lower, box.upper = lower, upper
        return box

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in zip(self.lower, self.upper))

    def contains(self, x, closed=False) -> bool:
        if closed:
            return all(lo <= v <= hi for lo, v, hi in zip(self.lower, x, self.upper))
        return all(lo <= v < hi for lo, v, hi in zip(self.lower, x, self.upper))

    def clamp(self, x):
        """x as a tuple moved into the box as numpy's ``clip`` moves it:
        a coordinate on a bound takes the bound, so -0.0 against a bound
        0.0 becomes 0.0."""
        out = []
        for lo, v, hi in zip(self.lower, x, self.upper):
            v = v if v > lo else lo
            out.append(v if v < hi else hi)
        return tuple(out)

    def split_largest(self):
        """Split where ``cut`` says: the midpoint of the largest side.

        Returns ``(dim, mid, (lo, hi))`` where ``lo`` keeps the half
        open convention x[dim] < mid. Raises BadConfig once float
        resolution is exhausted and the midpoint is no longer strictly
        interior.
        """
        lower, upper = self.lower, self.upper
        d, mid = cut(lower, upper)
        if not (lower[d] < mid < upper[d]):
            raise BadConfig("box too thin to split")
        lo_upper = upper[:d] + (mid,) + upper[d + 1:]
        hi_lower = lower[:d] + (mid,) + lower[d + 1:]
        return d, mid, (Box._of(lower, lo_upper), Box._of(hi_lower, upper))

    def __repr__(self):
        return f"Box({list(self.lower)}, {list(self.upper)})"


class Context:
    """One set in one cover of the sequence."""

    __slots__ = ("cid", "depth", "region", "parent", "child_ids")

    def __init__(self, cid, depth, region, parent=None):
        self.cid = cid
        self.depth = depth
        self.region = region
        self.parent = parent
        self.child_ids = []

    def copy(self) -> "Context":
        """A copy with its own ``child_ids`` list; the region is shared,
        since no cover changes a region once made."""
        ctx = Context.__new__(Context)
        ctx.cid = self.cid
        ctx.depth = self.depth
        ctx.region = self.region
        ctx.parent = self.parent
        ctx.child_ids = self.child_ids[:]
        return ctx

    def __repr__(self):
        return f"Context(cid={self.cid}, depth={self.depth}, region={self.region!r})"


class CoverSequence:
    """Base class holding the context tree.

    Every context but the root (``root_id``, at depth 1) has one
    parent, and the children of a context tile its region, so a query
    matches one chain of contexts. The engine's closed form posterior
    relies on exactly that.

    A subclass grows its own way by overriding the defaults below, which
    grow nothing: ``KdTreeCover`` splits leaves and replays their points
    (``observe_and_refine``, ``leaf_ys``), ``SuffixTreeCover`` makes
    contexts lazily (``extend``, ``truncates``). ``growth_mode`` is a
    label kept for ``bench/workload.py``; the package does not read it.
    A subclass also implements:

    * ``prepare_query(query)``: validate and normalise a raw query.
      ``match_levels``, ``extend`` and ``observe_and_refine`` take its
      result, so a caller prepares each query once.
    * ``match_levels(query)``: ids of the contexts a prepared query
      matches, one per depth from the root down to the deepest.
    * ``state_dict()`` and ``from_state``: the plain-data round trip
      that ``cover_from_state`` dispatches on.
    """

    def __init__(self):
        self.contexts: dict[int, Context] = {}

    def _new_context(self, depth, region, parent=None) -> Context:
        cid = len(self.contexts)  # no context is ever removed
        ctx = Context(cid, depth, region, parent)
        self.contexts[cid] = ctx
        if parent is not None:
            self.contexts[parent].child_ids.append(cid)
        return ctx

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    @property
    def deepest_depth(self) -> int:
        return max(c.depth for c in self.contexts.values())

    def truncates(self, depth) -> bool:
        """Whether a chain that ends at ``depth`` could have gone deeper."""
        return False

    def extend(self, query, path):
        """Make the contexts a chain lacks: ``(path, new ids)``."""
        return path, []

    def observe_and_refine(self, query, y, leaf=None):
        """Keep an observation: the split events it causes, in order."""
        return []

    def leaf_ys(self):
        """Each leaf's kept ys, or None: the cover keeps no points."""
        return None


class KdTreeCover(CoverSequence):
    """Binary box refinement driven by occupancy.

    The root box alone is cover C_1. A leaf at depth k buffers the
    observations that landed in it; once the buffer size exceeds
    alpha**k the leaf splits at the midpoint of its largest side and
    the buffer is partitioned between the two children. Splits cascade
    when the points are clustered enough that a child immediately
    exceeds its own threshold.

    Buffered payloads are (x, y) pairs of float tuples; they are what a
    split event hands back so the caller can rebuild per child state.
    They are also the only record of the tree densities of a CDE
    snapshot, which a load rebuilds from the ys buffered under each
    context. So a leaf that can never split still needs its buffer, or
    else its context's and its ancestors' trees stored in its place.
    """

    growth_mode = "replay"

    def __init__(self, root_box: Box, alpha=2.0, max_depth=24, on_outside="clamp"):
        super().__init__()
        if not (is_number(alpha) and alpha > 1.0):  # NaN too: every leaf would split
            raise BadConfig(f"alpha must be a number above 1, got {alpha!r}")
        max_depth = as_size(max_depth, "max_depth", 1)
        if on_outside not in ("clamp", "reject"):
            raise BadConfig("on_outside must be 'clamp' or 'reject'")
        self.root_box = root_box
        self.alpha = float(alpha)
        self.max_depth = max_depth
        self.on_outside = on_outside
        root = self._new_context(1, root_box)
        self.root_id = root.cid
        self._split = {}  # cid -> (dim, mid, lo_cid, hi_cid)
        self._buffer = {root.cid: []}  # leaves only

    def prepare_query(self, x):
        """x as a tuple of floats in the root box, clamped into it or
        refused per ``on_outside``."""
        box = self.root_box
        x = np.asarray(x, dtype=float).reshape(-1).tolist()
        if len(x) != box.dim:
            raise BadConfig(f"query has dimension {len(x)}, cover expects {box.dim}")
        if not all(map(math.isfinite, x)):
            raise BadConfig(f"query {x} is not finite")
        if not box.contains(x, closed=True):
            if self.on_outside == "reject":
                raise QueryOutOfRootRegion(x, box)
            return box.clamp(x)
        return tuple(x)

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
        return self.descend(query)

    def threshold(self, depth) -> float:
        return self.alpha ** depth

    def occupancy(self, cid) -> int:
        return len(self._buffer[cid])

    @property
    def refinement_depth(self) -> int:
        """Number of split levels below the root."""
        return self.deepest_depth - 1

    def observe_and_refine(self, x, y, leaf=None):
        """Buffer (x, y) at the containing leaf, splitting as needed.

        ``x`` must already be prepared, and is kept as it is: a tuple,
        which no caller can change. y is kept as a tuple of its floats.
        ``leaf``, when given, is the leaf x descends to, the last
        context ``match_levels`` returned for it. Returns the list of
        split events in creation order; each event is ``(parent_cid,
        [(child_cid, block), (child_cid, block)])`` where block lists the
        (x, y) pairs that fell inside that child, oldest first.
        """
        if leaf is None:
            leaf = self.descend(x)[-1]
        self._buffer[leaf].append((x, tuple(np.asarray(y, dtype=float).reshape(-1).tolist())))
        events = []
        # a cascade goes down the low child's side before the high
        # child's, one stack entry per leaf to try, however deep
        stack = [leaf]
        while stack:
            cid = stack.pop()
            depth = self.contexts[cid].depth
            if depth >= self.max_depth or len(self._buffer[cid]) <= self.threshold(depth):
                continue
            try:
                lo, hi = self._split_leaf(cid)
            except BadConfig:
                continue  # float resolution exhausted, leaf keeps absorbing
            events.append((cid, [(lo, list(self._buffer[lo])), (hi, list(self._buffer[hi]))]))
            stack += (hi, lo)
        return events

    def _split_leaf(self, cid):
        """Split leaf cid at ``Box.split_largest``: make both children,
        record the split and share out the buffer. Returns the child
        ids, low side first; raises BadConfig, changing nothing, on a
        box too thin to split."""
        ctx = self.contexts[cid]
        d, mid, (box_lo, box_hi) = ctx.region.split_largest()
        lo = self._new_context(ctx.depth + 1, box_lo, cid).cid
        hi = self._new_context(ctx.depth + 1, box_hi, cid).cid
        self._split[cid] = (d, mid, lo, hi)
        buf = self._buffer.pop(cid)
        self._buffer[lo] = [(xx, yy) for xx, yy in buf if xx[d] < mid]
        self._buffer[hi] = [(xx, yy) for xx, yy in buf if xx[d] >= mid]
        return lo, hi

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
        return self._split_leaf(cid)

    def leaf_ys(self):
        """Each leaf's buffered ys, oldest first: ``(cid, [y, ...])``
        pairs, one leaf at a time."""
        return ((cid, [y for _, y in buf]) for cid, buf in self._buffer.items())

    def state_dict(self):
        """Split records and flat leaf buffers; the contexts' boxes,
        depths and parents follow from the root box.

        ``splits`` lists ``[cid, dim, mid]`` in the order the splits
        happened, so the i-th split made contexts 2i+1 and 2i+2.
        ``buffers`` maps each leaf to one float list holding every
        buffered pair, oldest first, as x's floats then ``y_dim`` y
        floats.
        """
        y_dim = 0
        buffers = {}
        for cid, buf in self._buffer.items():
            flat = []
            for x, y in buf:
                if not y_dim:
                    y_dim = len(y)
                if len(y) != y_dim:
                    raise BadConfig("buffered y values differ in length")
                flat += x
                flat += y
            buffers[str(cid)] = flat
        return {
            "kind": "kdtree",
            "alpha": self.alpha,
            "max_depth": self.max_depth,
            "on_outside": self.on_outside,
            "root_lower": list(self.root_box.lower),
            "root_upper": list(self.root_box.upper),
            "splits": [[cid, d, mid] for cid, (d, mid, _, _) in self._split.items()],
            "y_dim": y_dim,
            "buffers": buffers,
        }

    @classmethod
    def from_state(cls, state):
        """Rebuild from ``state_dict``.

        Raises ``BadConfig`` unless every split record splits a leaf
        above ``max_depth`` at ``Box.split_largest`` of its box, every
        leaf and only leaves have a buffer, every buffered x lies in its
        leaf's box and every buffered y value is a float, as
        ``observe_and_refine`` keeps it. A y may be NaN here: a cover
        used alone buffers whatever y it is given.
        """
        cover = cls(
            Box(*(as_floats(state[k], k) for k in ("root_lower", "root_upper"))),
            alpha=state["alpha"],
            max_depth=state["max_depth"],
            on_outside=state["on_outside"],
        )
        for rec in state["splits"]:
            if len(rec) != 3:
                raise BadConfig(f"split record {rec} is not [cid, dim, mid]")
            cid, d, mid = rec
            ctx = cover.contexts.get(cid)
            if ctx is None or cid in cover._split or ctx.depth >= cover.max_depth:
                raise BadConfig(f"split record {rec} names no splittable leaf")
            try:
                cover._split_leaf(cid)
            except BadConfig:
                raise BadConfig(f"split record {rec} splits a box too thin to split") from None
            d0, mid0 = cover._split[cid][:2]
            if d != d0 or mid != mid0:
                raise BadConfig(f"split record {rec} differs from its box's {[cid, d0, mid0]}")
        top = cover.root_box.upper
        dim = len(top)
        y_dim = as_size(state["y_dim"], "y_dim", 0)
        width = dim + y_dim
        buffers = state["buffers"]
        if len(buffers) != len(cover.contexts) - len(cover._split):
            raise BadConfig("buffers must be given for the leaves and only for them")
        cover._buffer = {}
        for key, flat in buffers.items():
            cid = int(key)
            if cid not in cover.contexts or cid in cover._split:
                raise BadConfig(f"buffer for context {key}, which is not a leaf")
            if len(flat) % width:
                raise BadConfig(f"buffer of leaf {key} does not hold whole points")
            box = cover.contexts[cid].region
            cols = [flat[j::width] for j in range(width)]
            xcols, ycols = cols[:dim], cols[dim:]
            if not _in_box(xcols, box, top) or not _FLOAT.issuperset(
                map(type, chain.from_iterable(ycols))
            ):
                for i in range(0, len(flat), width):  # name the first misfit
                    x, y = flat[i:i + dim], flat[i + dim:i + width]
                    if not _in_box([[v] for v in x], box, top):
                        raise BadConfig(f"buffered x {x} outside its leaf {box!r}")
                    if not _FLOAT.issuperset(map(type, y)):
                        raise BadConfig(f"buffered y {y} in leaf {key} is not all floats")
            n = len(flat) // width
            cover._buffer[cid] = list(zip(_rows(xcols, n), _rows(ycols, n)))
        return cover


_FLOAT = frozenset([float])


def _in_box(cols, box, top):
    """Whether every point of ``cols``, one column of values per
    dimension, lies in ``box``: half open, closed on the root box's
    upper faces ``top``. One pass over each column, in C."""
    for col, lo, hi, t in zip(cols, box.lower, box.upper, top):
        if not all(map(partial(le, lo), col)):
            return False
        if not all(map(partial(ge if hi == t else gt, hi), col)):
            return False
    return True


def _rows(cols, n):
    """The n points of ``cols``, one column per dimension, as tuples."""
    return zip(*cols) if cols else repeat((), n)


def as_symbol(y, alphabet_size) -> int:
    """y as an int symbol of an alphabet of ``alphabet_size``. An
    integer, an integral float such as 2.0 from a float data column, a
    numpy scalar or size-1 array holding one, or the one-float tuple a
    kd cover's replayed block holds, passes; anything else, or a symbol
    outside the alphabet, raises ``UnknownSymbol`` with the plain value.
    The one symbol rule: a Dirichlet local checks each y with it, and
    the suffix cover each symbol of a history that a match reads."""
    s = y
    if type(s) is not int:
        if isinstance(s, (np.ndarray, np.generic)) and s.size == 1:
            s = s.item()
        elif type(s) is tuple and len(s) == 1:
            s = s[0]
        if not (isinstance(s, numbers.Real) and float(s).is_integer()):
            raise UnknownSymbol(s, alphabet_size)
        s = int(s)
    if not 0 <= s < alphabet_size:
        raise UnknownSymbol(s, alphabet_size)
    return s


class SuffixTreeCover(CoverSequence):
    """Suffix contexts over a finite alphabet, materialised lazily.

    Cover k holds suffixes of length k-1, so the root (empty suffix)
    matches every history. ``extend`` materialises the suffix chain of
    the current history down to cover min(len(history) + 1, max_depth),
    creating missing contexts with no attached state. The parent of a
    suffix drops its oldest symbol.

    A context's region is its suffix, a tuple of int symbols in
    chronological order, so the suffix (0, 1) matches any history ending
    ... 0, 1.

    Contexts are found through one child index, ``_kids``: per context
    id, a dict from a symbol to the child whose suffix is the context's
    with that symbol prepended, so it holds one entry per context but
    the root. A history's chain is read from the root by following
    h[-1], h[-2], ..., one dict read per level; no suffix is sliced or
    hashed to find a context.
    """

    growth_mode = "truncate"

    def __init__(self, alphabet_size, max_depth):
        super().__init__()
        self.alphabet_size = as_size(alphabet_size, "alphabet_size", 2)
        self.max_depth = as_size(max_depth, "max_depth", 1)
        self._kids = []  # cid -> {older symbol: child cid}
        self.root_id = self._new_context(1, ()).cid

    def _new_context(self, depth, region, parent=None) -> Context:
        ctx = super()._new_context(depth, region, parent)
        self._kids.append({})
        if parent is not None:
            self._kids[parent][region[0]] = ctx.cid
        return ctx

    def prepare_query(self, history):
        """The last ``max_depth - 1`` symbols of ``history``, the only ones
        a match reads, as a tuple of ints. Each must pass ``as_symbol``,
        or ``UnknownSymbol`` is raised."""
        h = history if type(history) is tuple else tuple(history)
        m = self.max_depth - 1
        if len(h) > m:
            h = h[len(h) - m:]
        n = self.alphabet_size
        for s in h:
            if type(s) is not int or not 0 <= s < n:
                return tuple(as_symbol(s, n) for s in h)
        return h

    def truncates(self, depth) -> bool:
        return depth < self.max_depth

    def match_levels(self, h):
        kids = self._kids
        cid = self.root_id
        path = [cid]
        for k in range(1, min(len(h), self.max_depth - 1) + 1):
            cid = kids[cid].get(h[-k])
            if cid is None:
                break
            path.append(cid)
        return path

    def extend(self, h, path):
        """Materialise the suffix chain for the prepared history ``h``.

        ``path`` is a root-first start of that chain, ``[root_id]`` or
        longer; the walk resumes below it. Given what ``match_levels(h)``
        returned, the existing chain is not walked again: a suffix's
        parent exists before it does, so every missing context lies
        below that path. Returns ``(path, new_cids)`` where path runs
        root to deepest; the path given is not changed.
        """
        path = path[:]
        new = []
        kids = self._kids
        cid = path[-1]
        for k in range(len(path), min(len(h), self.max_depth - 1) + 1):
            child = kids[cid].get(h[-k])
            if child is None:
                child = self._new_context(k + 1, h[len(h) - k:], cid).cid
                new.append(child)
            path.append(child)
            cid = child
        return path, new

    def copy(self) -> "SuffixTreeCover":
        """An independent copy: new ``Context`` records, each with its
        own ``child_ids``, and a new child index. The regions, which
        never change, are shared."""
        obj = copy.copy(self)
        obj.contexts = {cid: ctx.copy() for cid, ctx in self.contexts.items()}
        obj._kids = list(map(dict.copy, self._kids))
        return obj

    def state_dict(self):
        """Every context but the root as a link ``[parent id, symbol]``,
        in id order: its suffix is the parent's with the symbol
        prepended, so suffixes and depths follow from the links."""
        contexts = self.contexts.values()
        return {
            "kind": "suffix",
            "alphabet_size": self.alphabet_size,
            "max_depth": self.max_depth,
            "links": [[c.parent, c.region[0]] for c in islice(contexts, 1, None)],
        }

    @classmethod
    def from_state(cls, state):
        """Rebuild from ``state_dict``, making each context from its link.

        Raises ``BadConfig`` unless each link is a pair of ints (no float
        or bool stands in for one) whose parent is an earlier context
        above ``max_depth``, whose symbol is in the alphabet, and which
        no earlier link holds.
        """
        cover = cls(state["alphabet_size"], state["max_depth"])
        contexts, kids = cover.contexts, cover._kids
        for link in state["links"]:
            if type(link) is not list or len(link) != 2:
                raise BadConfig(f"suffix link {link!r} is not a pair [parent, symbol]")
            if not all(type(v) is int for v in link):
                raise BadConfig(f"suffix link {link} holds a parent or symbol that is not an int")
            parent, s = link
            if (
                not 0 <= parent < len(contexts)
                or contexts[parent].depth >= cover.max_depth
                or not 0 <= s < cover.alphabet_size
                or s in kids[parent]
            ):
                raise BadConfig(f"suffix link {link} cannot follow the ones before it")
            ctx = contexts[parent]
            cover._new_context(ctx.depth + 1, (s,) + ctx.region, parent)
        return cover


def upgrade_cover_state(state):
    """A cover's state as snapshot versions 3 to 5 wrote it, as version
    6 holds it: a suffix cover's ``suffixes`` become ``links``, and any
    other state is returned as it is.

    Raises ``BadConfig`` unless the root's empty suffix comes first and
    every other suffix holds only ints and follows its parent (the
    suffix without its oldest symbol); ``from_state`` checks the rest.
    """
    if not isinstance(state, dict) or state.get("kind") != "suffix":
        return state
    suffixes = state["suffixes"]
    if not suffixes or suffixes[0]:
        raise BadConfig("the first suffix context must be the root")
    ids, links = {(): 0}, []
    for cid, suffix in enumerate(suffixes[1:], 1):
        suffix = tuple(suffix)
        if not all(type(s) is int for s in suffix):
            raise BadConfig(f"suffix context {list(suffix)} holds a symbol that is not an int")
        parent = ids.get(suffix[1:])
        if not suffix or parent is None:
            raise BadConfig(f"suffix context {list(suffix)} cannot follow the ones before it")
        ids[suffix] = cid
        links.append([parent, suffix[0]])
    rest = {key: value for key, value in state.items() if key != "suffixes"}
    return {**rest, "links": links}


def cover_from_state(state):
    kind = state.get("kind") if isinstance(state, dict) else None
    if kind == "kdtree":
        return KdTreeCover.from_state(state)
    if kind == "suffix":
        return SuffixTreeCover.from_state(state)
    raise BadConfig(f"unknown cover kind {kind!r}")

