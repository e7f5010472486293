"""Cover geometry and refinement bookkeeping."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covermodels import (
    BadConfig,
    Box,
    DepthLimitExceeded,
    KdTreeCover,
    QueryOutOfRootRegion,
    SuffixTreeCover,
    UnknownSymbol,
    cover_from_state,
)


class TestBox:
    def test_contains_half_open(self):
        b = Box([0.0, 0.0], [1.0, 2.0])
        assert b.contains([0.0, 0.0])
        assert b.contains([0.999, 1.999])
        assert not b.contains([1.0, 0.5])
        assert b.contains([1.0, 2.0], closed=True)

    def test_volume_and_split(self):
        b = Box([0.0, 0.0], [1.0, 4.0])
        assert b.volume() == 4.0
        d, mid, (lo, hi) = b.split_largest()
        assert d == 1 and mid == 2.0
        assert lo.volume() == hi.volume() == 2.0
        # largest-side ties break toward the lowest dimension
        d2, _, _ = Box([0, 0], [1, 1]).split_largest()
        assert d2 == 0

    def test_clamp(self):
        b = Box([0.0], [1.0])
        assert b.clamp([2.0])[0] == 1.0
        assert b.clamp([-1.0])[0] == 0.0
        assert b.contains(b.clamp([2.0]), closed=True)

    def test_degenerate_rejected(self):
        with pytest.raises(BadConfig):
            Box([0.0], [0.0])


class TestKdTreeCover:
    def test_threshold_schedule(self):
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0)
        assert cov.threshold(1) == 2.0
        assert cov.threshold(3) == 8.0

    def test_split_cascade_and_routing(self):
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = rng.uniform(0, 1, size=1)
            cov.observe_and_refine(cov.prepare_query(x), None)
        assert cov.refinement_depth >= 2
        # every line of descent halves the box and matches the query
        q = cov.prepare_query([0.3])
        for cid in cov.match_levels(q):
            assert cov.contexts[cid].region.contains(q)

    def test_split_events_carry_blocks(self):
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0)
        events = []
        for x in [0.1, 0.2, 0.8]:
            events += cov.observe_and_refine(cov.prepare_query([x]), [10 * x])
        # threshold at depth 1 is 2, so the third point triggers the split
        assert len(events) == 1
        parent, kids = events[0]
        assert parent == cov.root_id
        moved = sorted(float(x[0]) for _, blk in kids for x, _ in blk)
        assert moved == [0.1, 0.2, 0.8]
        # the y payload rides along with its x
        for _, blk in kids:
            for x, y in blk:
                assert y[0] == 10 * x[0]

    def test_outside_query_clamped_or_rejected(self):
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0)
        q = cov.prepare_query([5.0])
        assert cov.root_box.contains(q, closed=True)
        assert cov.match_levels(q)  # clamped point still routes
        strict = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, on_outside="reject")
        with pytest.raises(QueryOutOfRootRegion):
            strict.prepare_query([5.0])

    def test_prepared_values_are_plain_floats(self):
        """A prepared query is a tuple of floats, inside the box, clamped
        into it or on its closed upper face, and a buffered pair is a
        tuple of two float tuples."""
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 2.0]), alpha=2.0)
        for raw, want in [
            (np.array([0.25, 1.5]), (0.25, 1.5)),
            ([3.0, -1.0], (1.0, 0.0)),
            ((1.0, 2.0), (1.0, 2.0)),
        ]:
            q = cov.prepare_query(raw)
            assert type(q) is tuple and q == want
            assert all(type(v) is float for v in q)
        for i in range(5):
            cov.observe_and_refine(cov.prepare_query([0.1 * i, 0.3]), np.array([float(i)]))
        pairs = [pair for buf in cov._buffer.values() for pair in buf]
        assert len(pairs) == 5
        for pair in pairs:
            assert type(pair) is tuple and all(type(part) is tuple for part in pair)
            assert all(type(v) is float for part in pair for v in part)

    def test_box_bounds_are_float_tuples(self):
        b = Box(np.array([0.0, 1.0]), [2, 3])
        assert (b.lower, b.upper) == ((0.0, 1.0), (2.0, 3.0))
        assert all(type(v) is float for v in b.lower + b.upper + b.center)
        assert repr(b) == "Box([0.0, 1.0], [2.0, 3.0])"

    def test_depth_cap(self):
        cov = KdTreeCover(Box([0.0], [1.0]), alpha=2.0, max_depth=2)
        lo, _ = cov.split_leaf(cov.root_id)
        with pytest.raises(DepthLimitExceeded):
            cov.split_leaf(lo)

    def test_state_round_trip(self):
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=2.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            cov.observe_and_refine(cov.prepare_query(rng.uniform(0, 1, size=2)), None)
        clone = cover_from_state(cov.state_dict())
        assert clone.n_contexts == cov.n_contexts
        assert clone.refinement_depth == cov.refinement_depth
        q = clone.prepare_query([0.7, 0.1])
        assert clone.match_levels(q) == cov.match_levels(q)
        # buffered points survive, so growth continues identically
        for _ in range(10):
            x = cov.prepare_query(rng.uniform(0, 1, size=2))
            cov.observe_and_refine(x, None)
            clone.observe_and_refine(x, None)
        assert clone.n_contexts == cov.n_contexts

    def test_buffered_points_are_checked_as_one_point_at_a_time_would(self):
        """A load checks each leaf's buffer a column at a time; every
        single-value edit of a buffer is refused, naming the point, or
        accepted exactly as the point-by-point check decides."""
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=2.0, max_depth=4)
        rng = np.random.default_rng(5)
        for x in [*rng.uniform(0, 1, size=(30, 2)), [1.0, 1.0], [0.5, 1.0]]:
            cov.observe_and_refine(cov.prepare_query(x), [float(rng.uniform())])
        state = cov.state_dict()
        for key, flat in state["buffers"].items():
            for pos in range(len(flat)):
                for value in [-0.5, 2.0, float("nan"), 1.0, 0.5, 0.0, 1, True, "0.5"]:
                    edited = copy.deepcopy(state)
                    edited["buffers"][key][pos] = value
                    assert load_outcome(edited) == reference_outcome(edited, cov), (key, pos, value)


def reference_outcome(state, cov):
    """What a point-by-point check of every buffer makes of ``state``:
    the message of the first point that does not fit, else the loaded
    buffers; TypeError for a value that does not compare."""
    dim, top = len(state["root_lower"]), state["root_upper"]
    width = dim + state["y_dim"]
    buffers = {}
    try:
        for key, flat in state["buffers"].items():
            box, buf = cov.contexts[int(key)].region, []
            for i in range(0, len(flat), width):
                x, y = flat[i:i + dim], flat[i + dim:i + width]
                for lo, v, hi, t in zip(box.lower, x, box.upper, top):
                    if not (lo <= v < hi or v == hi == t):
                        return f"buffered x {x} outside its leaf {box!r}"
                if any(type(v) is not float for v in y):
                    return f"buffered y {y} in leaf {key} is not all floats"
                buf.append((tuple(x), tuple(y)))
            buffers[int(key)] = buf
    except TypeError:
        return TypeError
    return buffers


def load_outcome(state):
    try:
        return cover_from_state(state)._buffer
    except BadConfig as exc:
        return str(exc)
    except TypeError:
        return TypeError


def extend(cov, history):
    """Materialise a history's suffix chain, walking it from the root."""
    return cov.extend(cov.prepare_query(history), [cov.root_id])


class TestSuffixTreeCover:
    def test_match_walks_materialized_chain(self):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=3)
        path, new = extend(cov, (0, 1))
        assert len(path) == 3 and len(new) == 2
        assert cov.match_levels(cov.prepare_query((0, 1))) == path

    def test_suffix_identity(self):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=3)
        extend(cov, (1, 0))
        # (0, 1, 0) shares the suffix chain of (1, 0)
        path = cov.match_levels(cov.prepare_query((0, 1, 0)))
        regions = [cov.contexts[cid].region for cid in path]
        assert regions == [(), (0,), (1, 0)]

    def test_extend_is_idempotent(self):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=4)
        extend(cov, (1, 1, 0))
        n = cov.n_contexts
        _, new = extend(cov, (0, 1, 1, 0))
        assert cov.n_contexts == n and new == []
        # a start shorter than the existing chain reuses it too
        path, new = cov.extend((0, 1, 1, 0), cov.match_levels((0, 1, 1, 0))[:2])
        assert new == [] and path == cov.match_levels((0, 1, 1, 0))
        assert cover_from_state(cov.state_dict()).n_contexts == n

    def test_extend_makes_only_the_levels_below_the_matched_path(self):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=4)
        extend(cov, (1, 0))
        matched = cov.match_levels((0, 1, 0))
        path, new = cov.extend((0, 1, 0), matched)
        assert len(matched) == 3 and path[:3] == matched
        assert [cov.contexts[cid].region for cid in new] == [(0, 1, 0)]
        assert path[3:] == new and cov.contexts[new[0]].parent == matched[-1]

    def test_depth_capped_by_history(self):
        cov = SuffixTreeCover(alphabet_size=3, max_depth=5)
        path, _ = extend(cov, (2,))
        assert len(path) == 2  # root plus one symbol of history

    @pytest.mark.parametrize("symbol", [1.0, True])
    def test_load_refuses_a_suffix_symbol_that_is_not_an_int(self, symbol):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=3)
        extend(cov, (0, 1))
        state = cov.state_dict()
        assert state["suffixes"] == [[], [1], [0, 1]]
        state["suffixes"][1] = [symbol]
        state["suffixes"][2] = [0, symbol]
        with pytest.raises(BadConfig, match="not an int"):
            cover_from_state(state)

    def test_state_round_trip(self):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=3)
        extend(cov, (0, 0))
        extend(cov, (1, 0))
        clone = cover_from_state(cov.state_dict())
        assert clone.n_contexts == cov.n_contexts
        q = clone.prepare_query((1, 0))
        assert clone.match_levels(q) == cov.match_levels(q)

    @pytest.mark.parametrize(
        "history",
        [
            [0, 1.5, "2"],
            [True, 2.9],
            ["1"],
            [np.float64(0.5)],
            [2, 2, 1.5],
            [None],
            [float("nan")],
            [float("inf")],
            [0, 3],
            [-1],
        ],
        ids=repr,
    )
    def test_a_symbol_that_as_symbol_refuses_is_refused(self, history):
        """The cover once read int(s) for every symbol, so 1.5 and "2"
        matched the contexts of 1 and 2."""
        with pytest.raises(UnknownSymbol):
            SuffixTreeCover(3, 4).prepare_query(history)

    @pytest.mark.parametrize(
        "history,want",
        [
            ((0, 1, 2), (0, 1, 2)),
            ([2.0, np.int64(1), True], (2, 1, 1)),
            (np.array([1, 0, 2, 2]), (0, 2, 2)),
            ([1.5, "x", 0, 1, 2], (0, 1, 2)),  # never read: older than max_depth - 1
        ],
    )
    def test_only_the_symbols_a_match_reads_are_kept(self, history, want):
        got = SuffixTreeCover(3, 4).prepare_query(history)
        assert got == want and all(type(s) is int for s in got)


def reference_levels(cov, h):
    """Ids of the contexts whose region is h[len(h)-k:], k = 0, 1, ...,
    while such a context exists: the chain ``match_levels`` must find."""
    by_region = {ctx.region: cid for cid, ctx in cov.contexts.items()}
    out = []
    for k in range(len(h) + 1):
        cid = by_region.get(tuple(h[len(h) - k:]))
        if cid is None:
            break
        out.append(cid)
    return out


def check_child_index(cov, histories):
    """The child index holds one entry per context but the root, each
    from a context's parent and oldest symbol to it, and every history
    matches its reference chain."""
    entries = {
        (parent, sym): child for parent, kids in enumerate(cov._kids) for sym, child in kids.items()
    }
    assert sum(map(len, cov._kids)) == len(entries) == cov.n_contexts - 1
    assert len(cov._kids) == cov.n_contexts
    assert entries == {
        (ctx.parent, ctx.region[0]): cid for cid, ctx in cov.contexts.items() if cid != cov.root_id
    }
    for h in histories:
        assert cov.match_levels(tuple(h)) == reference_levels(cov, h)
        assert cov.match_levels(cov.prepare_query(h)) == reference_levels(cov, h)


def grow(cov, stream):
    """Extend the cover along every prefix of stream, as an observe does."""
    for t in range(len(stream) + 1):
        h = cov.prepare_query(stream[:t])
        cov.extend(h, cov.match_levels(h))


STREAM = st.lists(st.integers(0, 3), max_size=40)


@given(
    alphabet=st.integers(2, 4),
    max_depth=st.integers(1, 8),
    first=STREAM,
    second=STREAM,
    probes=st.lists(STREAM, max_size=5),
)
def test_the_child_index_matches_the_suffix_regions(alphabet, max_depth, first, second, probes):
    """Fresh, extended, copied-then-extended and reloaded covers all find
    the chain of contexts whose regions are a history's suffixes."""
    first, second = [s % alphabet for s in first], [s % alphabet for s in second]
    probes = [[s % alphabet for s in p] for p in probes]
    histories = [first[:t] for t in range(len(first) + 1)]
    histories += [second[:t] for t in range(len(second) + 1)] + probes
    cov = SuffixTreeCover(alphabet, max_depth)
    check_child_index(cov, histories)
    grow(cov, first)
    check_child_index(cov, histories)
    state = cov.state_dict()
    clone = cov.copy()
    grow(clone, second)
    check_child_index(clone, histories)
    assert cov.state_dict() == state  # the copy grew apart from its original
    check_child_index(cov, histories)
    loaded = cover_from_state(state)
    assert loaded.state_dict() == state
    check_child_index(loaded, histories)
    for h in histories:
        assert loaded.match_levels(tuple(h)) == cov.match_levels(tuple(h))


@pytest.mark.parametrize("value", [math.inf, 2.5])
@pytest.mark.parametrize(
    "kind,key", [("kd", "max_depth"), ("suffix", "max_depth"), ("suffix", "alphabet_size")]
)
def test_load_refuses_a_size_that_is_not_a_whole_number(kind, key, value):
    """A size is checked as the constructor checks it: an infinite one
    raised ``OverflowError`` and 2.5 loaded as 2."""
    if kind == "kd":
        cov = KdTreeCover(Box([0.0], [1.0]), max_depth=3)
    else:
        cov = SuffixTreeCover(alphabet_size=2, max_depth=3)
        extend(cov, (0, 1))
    state = cov.state_dict()
    state[key] = value
    with pytest.raises(BadConfig, match="whole number"):
        cover_from_state(state)


class TestGrowthProtocol:
    """Each cover answers the engine's growth questions itself: the
    suffix cover makes contexts and truncates, the kd cover keeps points
    and splits, and each inherits a default that grows nothing for the
    other way."""

    @pytest.mark.parametrize("max_depth", [1, 2, 5])
    def test_a_suffix_cover_truncates_only_above_max_depth(self, max_depth):
        cov = SuffixTreeCover(alphabet_size=2, max_depth=max_depth)
        got = [cov.truncates(depth) for depth in range(1, max_depth + 1)]
        assert got == [True] * (max_depth - 1) + [False]

    @pytest.mark.parametrize("max_depth", [1, 2, 5])
    def test_a_kd_cover_never_truncates(self, max_depth):
        cov = KdTreeCover(Box([0.0], [1.0]), max_depth=max_depth)
        assert not any(cov.truncates(depth) for depth in range(1, max_depth + 1))

    def test_a_kd_cover_extends_nothing(self):
        cov = KdTreeCover(Box([0.0, 0.0], [1.0, 1.0]), alpha=1.5, max_depth=6)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, size=(20, 2)):
            cov.observe_and_refine(cov.prepare_query(x), [0.5])
        assert cov.n_contexts > 1
        state = cov.state_dict()
        x = cov.prepare_query([0.3, 0.7])
        path = cov.match_levels(x)
        given = path[:]
        out, made = cov.extend(x, path)
        assert out == given and path == given and made == []
        assert cov.state_dict() == state

    def test_a_suffix_cover_keeps_no_points_and_never_splits(self):
        cov = SuffixTreeCover(alphabet_size=3, max_depth=4)
        extend(cov, (0, 2, 1))
        state = cov.state_dict()
        h = cov.prepare_query((1, 0, 2, 1))
        assert cov.observe_and_refine(h, 2) == []
        assert cov.observe_and_refine(h, 2, cov.match_levels(h)[-1]) == []
        assert cov.leaf_ys() is None
        assert cov.state_dict() == state
