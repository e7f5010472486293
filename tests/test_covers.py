"""Cover geometry and refinement bookkeeping."""

import numpy as np
import pytest

from covermodels import (
    BadConfig,
    Box,
    DepthLimitExceeded,
    KdTreeCover,
    QueryOutOfRootRegion,
    SuffixTreeCover,
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

