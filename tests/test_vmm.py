"""Suffix-context sequence model against hand values and a reference mixer."""

import math

import numpy as np
import pytest

from covermodels import CtwOracle, SuffixTreeCover, UnknownSymbol, VmmModel, ctw_logprob


def kt_steps(symbols, assignments):
    """Sequential KT product where symbol t is scored at node assignments[t]."""
    counts = {}
    total = 0.0
    for s, node in zip(symbols, assignments):
        c = counts.setdefault(node, [0, 0])
        total += math.log((c[s] + 0.5) / (c[0] + c[1] + 1.0))
        c[s] += 1
    return total


class TestHandValues:
    def test_steps_of_100_depth2(self):
        m = VmmModel(alphabet_size=2, depth=2)
        steps = [math.exp(m.observe(s)) for s in [1, 0, 0]]
        np.testing.assert_allclose(steps, [0.5, 0.375, 0.5], atol=1e-15)

    def test_total_100_depth2(self):
        m = VmmModel(alphabet_size=2, depth=2)
        assert m.sequence_logprob([1, 0, 0]) == pytest.approx(
            math.log(3 / 32), abs=1e-13
        )

    def test_total_00_depth2(self):
        m = VmmModel(alphabet_size=2, depth=2)
        assert m.sequence_logprob([0, 0]) == pytest.approx(
            math.log(5 / 16), abs=1e-13
        )

    def test_01_depth1_laplace(self):
        # no context at depth 1: a plain add-one symbol counter
        m = VmmModel(alphabet_size=2, depth=1, prior="laplace")
        assert m.sequence_logprob([0, 1]) == pytest.approx(
            math.log(1 / 6), abs=1e-13
        )

    def test_0110_by_explicit_pruning_sum(self):
        """Five-pruning mixture at context length 2, written out longhand.

        Nodes are suffix strings, most recent symbol first. Symbol t
        routes through its available history and is scored at the first
        pruning leaf on the way down, or where history runs out.
        """
        s = [0, 1, 1, 0]
        # per pruning: the node each of the four symbols lands on
        R = kt_steps(s, ["e", "e", "e", "e"])       # root only
        LL = kt_steps(s, ["e", "0", "1", "1"])      # both children leaves
        IL = kt_steps(s, ["e", "0", "1", "1"])      # left internal, truncated at 0
        LI = kt_steps(s, ["e", "0", "10", "11"])    # right internal
        II = kt_steps(s, ["e", "0", "10", "11"])
        want = (
            0.5 * math.exp(R)
            + 0.125 * (math.exp(LL) + math.exp(IL) + math.exp(LI) + math.exp(II))
        )
        assert want == pytest.approx(9 / 256, abs=1e-15)
        assert ctw_logprob(s, alphabet_size=2, max_context=2) == pytest.approx(
            math.log(want), abs=1e-12
        )
        m = VmmModel(alphabet_size=2, depth=3)
        assert m.sequence_logprob(s) == pytest.approx(math.log(want), abs=1e-12)


class TestReferenceMixer:
    """Model depth D must equal the reference mixer at context length D - 1."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_binary_random_sequences(self, depth):
        rng = np.random.default_rng(depth)
        oracle = CtwOracle(alphabet_size=2, depth=depth - 1)
        for _ in range(12):
            n = int(rng.integers(1, 14))
            seq = rng.integers(0, 2, size=n).tolist()
            m = VmmModel(alphabet_size=2, depth=depth)
            got = m.sequence_logprob(seq)
            want = oracle.sequence_logprob(seq)
            assert got == pytest.approx(want, abs=1e-12), seq

    def test_ternary(self):
        rng = np.random.default_rng(99)
        oracle = CtwOracle(alphabet_size=3, depth=2)
        for _ in range(8):
            seq = rng.integers(0, 3, size=10).tolist()
            m = VmmModel(alphabet_size=3, depth=3)
            assert m.sequence_logprob(seq) == pytest.approx(
                oracle.sequence_logprob(seq), abs=1e-12
            )

    def test_total_mass_over_short_strings(self):
        # the mixer is a proper distribution over fixed-length strings
        total = 0.0
        for code in range(2**6):
            seq = [(code >> k) & 1 for k in range(6)]
            total += math.exp(ctw_logprob(seq, alphabet_size=2, max_context=2))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestStreamingApi:
    def test_observe_matches_sequence_logprob(self):
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 2, size=30).tolist()
        m = VmmModel(alphabet_size=2, depth=3)
        total = sum(m.observe(s) for s in seq)
        fresh = VmmModel(alphabet_size=2, depth=3)
        assert total == pytest.approx(fresh.sequence_logprob(seq), abs=1e-12)

    def test_sequence_logprob_does_not_mutate(self):
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 1, 1, 0, 1])
        before = m.next_symbol_logprobs().copy()
        m.sequence_logprob([1, 1, 1, 0])
        np.testing.assert_array_equal(m.next_symbol_logprobs(), before)

    def test_next_symbol_probs_normalize(self):
        m = VmmModel(alphabet_size=4, depth=2)
        rng = np.random.default_rng(8)
        m.fit_sequence(rng.integers(0, 4, size=50).tolist())
        probs = np.exp(m.next_symbol_logprobs())
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_context_window(self):
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 1, 1, 0, 0, 1])
        assert m.context == (0, 1)  # most recent depth - 1 symbols

    def test_unknown_symbol(self):
        m = VmmModel(alphabet_size=2, depth=2)
        with pytest.raises(UnknownSymbol):
            m.observe(2)

    def test_generate_roundtrips_through_observe(self):
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1])
        out1 = m.generate(20, np.random.default_rng(5))
        out2 = m.generate(20, np.random.default_rng(5))
        assert out1 == out2  # same seed, same stream
        assert all(s in (0, 1) for s in out1)
        # generation must not disturb the fitted model
        assert m.context == (0, 0, 1)[-2:]


class TestSnapshot:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(21)
        m = VmmModel(alphabet_size=3, depth=3)
        m.fit_sequence(rng.integers(0, 3, size=60).tolist())
        m2 = VmmModel.from_text(m.to_text())
        np.testing.assert_array_equal(
            m2.next_symbol_logprobs(), m.next_symbol_logprobs()
        )
        for s in rng.integers(0, 3, size=20).tolist():
            assert m2.observe(s) == m.observe(s)

    def test_round_trip_keeps_scoring(self):
        m = VmmModel(alphabet_size=2, depth=2)
        m.fit_sequence([0, 1, 0, 1, 0])
        m2 = VmmModel.from_text(m.to_text())
        probe = [1, 0, 1]
        assert m2.sequence_logprob(probe) == m.sequence_logprob(probe)


def test_cover_reads_only_the_context_window(monkeypatch):
    """Per-symbol cost must not grow with the stream: the suffix cover
    gets at most depth-1 symbols of history, never the whole stream."""
    seen = []
    prepare = SuffixTreeCover.prepare_query

    def spy(self, history):
        seen.append(len(tuple(history)))
        return prepare(self, history)

    monkeypatch.setattr(SuffixTreeCover, "prepare_query", spy)
    m = VmmModel(alphabet_size=2, depth=4)
    rng = np.random.default_rng(3)
    m.fit_sequence(rng.integers(2, size=500))
    m.next_symbol_logprobs()
    m.generate(5, rng)
    assert max(seen) == m.depth - 1
