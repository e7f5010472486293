"""Suffix-context sequence model against hand values and a reference mixer."""

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_version
from covermodels import (
    BadConfig,
    CtwOracle,
    DirichletMultinomial,
    SuffixTreeCover,
    TooLargeToEnumerate,
    UnknownSymbol,
    VmmModel,
    ctw_logprob,
    gen_markov,
)
from covermodels.methods import VmmMethod
from covermodels.vmm import _resolve_prior


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


    @pytest.mark.parametrize("depth", [5, 16, 1000])
    def test_an_oracle_with_too_many_prunings_is_refused(self, depth):
        """A binary suffix tree of depth 5 has 1 + 677**2 prunings, over
        the cap; the count is not taken deeper, where its digits double
        with each depth (at depth 16 they are too many to print)."""
        want = f"^458330 prunings at depth 5 of {depth} exceed cap 100000$"
        with pytest.raises(TooLargeToEnumerate, match=want):
            CtwOracle(2, depth)

    @pytest.mark.parametrize("concentration", [0.0, -0.5, math.nan, math.inf])
    def test_a_concentration_the_model_refuses_the_oracle_refuses(self, concentration):
        """The oracle raised ``ZeroDivisionError`` at 0 and -0.5 and
        returned NaN at NaN and inf; it now takes the model's rule."""
        with pytest.raises(BadConfig, match="concentration"):
            ctw_logprob([0, 1, 1], 2, 1, concentration)
        with pytest.raises(BadConfig, match="concentration"):
            CtwOracle(2, 1, concentration)
        with pytest.raises(BadConfig, match="concentration"):
            VmmModel(2, 2, prior=concentration)
        with pytest.raises(BadConfig, match="concentration"):
            _resolve_prior(concentration)

    @pytest.mark.parametrize("bad", [1.5, "1", 2], ids=repr)
    def test_the_oracle_refuses_a_symbol_the_model_refuses(self, bad):
        """The oracle read every symbol through ``int()``, so 1.5 and
        "1" scored as 1; it now takes the model's ``as_symbol``."""
        with pytest.raises(UnknownSymbol):
            ctw_logprob([0, bad, 1], 2, 1)
        with pytest.raises(UnknownSymbol):
            VmmModel(2, 2).observe(bad)

    @pytest.mark.parametrize("one", [1.0, np.int64(1)], ids=repr)
    def test_the_oracle_takes_a_symbol_the_model_takes(self, one):
        assert ctw_logprob([0, one, 1], 2, 1) == ctw_logprob([0, 1, 1], 2, 1)

    def test_stop_weight_one_is_a_lone_kt_estimator(self):
        """At stop weight 1 every walk stops at the root, whose log(1 -
        w0) is log1mexp(0) = -inf: the returns are a lone KT local's
        updates, bit for bit, and the mixer's one pruning agrees."""
        seq = gen_markov(300, seed=1)
        model, kt = VmmModel(2, 5, stop_weight=1.0), DirichletMultinomial(2, 0.5)
        got = [model.observe(s) for s in seq]
        assert got == [kt.update(s) for s in seq]
        assert sum(got) == model.posterior.log_evidence == -189.60114798505322
        want = ctw_logprob(seq, alphabet_size=2, max_context=4, stop_weight=1.0)
        assert sum(got) == pytest.approx(want, abs=1e-9)


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

    @pytest.mark.parametrize(
        "symbol", [1.5, np.float64(2.7), "1", float("nan"), float("inf"), None]
    )
    def test_a_symbol_that_is_not_an_integer_is_refused_before_any_change(self, symbol):
        m = VmmModel(alphabet_size=3, depth=3)
        m.fit_sequence([0, 2, 1, 1])
        before = m.to_text()
        with pytest.raises(UnknownSymbol):
            m.observe(symbol)
        assert m.to_text() == before

    def test_integral_floats_are_their_symbols(self):
        """A float data column holds symbols as 2.0, 1.0, ..."""
        seq = [2, 0, 1, 1, 2]
        as_ints, as_floats = VmmModel(3, 3), VmmModel(3, 3)
        assert as_ints.fit_sequence(seq) == as_floats.fit_sequence(
            [float(s) if k % 2 else np.float64(s) for k, s in enumerate(seq)]
        )
        assert as_ints.to_text() == as_floats.to_text()

    def test_the_method_passes_raw_symbols_to_the_check(self):
        method = VmmMethod(alphabet_size=3, depth=3)
        method.begin(0)
        method.observe(None, np.array([2.0]))
        with pytest.raises(UnknownSymbol):
            method.observe(None, np.array([1.5]))
        with pytest.raises(UnknownSymbol):
            method.holdout_loglik(None, np.array([[1.0], [0.5]]))
        assert method.n_absorbed == 1

    def test_generate_roundtrips_through_observe(self):
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1])
        out1 = m.generate(20, np.random.default_rng(5))
        out2 = m.generate(20, np.random.default_rng(5))
        assert out1 == out2  # same seed, same stream
        assert all(s in (0, 1) for s in out1)
        # generation must not disturb the fitted model
        assert m.context == (0, 0, 1)[-2:]


class TestSampling:
    """``sample_y`` draws from the predictive it would score, both where
    the matched path stops short of ``max_depth`` and a virtual
    continuation is mixed in, and where it reaches ``max_depth``."""

    @pytest.mark.parametrize("n_history", [1, 3])
    def test_draws_match_next_symbol_probs(self, n_history):
        from scipy.stats import chisquare

        rng = np.random.default_rng(25)
        m = VmmModel(alphabet_size=3, depth=4)
        # a short noisy run of 0 1 1 leaves the stop posteriors undecided
        m.fit_sequence([s if rng.uniform() < 0.9 else int(rng.integers(3)) for s in [0, 1, 1] * 7])
        tail = m.context[-n_history:]
        m.history.clear()
        m.history.extend(tail)
        post = m.posterior
        path = [row["cid"] for row in post.psi_table(m.context, 0)[0] if row["cid"] is not None]
        if n_history == 1:
            # the virtual continuation takes a fair share of the mass
            assert len(path) < post.cover.max_depth
            assert 0.2 < post.stop_posterior(path[-1]) < 0.8
        else:
            assert len(path) == post.cover.max_depth
        probs = np.exp(m.next_symbol_logprobs())
        n = 4000
        draws = [int(post.sample_y(m.context, rng)) for _ in range(n)]
        counts = np.bincount(draws, minlength=3)
        _, pval = chisquare(counts, probs * n)
        assert pval > 1e-4


class TestGenerate:
    @pytest.mark.parametrize("n", [2.5, -3, math.nan, math.inf, "3"], ids=repr)
    def test_a_count_that_is_not_a_size_is_refused(self, n):
        """``generate(2.5)`` drew 2 symbols, ``generate(-3)`` none and
        ``generate(nan)`` raised a bare ``ValueError``."""
        m = VmmModel(2, 3)
        m.fit_sequence([0, 1, 1, 0])
        with pytest.raises(BadConfig, match="whole number"):
            m.generate(n, np.random.default_rng(0))

    @pytest.mark.parametrize("n,want", [(0, 0), (3.0, 3), (np.int64(4), 4)], ids=repr)
    def test_a_whole_count_draws_that_many(self, n, want):
        m = VmmModel(2, 3)
        m.fit_sequence([0, 1, 1, 0])
        before = m.to_text()
        out = m.generate(n, np.random.default_rng(0))
        assert len(out) == want and set(out) <= {0, 1}
        assert m.to_text() == before


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

    def test_symbol_count_survives_save_load_save(self):
        m = VmmModel(alphabet_size=2, depth=4)
        m.fit_sequence(np.random.default_rng(8).integers(2, size=100))
        text = m.to_text()
        assert json.loads(text.partition("\n")[0])["n_seen"] == 100
        m2 = VmmModel.from_text(text)
        assert m2.n_seen == 100
        assert m2.to_text() == text

    @pytest.mark.parametrize("key,value", [("concentration", 5.0), ("stop_weight", 0.9)])
    def test_a_header_that_disagrees_with_its_posterior_is_refused(self, key, value):
        """Contexts made after a restore take their prior from the header."""
        m = VmmModel(alphabet_size=3, depth=3)
        m.fit_sequence([0, 1, 2, 2, 1, 0, 1])
        head, _, rest = m.to_text().partition("\n")
        meta = json.loads(head)
        meta[key] = value
        with pytest.raises(BadConfig):
            VmmModel.from_text(json.dumps(meta) + "\n" + rest)

    @pytest.mark.parametrize("n_seen,n_obs", [(5.9, 5.9), (5.9, 5), (5, 5.9), (5.0, 5.9)])
    def test_a_symbol_count_that_is_not_a_whole_number_is_refused(self, n_seen, n_obs):
        """Counts of 5.9 once loaded as 5; 5.0 in both loads as 5."""
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 1, 1, 0, 1])
        text = m.to_text()

        def edited(n_seen, n_obs):
            head, posterior, rest = text.split("\n", 2)
            head = json.dumps({**json.loads(head), "n_seen": n_seen}, sort_keys=True)
            posterior = json.dumps({**json.loads(posterior), "n_obs": n_obs}, sort_keys=True)
            return "\n".join([head, posterior, rest])

        whole = VmmModel.from_text(edited(5.0, 5.0))
        assert whole.n_seen == 5 and type(whole.n_seen) is int
        assert whole.to_text() == text
        with pytest.raises(BadConfig, match="must be a whole number"):
            VmmModel.from_text(edited(n_seen, n_obs))

    @pytest.mark.parametrize("key", ["depth", "alphabet_size"])
    def test_an_infinite_header_size_is_refused(self, key):
        """It raised ``OverflowError``, which no caller expects."""
        m = VmmModel(alphabet_size=2, depth=3)
        m.fit_sequence([0, 1, 1, 0])
        head, _, rest = m.to_text().partition("\n")
        meta = json.loads(head)
        meta[key] = math.inf
        with pytest.raises(BadConfig, match="whole number"):
            VmmModel.from_text(json.dumps(meta) + "\n" + rest)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["log_m", "log_trunc", "log_evidence"])
    def test_a_log_number_that_is_not_finite_is_refused(self, key, value):
        """No model writes one; a NaN log_m once loaded and made the log
        marginal likelihood NaN, and an infinite one moved the next
        symbol's probabilities."""
        m = VmmModel(2, 3)
        m.fit_sequence([0, 1, 1, 0, 1, 1, 1, 0])
        head, posterior, *records = m.to_text().splitlines()
        if key == "log_evidence":
            meta = json.loads(posterior)
            meta[key] = value
            posterior = json.dumps(meta, sort_keys=True)
        else:
            row = json.loads(records[1])  # [cid, w0, log_m, log_trunc, state]
            row[2 if key == "log_m" else 3] = value
            records[1] = json.dumps(row, sort_keys=True)
        with pytest.raises(BadConfig, match="not finite"):
            VmmModel.from_text("\n".join([head, posterior, *records]) + "\n")


def test_history_keeps_only_the_context_window():
    m = VmmModel(alphabet_size=3, depth=4)
    seq = np.random.default_rng(6).integers(3, size=500).tolist()
    m.fit_sequence(seq)
    assert len(m.history) <= m.depth - 1
    assert m.context == tuple(seq[-3:])
    assert m.n_seen == 500


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


PRIORS = st.sampled_from(["kt", "laplace", 0.3])


@given(
    alphabet=st.integers(2, 5),
    depth=st.integers(1, 6),
    prior=PRIORS,
    stream=st.lists(st.integers(0, 4), max_size=40),
)
def test_next_symbol_logprobs_are_the_one_symbol_predictives(alphabet, depth, prior, stream):
    """The one-match query of every symbol equals one predict per
    symbol, bit for bit, after every observation."""
    m = VmmModel(alphabet, depth, prior=prior)
    for s in [None] + stream:
        if s is not None:
            m.observe(s % alphabet)
        got = m.next_symbol_logprobs()
        for a in range(alphabet):
            assert got[a] == m.posterior.predict_logdensity(m.context, a)


@pytest.mark.parametrize("version", [5, 6])
def test_load_refuses_a_float_suffix_symbol(version):
    """A suffix symbol 1.9 once loaded as 1, truncated, and the model
    predicted as if nothing had been edited: in a version-5 suffix or a
    version-6 link."""
    m = VmmModel(2, 3)
    m.fit_sequence([0, 1, 1, 0, 1])
    text = m.to_text() if version == 6 else as_version(m.to_text(), 5)
    head, posterior, rest = text.split("\n", 2)
    meta = json.loads(posterior)
    key = "links" if version == 6 else "suffixes"
    meta["cover"][key] = [[1.9 if s == 1 else s for s in suf] for suf in meta["cover"][key]]
    edited = "\n".join([head, json.dumps(meta, sort_keys=True), rest])
    with pytest.raises(BadConfig, match="not an int"):
        VmmModel.from_text(edited)


def test_snapshot_text_is_pinned():
    """The snapshot text of a fixed stream, recorded before the Dirichlet
    locals kept plain float counts and the engine cached log w0, again
    for snapshot format 4, which changed only its version field, and
    again for snapshot format 5, which writes the Dirichlet prior once
    in the header instead of in every record; nothing else moved.
    Snapshot format 6 writes rows, links and int counts: written back as
    format 5 (``as_version``), its text still has the recorded digest,
    and its own digest was recorded too."""
    m = VmmModel(3, 5)
    m.fit_sequence(gen_markov(500, seed=41, alphabet_size=3, order=2))
    text = m.to_text()
    digest = hashlib.sha256(as_version(text, 5).encode()).hexdigest()
    assert digest == "fcb9bb799dc54ddc11c06cf62d6a3b2ae201f0743d628313a56fe8867d5e9f2f"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "1ce11cba8803d4ee3ce9a46e6c398311f7076a8a55e5d17df8815f10cb03e040"


HOT_PATH_DIGESTS = {
    (2, 8): "7d4a083c9901b333b2a7e30592873b34478542474f08f0545169ef95b517f450",
    (3, 5): "31d36925452891f02a2ad71ae87b595e93fa0072d5da68e3e5f0f211dbbd9525",
}


@pytest.mark.parametrize("alphabet,depth", sorted(HOT_PATH_DIGESTS))
def test_hot_path_outputs_are_pinned(alphabet, depth):
    """Every value the VMM's hot path returns on a fixed stream, bit for
    bit: each ``observe`` return, each ``next_symbol_logprobs`` row,
    ``sequence_logprob`` of a held-out stream every 100 symbols and the
    final log evidence. Halfway through, the model goes through
    ``to_text``/``from_text`` and the stream continues on the reload.
    Recorded again when the predictive became one mixture over the
    path's stop weights, summed in another order: returns and rows moved
    by at most 8.9e-16, and the sums of 150 or more by at most 2.9e-14."""
    order = min(depth - 1, 3)
    seq = gen_markov(1000, seed=43, alphabet_size=alphabet, order=order)
    held = gen_markov(150, seed=44, alphabet_size=alphabet, order=order)
    m = VmmModel(alphabet, depth)
    out = []
    for t, s in enumerate(seq):
        if t == len(seq) // 2:
            m = VmmModel.from_text(m.to_text())
        out.append(m.observe(s))
        out.append(m.next_symbol_logprobs().tolist())
        if t % 100 == 99:
            out.append(m.sequence_logprob(held))
    out.append(m.posterior.log_marginal_likelihood())
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == HOT_PATH_DIGESTS[alphabet, depth]


def deepcopy_scoring(m, held, n, seed):
    """The reference path of ``sequence_logprob``, ``holdout_loglik`` and
    ``generate``: the same steps, each on a ``copy.deepcopy`` of m."""
    ref = copy.deepcopy(m)
    ref.history.clear()
    steps = [ref.observe(s) for s in held]
    ref = copy.deepcopy(m)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        s = int(ref.posterior.sample_y(ref.context, rng))
        ref.observe(s)
        draws.append(s)
    return float(sum(steps)), np.array(steps), draws


SYMBOLS = st.lists(st.integers(0, 3), max_size=60)


@given(
    alphabet=st.integers(2, 4),
    depth=st.integers(1, 6),
    train=SYMBOLS,
    held=SYMBOLS,
    n=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_scoring_on_a_copy_equals_the_deepcopy_path(alphabet, depth, train, held, n, seed):
    """``sequence_logprob``, ``VmmMethod.holdout_loglik`` and ``generate``
    return bit for bit what they return on a deep copy, and leave the
    model's snapshot text byte for byte as it was."""
    m = VmmModel(alphabet, depth)
    m.fit_sequence([s % alphabet for s in train])
    held = [s % alphabet for s in held]
    text = m.to_text()
    logprob, steps, draws = deepcopy_scoring(m, held, n, seed)
    assert m.to_text() == text

    assert m.sequence_logprob(held) == logprob
    assert m.to_text() == text
    method = VmmMethod(alphabet, depth)
    method.model = m
    got = method.holdout_loglik(None, np.array(held, dtype=float))
    assert got.tolist() == steps.tolist()
    assert m.to_text() == text
    assert m.generate(n, np.random.default_rng(seed)) == draws
    assert m.to_text() == text


@given(
    alphabet=st.integers(2, 4),
    depth=st.integers(1, 6),
    train=SYMBOLS,
    more=SYMBOLS,
    other=SYMBOLS,
)
def test_a_copy_and_its_original_learn_apart(alphabet, depth, train, more, other):
    """Observing into a copy leaves the original's snapshot text as it
    was, and the reverse; the copy learns what a deep copy would."""
    m = VmmModel(alphabet, depth)
    m.fit_sequence([s % alphabet for s in train])
    text = m.to_text()
    clone = m.copy()
    assert clone.to_text() == text

    more = [s % alphabet for s in more]
    ref = copy.deepcopy(m)
    assert clone.fit_sequence(more) == ref.fit_sequence(more)
    assert clone.to_text() == ref.to_text()
    assert m.to_text() == text

    clone_text = clone.to_text()
    m.fit_sequence([s % alphabet for s in other])
    assert clone.to_text() == clone_text


@pytest.mark.xfail(
    strict=True,
    reason="absorb adds the deepest context's predictive to log_trunc where psi "
    "mixed in the fresh local's, so after history.clear() the returns and the "
    "evidence disagree",
)
def test_returns_after_a_cleared_history_sum_to_the_evidence_delta():
    """Summed returns are the prequential evidence, also on a truncated
    path over trained contexts: here they sum to -8.2659 while the
    evidence moves by -7.8405."""
    seq = gen_markov(300, seed=0)
    m = VmmModel(2, 5)
    m.fit_sequence(seq)
    clone = m.copy()
    clone.history.clear()
    before = clone.posterior.log_marginal_likelihood()
    total = clone.fit_sequence(seq[:20])
    assert total == pytest.approx(clone.posterior.log_marginal_likelihood() - before, abs=1e-9)
