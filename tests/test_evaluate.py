"""Streaming evaluation harness and the method adapters."""

from types import SimpleNamespace

import numpy as np
import pytest

from covermodels import evaluate
from covermodels import (
    BadConfig,
    CdeConfig,
    Dataset,
    EvalRecord,
    default_checkpoints,
    gen_markov,
    gen_mixture,
    read_records_csv,
    run_eval,
    write_records_csv,
)
from covermodels.methods import (
    ConstantMethod,
    CoverCdeMethod,
    GlobalNormalWishartMethod,
    KernelCdeMethod,
    VmmMethod,
)


class CountingMethod:
    """Protocol stub: counts calls, scores a constant."""

    name = "stub"

    def __init__(self):
        self.seen = 0
        self.prepared = []

    def begin(self, seed):
        self.begun = seed

    def observe(self, x, y):
        self.seen += 1

    def prepare(self, t):
        self.prepared.append(t)

    def holdout_loglik(self, x, y):
        return np.full(len(x), -1.5)


def tiny_dataset(n=40, seed=0):
    return gen_mixture(n, "gaussian", seed=seed)


class TestCheckpoints:
    def test_half_decades(self):
        assert default_checkpoints(10_000) == [100, 316, 1000, 3162, 10000]

    def test_always_ends_at_n(self):
        assert default_checkpoints(500)[-1] == 500
        assert default_checkpoints(50) == [50]

    def test_rejects_empty(self):
        with pytest.raises(BadConfig):
            default_checkpoints(0)


class TestRunEval:
    def test_happy_path(self):
        ds = tiny_dataset()
        m = CountingMethod()
        recs = run_eval(m, ds, ds.take(10), checkpoints=[10, 40], seed=3)
        assert [r.t for r in recs] == [10, 40]
        assert m.seen == 40 and m.prepared == [10, 40]
        assert all(r.loss == 1.5 for r in recs)
        assert all(r.seed == 3 for r in recs)
        assert m.begun == 3

    def test_checkpoint_past_stream_end(self):
        ds = tiny_dataset()
        with pytest.raises(BadConfig):
            run_eval(CountingMethod(), ds, ds, checkpoints=[10, 99])

    def test_timing_flag(self):
        ds = tiny_dataset()
        recs = run_eval(
            CountingMethod(), ds, ds, checkpoints=[40], record_timing=False
        )
        assert recs[0].us_per_update == 0.0
        recs = run_eval(CountingMethod(), ds, ds, checkpoints=[40])
        assert recs[0].us_per_update > 0.0

    def test_start_at_drops_passed_checkpoints(self):
        ds = tiny_dataset()
        m = CountingMethod()
        recs = run_eval(m, ds, ds, checkpoints=[10, 20, 40], start_at=20)
        assert [r.t for r in recs] == [40]
        assert m.seen == 20  # only the remainder was streamed

    def test_snapshot_callback_fires_once(self):
        ds = tiny_dataset()
        hits = []
        run_eval(
            CountingMethod(),
            ds,
            ds,
            checkpoints=[10, 40],
            snapshot_at=25,
            snapshot_cb=lambda m, t: hits.append(t),
        )
        assert hits == [25]

    def test_snapshot_at_resume_point(self):
        # resuming exactly at the snapshot row must still fire the callback
        ds = tiny_dataset()
        hits = []
        run_eval(
            CountingMethod(),
            ds,
            ds,
            checkpoints=[40],
            start_at=20,
            snapshot_at=20,
            snapshot_cb=lambda m, t: hits.append(t),
        )
        assert hits == [20]


    @pytest.mark.parametrize(
        "checkpoints, kw",
        [
            ([10, 20], {"start_at": 20}),  # no checkpoint after the start
            ([10, 40], {"snapshot_at": -1}),
            ([10, 40], {"snapshot_at": 41}),  # past the stream
            ([10, 20], {"snapshot_at": 30}),  # past the last checkpoint
            ([40], {"start_at": 20, "snapshot_at": 10}),  # before the start
        ],
    )
    def test_a_run_that_cannot_reach_its_rows_is_refused_before_it_starts(self, checkpoints, kw):
        ds = tiny_dataset()
        m = CountingMethod()
        hits = []
        cb = lambda m, t: hits.append(t)
        with pytest.raises(BadConfig):
            run_eval(m, ds, ds, checkpoints=checkpoints, snapshot_cb=cb, **kw)
        assert m.seen == 0 and hits == []


def _resumable_runs():
    """(adapter factory, train, holdout) for each adapter that resumes."""
    ds = tiny_dataset(60, seed=1)
    cfg = CdeConfig.from_data(ds.x, ds.y)
    seq = gen_markov(60, seed=4)
    sym = Dataset(np.zeros(len(seq)), np.asarray(seq, dtype=float))
    return [
        (lambda text=None: CoverCdeMethod(cfg, resume_text=text), ds, ds.take(10)),
        (lambda text=None: VmmMethod(2, 3, resume_text=text), sym, sym.take(20)),
    ]


@pytest.mark.parametrize("make, train, hold", _resumable_runs(), ids=["cover-cde", "vmm"])
class TestResume:
    def _snapshot(self, make, train, hold, at):
        grabbed = []
        run_eval(
            make(), train, hold, checkpoints=[at], snapshot_at=at,
            snapshot_cb=lambda m, t: grabbed.append(m.snapshot_text()),
        )
        return grabbed[0]

    def test_a_resumed_adapter_starts_at_its_own_row(self, make, train, hold):
        """With no ``start_at`` a resumed adapter absorbed the whole stream
        again on top of its snapshot's rows."""
        kw = dict(checkpoints=[20, 40, 60], record_timing=False, seed=2)
        full = run_eval(make(), train, hold, **kw)
        resumed = make(self._snapshot(make, train, hold, 30))
        assert run_eval(resumed, train, hold, **kw) == full[1:]
        assert resumed.n_absorbed == 60

    def test_a_resumed_run_times_only_the_rows_it_streams(self, make, train, hold, monkeypatch):
        """With a clock that moves 2**-20 s per row absorbed, a fresh run
        and one resumed at row 30 report the same µs per row at row 60:
        this run's time over this run's rows, not over all the rows the
        method holds."""
        clock = [0.0]
        monkeypatch.setattr(evaluate, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

        def ticking(method):
            observe = method.observe

            def step(x, y):
                clock[0] += 2.0**-20
                observe(x, y)

            method.observe = step
            return method

        kw = dict(checkpoints=[60], seed=2)
        fresh = run_eval(ticking(make()), train, hold, **kw)
        resumed = make(self._snapshot(make, train, hold, 30))
        again = run_eval(ticking(resumed), train, hold, **kw)
        assert again[0].us_per_update == fresh[0].us_per_update == 2.0**-20 * 1e6

    @pytest.mark.parametrize("start_at", [0, 20, 40])
    def test_a_start_at_other_than_the_adapters_count_is_refused(self, make, train, hold, start_at):
        resumed = make(self._snapshot(make, train, hold, 30))
        with pytest.raises(BadConfig, match="30 rows"):
            run_eval(resumed, train, hold, checkpoints=[60], start_at=start_at)
        assert resumed.n_absorbed == 30


class TestRecordsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        recs = [
            EvalRecord(100, "m", -1.2345678901234567, 17.25, 0),
            EvalRecord(316, "m", 0.1, 0.0, 4),
        ]
        p = tmp_path / "r.csv"
        write_records_csv(p, recs)
        back = read_records_csv(p)
        assert back == recs

    def test_header(self, tmp_path):
        p = tmp_path / "r.csv"
        write_records_csv(p, [])
        assert p.read_text().splitlines()[0] == "t,method,L_t,us_per_update,seed"


class TestMethodAdapters:
    def test_cover_cde_snapshot_resume(self):
        ds = tiny_dataset(60, seed=1)
        cfg = CdeConfig.from_data(ds.x, ds.y)
        m = CoverCdeMethod(cfg)
        m.begin(0)
        for i in range(30):
            m.observe(ds.x[i], ds.y[i])
        text = m.snapshot_text()
        resumed = CoverCdeMethod(cfg, resume_text=text)
        resumed.begin(0)
        assert resumed.n_absorbed == 30
        for i in range(30, 60):
            m.observe(ds.x[i], ds.y[i])
            resumed.observe(ds.x[i], ds.y[i])
        np.testing.assert_array_equal(
            m.holdout_loglik(ds.x[:5], ds.y[:5]),
            resumed.holdout_loglik(ds.x[:5], ds.y[:5]),
        )

    def test_kernel_method_refits_on_prepare(self):
        ds = tiny_dataset(80, seed=2)
        m = KernelCdeMethod(grid_size=3)
        m.begin(0)
        for i in range(40):
            m.observe(ds.x[i], ds.y[i])
        m.prepare(40)
        lps = m.holdout_loglik(ds.x[40:50], ds.y[40:50])
        assert np.all(np.isfinite(lps))
        assert m.reports and m.reports[-1]["t"] == 40

    def test_global_nw(self):
        ds = tiny_dataset(50, seed=3)
        m = GlobalNormalWishartMethod()
        m.begin(0)
        for i in range(50):
            m.observe(ds.x[i], ds.y[i])
        m.prepare(50)
        lps = m.holdout_loglik(ds.x[:10], ds.y[:10])
        assert np.all(np.isfinite(lps))

    def test_constant(self):
        m = ConstantMethod(density=0.5)
        m.begin(0)
        m.prepare(0)
        lps = m.holdout_loglik(np.zeros((4, 1)), np.zeros((4, 1)))
        np.testing.assert_allclose(lps, np.log(0.5))

    def test_vmm_method_over_symbol_stream(self):
        seq = gen_markov(200, seed=0)
        ds = Dataset(np.zeros(len(seq)), np.asarray(seq, dtype=float))
        m = VmmMethod(alphabet_size=2, depth=3)
        recs = run_eval(m, ds, ds.take(50), checkpoints=[100, 200])
        assert len(recs) == 2
        assert recs[1].loss < recs[0].loss + 0.2  # learning, not diverging
        # resume from its snapshot and keep scoring identically
        text = m.snapshot_text()
        r = VmmMethod(alphabet_size=2, depth=3, resume_text=text)
        r.begin(0)
        assert r.n_absorbed == 200
        np.testing.assert_array_equal(
            m.holdout_loglik(ds.x[:20], ds.y[:20]),
            r.holdout_loglik(ds.x[:20], ds.y[:20]),
        )
