"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass. It imports covermodels from
the ``src`` directory of the checkout it sits in, generates the pass's
inputs from ``--seed``, warms up on a throwaway model (which doubles as
a check against stored reference values), then runs the timed loop and
prints one JSON object of raw samples as its last stdout line.

The load is a closed loop: one caller, one thread, each call made after
the previous one returns.

    python3 bench/workload.py --workload cde-stream --seed 1 --launched 0
    python3 bench/workload.py --print-reference
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

import covermodels  # noqa: E402
from covermodels import CdeConfig, CdeModel, VmmModel, gen_markov, gen_mixture  # noqa: E402

# Stream lengths, sized so one pass takes 6–10 s at the reference host speed and
# every p99 has at least ten calls beyond it within one pass.
CDE_STREAM_N = 1000
CDE_QUERY_N = 1000
CDE_HOLDOUT_N = 1000
QUERY_ROUNDS = 2
QUERY_HOLDOUT_N = 500  # held-out points scored per round on cde-query
QUERY_SNAPSHOTS = 3  # save/load round trips per round
VMM_N = 1500
VMM_DEPTH = 8
VMM_ORDER = 3
VMM_HOLDOUT_N = 256
VMM_CHECKPOINTS = (94, 188, 375, 750, 1500)
# Save/load round trips at the end of the stream workloads; the small
# VMM snapshot takes milliseconds, so it gets more of them.
CDE_SNAPSHOTS = 4
VMM_SNAPSHOTS = 30
RELOAD_CHECK_N = 64

# The held-out sets come from a fixed seed, so holdout_nll compares like
# with like across workload seeds; the workload seed varies the training
# stream. The reference stream feeds the warm-up model.
EVAL_SEED = 1005_2263
REF_SEED = 2010
REF_CDE = (150, 50)
REF_VMM = (300, 64)
REF_RTOL = 1e-9
# Reference outputs of the warm-up streams, recorded with
# ``--print-reference`` at the commit that added this benchmark.
REFERENCE = {
    "cde": {"evidence": -153.35821559572614, "holdout_nll": 0.9006177669721178},
    "vmm": {"evidence": -126.11478195430446, "holdout_nll": 0.3638174487133802},
}


# Host speed calibration. A shared host's speed drifts by tens of percent,
# and by up to twofold for seconds at a time, more than any bound a
# benchmark could hold. Every CAL_EVERY_S the recorder times a fixed
# kernel of the same kinds of work as the program. Each call's time is
# scaled by CAL_REF_S over the median kernel time within CAL_WINDOW_S of
# the call, so times read as seconds on a host that runs the kernel in
# CAL_REF_S: a change to covermodels moves them, the host's drift mostly
# does not.
# A scale per pass would not do: a slow spell of a few seconds would
# move every call of the pass the same way, in or out of the spell.
CAL_EVERY_S = 0.2
CAL_WINDOW_S = 0.5
CAL_REF_S = 0.0065
_CAL_ARRAY = np.linspace(0.0, 1.0, 16)


def calibration_kernel():
    """About 6 ms of fixed work, mostly scipy ``logsumexp`` on tiny arrays
    (the program's largest single cost), with dict updates, ``math``
    calls and small JSON records."""
    d = {}
    acc = 0.0
    for i in range(60):
        k = i & 63
        d[k] = d.get(k, 0.0) + math.log1p(i)
        acc += float(logsumexp(_CAL_ARRAY[: 1 + (i & 7)]))
        acc -= math.lgamma(1.5 + (i & 7))
        acc += len(json.dumps({"i": i, "w": [acc, d[k]]}))
    return acc


class Recorder:
    """Times calls, counts attempts and failures, and collects checks.

    Calls are recorded as raw (start, end) pairs by kind; ``finish``
    scales them to the reference host speed (see ``CAL_REF_S``) into
    ``lat``, seconds per call in call order.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spans = {kind: [] for kind in ("update", "query", "eval", "save", "load")}
        self.lat = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = None
        self.busy_s = None
        self._cal_t = []
        self._cal_s = []
        self._next_cal = -math.inf
        self._t_start = None
        self.tick()

    def tick(self):
        """Time the calibration kernel when it is due.

        The kernel runs at times that differ from pass to pass. It frees
        all it allocates and the collector is off while it runs, so it
        does not move the program's garbage collections to other calls.
        """
        if time.perf_counter() < self._next_cal:
            return
        gc.disable()
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        gc.enable()
        self._cal_t.append(0.5 * (t0 + t1))
        self._cal_s.append(t1 - t0)
        self._next_cal = t1 + CAL_EVERY_S

    def scale_at(self, t):
        """Reference-speed factors at the times ``t``, interpolated between
        kernel runs; a run's factor uses the kernel times within
        ``CAL_WINDOW_S`` of it."""
        ct = np.asarray(self._cal_t)
        cs = np.asarray(self._cal_s)
        lo = np.searchsorted(ct, ct - CAL_WINDOW_S)
        hi = np.searchsorted(ct, ct + CAL_WINDOW_S, side="right")
        local = CAL_REF_S / np.array([np.median(cs[i:j]) for i, j in zip(lo, hi)])
        return np.interp(t, ct, local)

    def call(self, kind, fn, *args):
        """Run one API call and record its span under ``kind``.

        A call that raises or returns a non-finite value counts as
        failed; the loop goes on so the failure is counted, not fatal.
        """
        self.tick()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the benchmark must report, not stop
            self._fail(f"{fn.__name__}: {exc!r}")
            return None
        t1 = time.perf_counter()
        self.spans[kind].append((t0, t1))
        if isinstance(out, (float, np.ndarray)) and not np.all(np.isfinite(out)):
            self._fail(f"{fn.__name__} returned {out!r}")
        return out

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")

    def _fail(self, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def start(self, launched):
        """Open the timed loop; the tracer, if any, sees only this loop.

        ``launched`` is ``time.monotonic()`` when the pass process was
        started, so ``setup_s`` includes interpreter start and imports.
        Set-up is scaled by the median kernel time over the set-up.
        """
        self._next_cal = -math.inf
        self.tick()
        setup_raw = time.monotonic() - launched
        self.setup_s = setup_raw * CAL_REF_S / statistics.median(self._cal_s)
        self._t_start = time.perf_counter()
        if self.tracer:
            self.tracer.install()

    def finish(self):
        """Close the timed loop and scale every recorded time."""
        if self.tracer:
            self.tracer.uninstall()
        self._next_cal = -math.inf
        self.tick()
        self.lat = {kind: self.scaled(spans).tolist() for kind, spans in self.spans.items()}
        self.busy_s = sum(
            d
            for kind, spans in self.spans.items()
            for (t0, _), d in zip(spans, self.lat[kind])
            if t0 >= self._t_start
        )

    def scaled(self, spans):
        """Durations of (start, end) pairs at the reference host speed."""
        se = np.asarray(spans, dtype=float).reshape(-1, 2)
        return (se[:, 1] - se[:, 0]) * self.scale_at(se.mean(axis=1))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cde_model(train, holdout):
    x = np.vstack([train.x, holdout.x])
    y = np.vstack([train.y, holdout.y])
    return CdeModel(CdeConfig.from_data(x, y, alpha=2.0))


def cde_reference(tick=lambda: None):
    """Prequential evidence and held-out NLL of the CDE warm-up stream.

    ``tick`` is called between calls; a pass uses it to time the
    calibration kernel during set-up.
    """
    n, m = REF_CDE
    train = gen_mixture(n, kind="uniform", seed=REF_SEED)
    hold = gen_mixture(m, kind="uniform", seed=REF_SEED + 1)
    model = _cde_model(train, hold)
    lps = []
    for i in range(n):
        tick()
        lps.append(model.absorb(train.x[i], train.y[i]))
    evidence = sum(lps)
    lps = []
    for i in range(m):
        tick()
        lps.append(model.predict_logdensity(hold.x[i], hold.y[i]))
    CdeModel.from_text(model.to_text())
    tick()
    return {"evidence": evidence, "holdout_nll": -sum(lps) / m}


def vmm_reference(tick=lambda: None):
    """Log evidence and held-out NLL of the VMM warm-up stream."""
    n, m = REF_VMM
    seq = gen_markov(n + m, seed=REF_SEED, order=VMM_ORDER)
    model = VmmModel(2, VMM_DEPTH)
    evidence = model.fit_sequence(seq[:n])
    tick()
    model.next_symbol_logprobs()
    nll = -model.sequence_logprob(seq[n:]) / m
    tick()
    VmmModel.from_text(model.to_text())
    tick()
    return {"evidence": evidence, "holdout_nll": nll}


def _check_reference(rec, kind, got):
    ref = REFERENCE[kind]
    for key, want in ref.items():
        ok = math.isclose(got[key], want, rel_tol=REF_RTOL)
        rec.check(ok, f"{kind} reference {key}: {got[key]!r} != {want!r}")


def _cde_data(seed, n):
    train = gen_mixture(n, kind="uniform", seed=seed)
    hold = gen_mixture(CDE_HOLDOUT_N, kind="uniform", seed=EVAL_SEED)
    return train, hold


def _predict_all(rec, model, hold, n):
    return [rec.call("query", model.predict_logdensity, hold.x[i], hold.y[i]) for i in range(n)]


def _snapshots(rec, model, load, rounds):
    """Save and reload ``rounds`` times; returns the last text and reload.

    Each round starts from a collected heap, so where the collector's
    cycle happens to fall does not decide how long a round takes.
    """
    for _ in range(rounds):
        gc.collect()
        text = rec.call("save", model.to_text)
        loaded = rec.call("load", load, text)
    return text, loaded


def _times(rec, eval_calls, eval_rounds):
    """The pass's timed samples besides ``update`` and ``query``: the
    calls of ``eval_rounds`` held-out scoring passes, and the snapshot
    round trips."""
    return {
        "eval": eval_calls,
        "eval_rounds": eval_rounds,
        "save_s": rec.lat["save"],
        "load_s": rec.lat["load"],
    }


def cde_stream(seed, rec, launched):
    """Absorb a stream into an empty model, then score the held-out set."""
    train, hold = _cde_data(seed, CDE_STREAM_N)
    _check_reference(rec, "cde", cde_reference(rec.tick))
    model = _cde_model(train, hold)
    xs, ys = list(train.x), list(train.y)

    rec.start(launched)
    lps = [rec.call("update", model.absorb, x, y) for x, y in zip(xs, ys)]
    preds = _predict_all(rec, model, hold, CDE_HOLDOUT_N)
    text, clone = _snapshots(rec, model, CdeModel.from_text, CDE_SNAPSHOTS)
    rec.finish()
    out = _times(rec, rec.lat["query"], 1)

    finite = all(v is not None for v in lps + preds)
    rec.check(finite, "every absorb and predict returned a finite value")
    if finite:
        evidence = sum(lps)
        rec.check(
            math.isclose(evidence, model.posterior.log_evidence, rel_tol=REF_RTOL),
            "summed absorbs equal the log evidence",
        )
        same = clone is not None and preds[:RELOAD_CHECK_N] == [
            clone.predict_logdensity(hold.x[i], hold.y[i]) for i in range(RELOAD_CHECK_N)
        ]
        rec.check(same, "a reloaded model predicts bit-identically")
        out["holdout_nll"] = -sum(preds) / len(preds)
        out["fingerprint"] = [repr(evidence), repr(out["holdout_nll"]), _sha(text)]
    out["snapshot_bytes"] = len(text.encode()) if text else 0
    return model.posterior.cover, out


def cde_query(seed, rec, launched):
    """Read-only loop over a trained model: held-out scoring and snapshots.

    The set-up absorbs are timed one by one for ``update_*`` and also
    land in ``setup_s``, which runs to the first read.
    """
    train, hold = _cde_data(seed, CDE_QUERY_N)
    _check_reference(rec, "cde", cde_reference(rec.tick))
    model = _cde_model(train, hold)
    for i in range(CDE_QUERY_N):
        rec.call("update", model.absorb, train.x[i], train.y[i])
    first_preds = first_text = None

    rec.start(launched)
    for _ in range(QUERY_ROUNDS):
        preds = _predict_all(rec, model, hold, QUERY_HOLDOUT_N)
        text, loaded = _snapshots(rec, model, CdeModel.from_text, QUERY_SNAPSHOTS)
        if first_preds is None:
            first_preds, first_text = preds, text
        else:
            rec.check(preds == first_preds, "a reloaded model predicts bit-identically")
            rec.check(text == first_text, "a reloaded model saves the same snapshot")
        model = loaded if loaded is not None else model
    rec.finish()
    out = _times(rec, rec.lat["query"], QUERY_ROUNDS)

    if all(v is not None for v in first_preds):
        out["holdout_nll"] = -sum(first_preds) / len(first_preds)
        out["fingerprint"] = [repr(out["holdout_nll"]), _sha(first_text or "")]
    out["snapshot_bytes"] = len(first_text.encode()) if first_text else 0
    return model.posterior.cover, out


def vmm_stream(seed, rec, launched):
    """Observe a symbol stream, querying the next-symbol law after each."""
    train = gen_markov(VMM_N, seed=seed, order=VMM_ORDER)
    hold = gen_markov(VMM_HOLDOUT_N, seed=EVAL_SEED, order=VMM_ORDER)
    _check_reference(rec, "vmm", vmm_reference(rec.tick))
    model = VmmModel(2, VMM_DEPTH)
    checkpoints = set(VMM_CHECKPOINTS)
    lps, nlls = [], []

    rec.start(launched)
    for t, s in enumerate(train, start=1):
        lps.append(rec.call("update", model.observe, s))
        rec.call("query", model.next_symbol_logprobs)
        if t in checkpoints:
            ll = rec.call("eval", model.sequence_logprob, hold)
            nlls.append(None if ll is None else -ll / VMM_HOLDOUT_N)
    text, clone = _snapshots(rec, model, VmmModel.from_text, VMM_SNAPSHOTS)
    rec.finish()
    out = _times(rec, rec.lat["eval"], 1)

    finite = all(v is not None for v in lps + nlls)
    rec.check(finite, "every observe and held-out score returned a finite value")
    if finite:
        total = sum(lps)
        lml = model.posterior.log_marginal_likelihood()
        rec.check(math.isclose(total, lml, rel_tol=REF_RTOL), f"summed observes {total!r} != {lml!r}")
        same = clone is not None and np.array_equal(
            clone.next_symbol_logprobs(), model.next_symbol_logprobs()
        )
        rec.check(same, "a reloaded model predicts bit-identically")
        out["holdout_nll"] = nlls[-1]
        out["fingerprint"] = [repr(total), repr(nlls), _sha(text)]
    out["snapshot_bytes"] = len(text.encode()) if text else 0
    return model.posterior.cover, out


WORKLOADS = {"cde-stream": cde_stream, "cde-query": cde_query, "vmm-stream": vmm_stream}


def cover_counts(cover):
    """Size of the main model's cover at the end of the pass."""
    leaves = [c.cid for c in cover.contexts.values() if not c.child_ids]
    buffered = sum(map(cover.occupancy, leaves)) if cover.growth_mode == "replay" else 0
    return {
        "covers.contexts": cover.n_contexts,
        "covers.depth": cover.deepest_depth,
        "covers.buffered_points": buffered,
    }


def versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "covermodels": covermodels.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--launched", type=float, help="time.monotonic() when the pass was started")
    ap.add_argument("--trace-out", help="write the raw spans here and trace the timed loop")
    ap.add_argument("--print-reference", action="store_true")
    args = ap.parse_args(argv)
    if not Path(covermodels.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"covermodels was imported from {covermodels.__file__}, not from {ROOT / 'src'}")
    if args.print_reference:
        print(json.dumps({"cde": cde_reference(), "vmm": vmm_reference()}))
        return 0
    if args.workload is None or args.launched is None:
        ap.error("--workload and --launched are required")

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
    rec = Recorder(tracer)
    cover, out = WORKLOADS[args.workload](args.seed, rec, args.launched)
    if tracer:
        out["layers"] = {**tracer.reduce(rec.scale_at), **cover_counts(cover)}
        tracer.save(args.trace_out)
    out.update(
        setup_s=rec.setup_s,
        busy_s=rec.busy_s,
        scale=CAL_REF_S / statistics.median(rec._cal_s),
        update=rec.lat["update"],
        query=rec.lat["query"],
        attempted=rec.attempted,
        failed=rec.failed,
        problems=rec.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
