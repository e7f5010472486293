"""End to end checks of the package's headline guarantees.

One test per guarantee, each printing a single PASS/FAIL line with the
measured numbers. Run

    pytest tests/test_acceptance.py -v -s

to see the report. The randomized-tree, scaling and mixture tests
stream 10^4 observations or more, so the file takes a few minutes; the
slow tests assert their own wall-clock budgets.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from conftest import (
    attach_random_engine,
    enum_stopped_trees,
    learn,
    random_static_tree,
    random_xy,
    score,
)
from covermodels import (
    BayesTreeDensity,
    CdeConfig,
    CdeModel,
    NormalWishart,
    VmmModel,
    ctw_logprob,
    gen_gaussian_ring,
    gen_mixture,
    run_eval,
    write_records_csv,
)
from covermodels.methods import (
    CoverCdeMethod,
    GlobalNormalWishartMethod,
    KernelCdeMethod,
)


def _report(ok: bool, label: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_engine_matches_enumeration_after_every_update():
    """200 random partition trees, checked against brute force the
    whole way through the stream, not just at the end: Dirichlet locals
    on the even trees, Normal-Wishart locals on the odd ones."""
    t0 = time.perf_counter()
    n_specs = 200
    worst = 0.0
    checks = 0
    for spec in range(n_specs):
        rng = np.random.default_rng(1000 + spec)
        kind = "dirichlet" if spec % 2 == 0 else "nw"
        cov = random_static_tree(rng)
        post, oracle = attach_random_engine(rng, cov, kind)
        data = []
        for _ in range(int(rng.integers(1, 13))):
            x, y = random_xy(rng, cov, kind)
            data.append((x, y))
            post.absorb(x, y)
            gaps = [abs(post.log_marginal_likelihood() - oracle.log_evidence(data))]
            for _ in range(2):
                xq, yq = random_xy(rng, cov, kind)
                gaps.append(
                    abs(
                        post.predict_logdensity(xq, yq)
                        - oracle.log_predictive(data, xq, yq)
                    )
                )
            checks += len(gaps)
            worst = max(worst, max(gaps))
    dt = time.perf_counter() - t0
    _report(
        worst <= 1e-10 and dt < 60.0,
        f"engine equals enumeration after every update: {n_specs} trees, "
        f"{checks} checks, worst gap {worst:.2e} (tol 1e-10), "
        f"{dt:.1f}s (budget 60s)",
    )


def test_sequence_model_matches_reference_ctw_mixer():
    """Suffix-tree engine with KT locals against the direct context
    tree recursion: exhaustive where feasible, sampled where not."""
    t0 = time.perf_counter()
    worst = 0.0

    def gap(seq, ctx_depth):
        m = VmmModel(alphabet_size=2, depth=ctx_depth + 1)
        want = ctw_logprob(seq, alphabet_size=2, max_context=ctx_depth)
        return abs(m.fit_sequence(seq) - want)

    # every binary string of length 12 at context depth 2
    for code in range(2**12):
        seq = [(code >> k) & 1 for k in range(12)]
        worst = max(worst, gap(seq, 2))
    # a thousand sampled strings at depth 4, spot checks at 1 and 3
    rng = np.random.default_rng(2)
    for _ in range(1000):
        worst = max(worst, gap(rng.integers(0, 2, size=12).tolist(), 4))
    for d in (1, 3):
        for _ in range(200):
            n = int(rng.integers(1, 13))
            worst = max(worst, gap(rng.integers(0, 2, size=n).tolist(), d))
    dt = time.perf_counter() - t0
    _report(
        worst <= 1e-9 and dt < 120.0,
        f"sequence model equals reference mixer: 4096 exhaustive + 1400 "
        f"sampled strings, depths 1-4, worst gap {worst:.2e} (tol 1e-9), "
        f"{dt:.1f}s (budget 120s)",
    )


def test_conjugate_locals_normalize_and_match_batch_forms():
    """Predictives integrate to one; streaming posteriors equal
    closed-form batch fits and explicit stopped-tree enumeration."""
    t0 = time.perf_counter()

    nw = NormalWishart([0.25], kappa0=1.5, nu0=3.0, scale=[[0.8]])
    for v in (0.1, -0.4, 0.9, 0.3):
        learn(nw, [v])
    mass_nw, _ = quad(lambda v: math.exp(score(nw, [v])), -60.0, 60.0, limit=200)
    err_nw = abs(mass_nw - 1.0)

    bt = BayesTreeDensity([0.0], [1.0], gamma=0.4, branch_pseudo=0.5, max_depth=8)
    rng = np.random.default_rng(31)
    for v in rng.beta(2.0, 5.0, size=40):
        learn(bt, [v])
    # the density is constant on dyadic cells at resolution 2^-8, so a
    # midpoint sum on a finer dyadic grid integrates it exactly
    k = 4096
    mids = (np.arange(k) + 0.5) / k
    mass_bt = float(np.mean([math.exp(score(bt, [v])) for v in mids]))
    err_bt = abs(mass_bt - 1.0)

    # streaming sufficient statistics against the one-shot batch formulas
    rng = np.random.default_rng(32)
    ys = rng.normal([0.5, -1.0], [1.2, 0.7], size=(30, 2))
    seq = NormalWishart([0.5, -0.2], kappa0=1.5, nu0=4.0, scale=np.eye(2) * 0.9)
    for y in ys:
        learn(seq, y)
    mun, kn, vn, Tn = seq.posterior_params()
    n = len(ys)
    ybar = ys.mean(axis=0)
    scatter = (ys - ybar).T @ (ys - ybar)
    k0, v0, mu0 = 1.5, 4.0, np.array([0.5, -0.2])
    want_mu = (k0 * mu0 + n * ybar) / (k0 + n)
    want_T = np.eye(2) * 0.9 + scatter + k0 * n / (k0 + n) * np.outer(
        ybar - mu0, ybar - mu0
    )
    err_state = max(
        float(np.max(np.abs(mun - want_mu))),
        abs(kn - (k0 + n)),
        abs(vn - (v0 + n)),
        float(np.max(np.abs(Tn - want_T))),
    )

    # evidence and predictive against the cache-free recursion over all
    # stopping configurations, depth 3, five points per trial
    err_enum = 0.0
    rng = np.random.default_rng(33)
    for trial in range(6):
        dim = 1 if trial % 2 == 0 else 2
        lo = np.zeros(dim)
        hi = np.ones(dim) * (1.0 + trial % 3)
        tree = BayesTreeDensity(lo, hi, gamma=0.4, branch_pseudo=0.7, max_depth=3)
        pts = [rng.uniform(lo, hi) for _ in range(5)]
        ev = 0.0
        for p in pts:
            ev += score(tree, p)
            learn(tree, p)
        want_ev = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts)
        err_enum = max(err_enum, abs(math.exp(ev) / want_ev - 1.0))
        q = rng.uniform(lo, hi)
        want_pred = enum_stopped_trees(lo, hi, 0, 3, 0.4, 0.7, pts + [q]) / want_ev
        err_enum = max(
            err_enum, abs(math.exp(score(tree, q)) / want_pred - 1.0)
        )

    dt = time.perf_counter() - t0
    _report(
        err_nw <= 1e-4 and err_bt <= 1e-4 and err_state <= 1e-10 and err_enum <= 1e-10,
        f"local models calibrated: |mass-1| {err_nw:.1e}/{err_bt:.1e} "
        f"(tol 1e-4), batch-vs-stream gap {err_state:.1e}, stopped-tree "
        f"enumeration gap {err_enum:.1e} (tol 1e-10), {dt:.1f}s",
    )


def test_kd_depth_and_update_cost_stay_bounded():
    """With alpha = 2 the refinement stays shallow and per-update cost
    is flat enough that doubling the stream barely moves the mean."""
    t0 = time.perf_counter()
    n = 20_000
    ds = gen_mixture(n, kind="gaussian", seed=11)
    model = CdeModel(CdeConfig.from_data(ds.x, ds.y, alpha=2.0))
    spent = 0.0
    cum_half = depth_half = None
    for i in range(n):
        s = time.perf_counter()
        model.absorb(ds.x[i], ds.y[i])
        spent += time.perf_counter() - s
        if i + 1 == n // 2:
            cum_half = spent
            depth_half = model.refinement_depth
    ratio = (spent / n) / (cum_half / (n // 2))
    dt = time.perf_counter() - t0
    _report(
        depth_half <= 13 and ratio <= 1.5,
        f"growth stays tame: depth {depth_half} at 10^4 points (cap 13), "
        f"mean update cost ratio 2e4/1e4 = {ratio:.3f} (cap 1.5), "
        f"{dt:.0f}s",
    )


def test_vmm_update_cost_stays_flat():
    """Once every context is materialised a symbol costs the same no
    matter how long the stream is: the second 10^4 symbols cost on
    average no more than 1.5 times the first 10^4."""
    t0 = time.perf_counter()
    n = 20_000
    seq = np.random.default_rng(11).integers(4, size=n).tolist()
    model = VmmModel(alphabet_size=4, depth=5)
    spent = 0.0
    cum_half = None
    for i, sym in enumerate(seq):
        s = time.perf_counter()
        model.observe(sym)
        spent += time.perf_counter() - s
        if i + 1 == n // 2:
            cum_half = spent
    ratio = ((spent - cum_half) / (n - n // 2)) / (cum_half / (n // 2))
    dt = time.perf_counter() - t0
    _report(
        ratio <= 1.5,
        f"vmm cost stays flat: mean observe cost 1e4-2e4 / 0-1e4 = {ratio:.3f} "
        f"(cap 1.5), {model.posterior.cover.n_contexts} contexts, {dt:.0f}s",
    )


def test_density_estimator_learns_and_rivals_kernel_baseline():
    """Held-out loss must fall with data on both smooth and hard-edged
    mixtures, and the final loss must be within a whisker of a tuned
    double-kernel estimator on the hard-edged one."""
    t0 = time.perf_counter()
    drops = {}
    final = {}
    kernel_final = None
    for kind in ("gaussian", "uniform"):
        train = gen_mixture(10_000, kind=kind, seed=21)
        hold = gen_mixture(10_000, kind=kind, seed=22)
        cfg = CdeConfig.from_data(train.x, train.y, alpha=2.0)
        recs = run_eval(
            CoverCdeMethod(cfg),
            train,
            hold,
            checkpoints=[100, 10_000],
            record_timing=False,
            seed=0,
        )
        drops[kind] = recs[0].loss - recs[-1].loss
        final[kind] = recs[-1].loss
        if kind == "uniform":
            krecs = run_eval(
                KernelCdeMethod(),
                train,
                hold,
                checkpoints=[10_000],
                record_timing=False,
                seed=0,
            )
            kernel_final = krecs[-1].loss
    gap = final["uniform"] - kernel_final
    dt = time.perf_counter() - t0
    _report(
        drops["gaussian"] >= 0.1 and drops["uniform"] >= 0.1 and gap <= 0.05
        and dt < 900.0,
        f"estimator learns and keeps up: loss drop 1e2->1e4 "
        f"{drops['gaussian']:.3f}/{drops['uniform']:.3f} nats "
        f"(gaussian/uniform, need >= 0.1), final gap to kernel baseline "
        f"{gap:+.3f} nats (allowed +0.05), {dt:.0f}s (budget 900s)",
    )


def test_conditional_structure_beats_global_fit_on_ring():
    """The ring's conditional is a tight moving blob; a single global
    fit of the response cannot represent it."""
    t0 = time.perf_counter()
    train = gen_gaussian_ring(10_000, seed=31)
    hold = gen_gaussian_ring(2_000, seed=32)
    cfg = CdeConfig.from_data(train.x, train.y, alpha=2.0)
    common = dict(checkpoints=[10_000], record_timing=False, seed=0)
    cover = run_eval(CoverCdeMethod(cfg), train, hold, **common)[-1].loss
    global_nw = run_eval(GlobalNormalWishartMethod(), train, hold, **common)[-1].loss
    margin = global_nw - cover  # losses are negative log densities
    dt = time.perf_counter() - t0
    _report(
        margin >= 0.1,
        f"conditional beats global on ring: mean held-out log density "
        f"{-cover:.3f} vs {-global_nw:.3f}, margin {margin:.3f} nats "
        f"(need >= 0.1), {dt:.0f}s",
    )


def test_seeded_runs_are_bit_identical_and_snapshots_resume_exactly(tmp_path):
    """Two runs with the same seed must produce byte-identical record
    files, and restoring a mid-stream snapshot must not move any later
    checkpoint loss."""
    t0 = time.perf_counter()
    train = gen_mixture(600, kind="gaussian", seed=41)
    hold = gen_mixture(400, kind="gaussian", seed=42)
    cfg = CdeConfig.from_data(train.x, train.y, alpha=2.0)
    cps = [100, 300, 600]

    def run(**kw):
        return run_eval(
            CoverCdeMethod(cfg, resume_text=kw.pop("resume_text", None)),
            train,
            hold,
            checkpoints=cps,
            record_timing=False,
            seed=7,
            **kw,
        )

    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(pa, run())
    write_records_csv(pb, run())
    identical = pa.read_bytes() == pb.read_bytes()

    grabbed = {}

    def cb(method, t):
        grabbed["text"] = method.snapshot_text()
        grabbed["t"] = t

    base = {r.t: r.loss for r in run(snapshot_at=200, snapshot_cb=cb)}
    resumed = run(resume_text=grabbed["text"], start_at=grabbed["t"])
    drift = max(abs(base[r.t] - r.loss) for r in resumed)
    dt = time.perf_counter() - t0
    _report(
        identical and drift <= 1e-10,
        f"determinism holds: record files byte-identical {identical}, "
        f"max post-resume loss drift {drift:.2e} (tol 1e-10), {dt:.0f}s",
    )
