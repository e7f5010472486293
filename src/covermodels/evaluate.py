"""Streaming evaluation harness.

Feeds a training stream to a method one observation at a time and
measures held out mean negative log density at logarithmically spaced
checkpoints. Incremental methods keep learning across checkpoints;
batch methods buffer and refit at each one. Timing is optional so that
runs can be compared bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig


@dataclass
class EvalRecord:
    t: int
    method: str
    loss: float  # mean held out -log density at train size t
    us_per_update: float
    seed: int


_CHECKPOINT_START_EXP, _CHECKPOINT_STEP = 2.0, 0.5  # 10**2, 10**2.5, ...


def default_checkpoints(n):
    """10**2, 10**2.5, ... capped at n; always ends with n."""
    if n < 1:
        raise BadConfig("need at least one training point")
    out = []
    e = _CHECKPOINT_START_EXP
    while True:
        t = int(round(10.0**e))
        if t > n:
            break
        out.append(t)
        e += _CHECKPOINT_STEP
    if not out or out[-1] != n:
        out.append(n)
    return out


def run_eval(
    method,
    train,
    holdout,
    checkpoints=None,
    record_timing=True,
    seed=0,
    start_at=None,
    snapshot_at=None,
    snapshot_cb=None,
):
    """Run one method over one training stream.

    Returns a list of EvalRecord. With record_timing=False the timing
    column is zero and the output is a pure function of (method
    configuration, data, seed).

    The method decides where the run starts: after ``begin(seed)`` it
    holds ``n_absorbed`` rows (a resumed snapshot's, else 0), and the
    stream goes on from the next. ``start_at`` must equal that count
    when given; a method with no ``n_absorbed`` starts at ``start_at``
    or 0. Checkpoints up to the start are dropped and one must remain.
    ``snapshot_cb(method, t)`` fires once, right after ``snapshot_at``
    rows in total are absorbed, a row between the start and the last
    checkpoint. Each ``BadConfig`` comes before any row is absorbed.
    """
    n = len(train)
    cps = sorted(set(checkpoints)) if checkpoints else default_checkpoints(n)
    if cps[-1] > n:
        raise BadConfig(f"checkpoint {cps[-1]} exceeds stream length {n}")
    method.begin(seed)
    i = getattr(method, "n_absorbed", start_at or 0)
    if start_at is not None and start_at != i:
        raise BadConfig(f"start_at {start_at} disagrees with the {i} rows the method holds")
    cps = [t for t in cps if t > i]
    if not cps:
        raise BadConfig(f"no checkpoint lies after row {i}, where the run starts")
    if snapshot_at is not None and not i <= snapshot_at <= cps[-1]:
        raise BadConfig(f"snapshot row {snapshot_at} lies outside the run's rows {i} to {cps[-1]}")
    records = []
    spent, start = 0.0, i
    if snapshot_cb is not None and i == snapshot_at:
        snapshot_cb(method, i)
    for t in cps:
        t0 = time.perf_counter()
        while i < t:
            method.observe(train.x[i], train.y[i])
            i += 1
            if snapshot_cb is not None and i == snapshot_at:
                snapshot_cb(method, i)
        method.prepare(t)
        spent += time.perf_counter() - t0
        lps = np.asarray(method.holdout_loglik(holdout.x, holdout.y), dtype=float)
        loss = float(-np.mean(lps))
        # the time per row streamed in this run, not per row the method holds
        us = spent / (t - start) * 1e6 if record_timing else 0.0
        records.append(EvalRecord(t, method.name, loss, us, seed))
    return records


CSV_HEADER = "t,method,L_t,us_per_update,seed"


def write_records_csv(path, records):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.t},{r.method},{repr(float(r.loss))},"
                f"{repr(float(r.us_per_update))},{r.seed}\n"
            )


def read_records_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise BadConfig(f"unexpected header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t, method, loss, us, seed = line.split(",")
            records.append(
                EvalRecord(int(t), method, float(loss), float(us), int(seed))
            )
    return records
