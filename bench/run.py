"""Benchmark of covermodels: closed-loop workloads over the public API.

Each workload runs as a series of passes. A pass is a fresh process
(``workload.py``) that repeats the same work on the same seeded inputs,
so passes can be pooled; new passes start until ``--seconds`` is used
up, with at least three. With ``--trace 1`` the passes alternate
between untraced and traced ones: the traced passes give the per-layer
metrics, and the two kinds together give the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same metrics by name and unit, and the run's provenance. A full record
goes to ``bench/out/``.

    python3 bench/run.py --workload cde-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_PLAIN = 3  # untraced passes per untraced run; setup_s is their median
MIN_TRACED = 2  # traced passes per traced run; their counts must agree
PASS_TIMEOUT = 170


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, trace_out=None):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(lines[-1])
    out["traced"] = trace_out is not None
    return out


def run_passes(workload, seed, seconds, trace):
    """Start passes until the time is used up and the minimums are met."""
    t0 = time.monotonic()
    passes = []
    while True:
        trace_out = None
        if trace and len(passes) % 2 == 1:
            OUT.mkdir(exist_ok=True)
            trace_out = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.npz"
        passes.append(run_pass(workload, seed, trace_out))
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        enough = n_traced >= MIN_TRACED and n_plain >= MIN_TRACED if trace else n_plain >= MIN_PLAIN
        elapsed = time.monotonic() - t0
        if enough and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def _p99(xs):
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def per_call(passes, kind, agg):
    """``agg`` of each call's times over the first passes, which repeat
    the same calls.

    Times are already scaled to the reference host speed, call by call,
    but the calibration follows only spells of interference longer than
    its sampling step. A call's median over the passes ignores one pass
    that the calibration got wrong, so the centre of the distribution
    uses medians. Short bursts that the calibration cannot see make the
    tail; they move no minimum unless they hit the same call in every
    pass, so the p99 uses minimums. The program's own slow calls, such
    as a split replay, come back at the same index in every pass and
    stay. A fixed number of passes keeps a faster program, which fits
    more passes into a run, from also getting a lower minimum.
    """
    return [agg(ts) for ts in zip(*(p[kind] for p in passes[:MIN_PLAIN]))]


def end_to_end(passes):
    """The end-to-end metrics of a run's untraced passes."""
    med = statistics.median
    out = {}
    for kind in ("update", "query"):
        centre = per_call(passes, kind, med)
        out[f"{kind}_per_s"] = len(centre) / sum(centre)
        out[f"{kind}_us_p50"] = 1e6 * med(centre)
        out[f"{kind}_us_p99"] = 1e6 * _p99(per_call(passes, kind, min))
    return {
        **out,
        "eval_s": sum(per_call(passes, "eval", med)) / passes[0]["eval_rounds"],
        "snapshot_save_s": med(v for p in passes for v in p["save_s"]),
        "snapshot_load_s": med(v for p in passes for v in p["load_s"]),
        "snapshot_bytes": med(p["snapshot_bytes"] for p in passes),
        "holdout_nll": passes[0].get("holdout_nll"),
        "setup_s": med(p["setup_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes, plain):
    """Counts of the first traced pass, self times as medians over all."""
    med = statistics.median
    out = dict(passes[0]["layers"])
    for key in out:
        if key.endswith(".self_s"):
            out[key] = med(p["layers"][key] for p in passes)
    traced = med(p["busy_s"] for p in passes)
    out["trace.overhead_frac"] = traced / med(p["busy_s"] for p in plain) - 1.0
    return out


def same_counts(passes):
    """True when every traced pass gives identical per-layer counts."""
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith(".self_s")} for p in passes]
    return all(c == counts[0] for c in counts)


def provenance(seed, passes):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        top, head = proc.stdout.split()
        if proc.returncode == 0 and Path(top).resolve() == ROOT:
            rev = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return {
        "seed": seed,
        "versions": passes[0]["versions"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "passes": len(passes),
        "host_scale": statistics.median(p["scale"] for p in passes),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    passes = run_passes(workload, seed, seconds, trace)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]

    fingerprints = [p.get("fingerprint") for p in passes]
    attempted += 1
    if None in fingerprints or any(f != fingerprints[0] for f in fingerprints):
        failed += 1
        problems.append("passes on the same inputs gave different outputs")
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        attempted += 1
        if not same_counts(traced):
            failed += 1
            problems.append("traced passes gave different per-layer counts")
        values = per_layer(traced, plain)
        spec = SPEC["per_layer"]
    else:
        values = end_to_end(plain)
        values["ok_ops_frac"] = 1.0 - failed / attempted
        spec = SPEC["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec}
    prov = provenance(seed, passes)
    print(f"# {workload}: {json.dumps(prov, sort_keys=True)}")
    for msg in problems:
        print(f"# {workload} FAILED {msg}")
    print(f"{workload:<12} {'failed_ops_frac':<34} {failed / attempted:>16.6g} fraction")
    for name, m in metrics.items():
        print(f"{workload:<12} {name:<34} {m['value']!s:>16.8} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "trace": int(trace),
        "provenance": prov,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return failed == 0, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
            correct &= ok
            attempted += a
            failed += f
            metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    if any(m["value"] is None for m in metrics.values()) and correct:
        print("a metric is missing from the output", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
