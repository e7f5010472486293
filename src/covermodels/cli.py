"""Command line interface.

Subcommands:

* ``gen``: write a synthetic dataset (CSV) or symbol stream (txt).
* ``fit-eval``: stream a training set into one method, record held out
  loss at checkpoints, write a records CSV plus a .meta sidecar with
  the effective configuration.
* ``compare``: fit-eval several methods and report the final losses.
* ``score``: total log probability of a symbol file under a fresh
  variable order Markov model (optionally cross checked against the
  enumeration oracle).
* ``sample``: draw from a saved model snapshot.

Configuration comes from an optional ``key = value`` file (# comments
allowed) plus repeatable ``--set key=value`` overrides. Values parse
as JSON when possible, else stay strings. Relative output paths are
placed under $COVERMODELS_OUT when that is set.

Exit codes: 0 success, 2 usage, configuration or input problems (a
symbol outside the alphabet among them), 1 runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cde import CdeConfig, CdeModel
from .covers import as_size
from .data import (
    GENERATORS,
    Dataset,
    gen_markov,
    load_csv,
    load_symbols,
    read_text,
    save_csv,
    save_symbols,
)
from .errors import (
    BadConfig,
    CoverModelError,
    MissingColumn,
    ParseError,
    UnknownSymbol,
)
from .evaluate import run_eval, write_records_csv
from .methods import (
    ConstantMethod,
    CoverCdeMethod,
    GlobalNormalWishartMethod,
    KernelCdeMethod,
    VmmMethod,
)
from .vmm import CtwOracle, VmmModel

# each method's adapter, under the adapter's name
_ADAPTERS = {
    m.name: m
    for m in (CoverCdeMethod, KernelCdeMethod, GlobalNormalWishartMethod, ConstantMethod, VmmMethod)
}
METHODS = tuple(_ADAPTERS)


def _out_path(path):
    base = os.environ.get("COVERMODELS_OUT")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config_file(path) -> dict:
    cfg = {}
    for lineno, line in enumerate(read_text(path, "config file").split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected key = value, got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        cfg[key.strip()] = _parse_value(value)
    return cfg


def _collect_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise BadConfig(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value)
    return cfg


def _cde_config(cfg: dict, train: Dataset) -> CdeConfig:
    kw = dict(cfg)
    have_bounds = {"x_lower", "x_upper", "y_lower", "y_upper"} <= set(kw)
    if have_bounds:
        return CdeConfig(**kw).validate()
    return CdeConfig.from_data(train.x, train.y, **kw).validate()


def _options(name):
    """The constructor parameters of method ``name``'s adapter."""
    return inspect.signature(_ADAPTERS[name]).parameters


def _build_method(name, cfg, train, resume_text=None):
    """Method ``name``'s adapter, with the options its constructor takes
    from ``cfg``. A resumed adapter takes its settings from the
    snapshot, so it needs none."""
    if name not in _ADAPTERS:
        raise BadConfig(f"unknown method {name!r}, expected one of {METHODS}")
    params = _options(name)
    cde = _ADAPTERS[name] is CoverCdeMethod
    # cover-cde's options are the fields of the CdeConfig it takes
    options = {f.name for f in dataclasses.fields(CdeConfig)} if cde else set(params)
    unknown = set(cfg) - options.difference(["resume_text"])
    if unknown:
        raise BadConfig(f"unknown {name} option(s): {sorted(unknown)}")
    kw = {"config": _cde_config(cfg, train)} if cde else dict(cfg)
    missing = [k for k, p in params.items() if p.default is p.empty and k not in kw]
    if missing and resume_text is None:
        raise BadConfig(f"{name} needs {', '.join(missing)} (via --set or config file)")
    kw.update(dict.fromkeys(missing))
    if resume_text is not None:
        kw["resume_text"] = resume_text
    return _ADAPTERS[name](**kw)


def _load_train_holdout(args, method_name, cfg):
    if method_name == "vmm":
        # the model itself checks the symbols against an alphabet that is
        # not an int option here, such as one a resumed snapshot brings
        alphabet = cfg.get("alphabet_size")
        if type(alphabet) is not int:
            alphabet = None
        train_seq = load_symbols(args.train, alphabet)
        holdout_seq = load_symbols(args.holdout, alphabet) if args.holdout else []
        if not holdout_seq:
            raise BadConfig("vmm evaluation needs a --holdout symbol file")
        to_ds = lambda seq: Dataset(
            np.zeros((len(seq), 1)), np.asarray(seq, dtype=float)[:, None]
        )
        return to_ds(train_seq), to_ds(holdout_seq)
    if not args.holdout:
        raise BadConfig("--holdout is required")
    train = load_csv(args.train, _cols(args.x_cols), _cols(args.y_cols))
    holdout = load_csv(args.holdout, _cols(args.x_cols), _cols(args.y_cols))
    return train, holdout


def _cols(spec):
    if not spec:
        return None
    return [c.strip() for c in spec.split(",") if c.strip()]


def _checkpoints(spec):
    if not spec:
        return None
    try:
        cps = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise BadConfig(f"bad checkpoint list {spec!r}") from None
    if not cps or any(c <= 0 for c in cps):
        raise BadConfig("checkpoints must be positive integers")
    return cps


def _eval_meta(args, cfg, **extra):
    """The .meta payload of fit-eval and compare: their shared
    arguments and the effective configuration, plus ``extra``."""
    return {
        "config": cfg,
        "train": args.train,
        "holdout": args.holdout,
        "checkpoints": _checkpoints(args.checkpoints),
        "seed": args.seed,
        "record_timing": not args.no_timing,
        **extra,
    }


def _write_meta(out_path, payload):
    with open(out_path + ".meta", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    out = _out_path(args.out)
    if args.dataset == "markov":
        seq = gen_markov(args.n, seed=args.seed)
        save_symbols(out, seq)
    elif args.dataset in GENERATORS:
        save_csv(out, GENERATORS[args.dataset](args.n, seed=args.seed))
    else:
        raise BadConfig(
            f"unknown dataset {args.dataset!r}, expected markov or one of "
            f"{sorted(GENERATORS)}"
        )
    print(f"wrote {out}")
    return 0


def _run_method(args, name, cfg, resume_text=None, snapshot_at=None, snapshot_cb=None):
    """Stream method ``name`` over the run's data and print its records."""
    train, holdout = _load_train_holdout(args, name, cfg)
    records = run_eval(
        _build_method(name, cfg, train, resume_text),
        train,
        holdout,
        checkpoints=_checkpoints(args.checkpoints),
        record_timing=not args.no_timing,
        seed=args.seed,
        snapshot_at=snapshot_at,
        snapshot_cb=snapshot_cb,
    )
    for r in records:
        print(f"t={r.t:<8d} {r.method:<12s} loss={r.loss:.6f}")
    return records


def cmd_fit_eval(args) -> int:
    cfg = _collect_config(args)
    if (args.snapshot_at is None) != (args.snapshot_out is None):
        raise BadConfig("--snapshot-at and --snapshot-out go together")
    if (args.resume or args.snapshot_out) and "resume_text" not in _options(args.method):
        raise BadConfig(f"{args.method} cannot resume or write a snapshot")
    resume_text = read_text(args.resume, "snapshot") if args.resume else None
    snapshot_cb = None
    if args.snapshot_out:
        snapshot_out = Path(_out_path(args.snapshot_out))
        snapshot_cb = lambda m, t: snapshot_out.write_text(m.snapshot_text())
    records = _run_method(args, args.method, cfg, resume_text, args.snapshot_at, snapshot_cb)
    out = _out_path(args.out)
    write_records_csv(out, records)
    _write_meta(
        out,
        _eval_meta(
            args,
            cfg,
            command="fit-eval",
            method=args.method,
            resume=args.resume,
            snapshot_at=args.snapshot_at,
        ),
    )
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _collect_config(args)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    # each method's options go under its name, as one JSON object
    for key, opts in cfg.items():
        if key not in _ADAPTERS:
            raise BadConfig(
                f"compare takes options under a method's name, one of {METHODS}, got {key!r}"
            )
        if not isinstance(opts, dict):
            raise BadConfig(f"{key} options must be a JSON object of option: value, got {opts!r}")
    all_records = []
    for name in names:
        all_records += _run_method(args, name, dict(cfg.get(name, {})))
    finals = {r.method: r.loss for r in all_records}  # each method's last record
    out = _out_path(args.out)
    write_records_csv(out, all_records)
    _write_meta(out, _eval_meta(args, cfg, command="compare", methods=names))
    best = min(finals, key=finals.get)
    print(f"best final loss: {best} ({finals[best]:.6f})")
    print(f"wrote {out}")
    return 0


def cmd_score(args) -> int:
    model = VmmModel(
        args.alphabet, args.depth, prior=args.prior, stop_weight=args.stop_weight
    )
    seq = load_symbols(args.file, model.alphabet_size)
    total = model.fit_sequence(seq)
    print(f"n={len(seq)} total_logprob={total!r}")
    if seq:
        print(f"mean_logprob={total / len(seq)!r}")
    if args.oracle:
        oracle = CtwOracle(
            alphabet_size=args.alphabet,
            depth=args.depth - 1,
            concentration=model.concentration,
            stop_weight=args.stop_weight,
        )
        ref = oracle.sequence_logprob(seq)
        print(f"oracle_logprob={ref!r}")
        print(f"difference={total - ref!r}")
    return 0


def cmd_sample(args) -> int:
    text = read_text(args.snapshot, "snapshot")
    try:
        head = json.loads(text.partition("\n")[0])
    except ValueError:
        head = None  # not JSON, or empty
    kind = head.get("kind") if isinstance(head, dict) else None
    rng = np.random.default_rng(args.seed)
    if kind == "cde":
        if args.x is None:
            raise BadConfig("sampling from a cde snapshot needs --x")
        try:
            x = np.array([float(v) for v in args.x.split(",")])
        except ValueError:
            raise BadConfig(f"bad --x {args.x!r}: expected comma separated numbers") from None
        model = CdeModel.from_text(text)
        for _ in range(as_size(args.n, "--n", 0)):
            y = np.atleast_1d(model.sample_y(x, rng))
            print(",".join(repr(float(v)) for v in y))
        return 0
    if kind == "vmm":
        model = VmmModel.from_text(text)
        print(" ".join(str(s) for s in model.generate(args.n, rng)))
        return 0
    raise BadConfig("snapshot kind not recognised")


def _add_eval_arguments(parser):
    """The data, config and output arguments of fit-eval and compare."""
    parser.add_argument("--train", required=True)
    parser.add_argument("--holdout")
    parser.add_argument("--x-cols")
    parser.add_argument("--y-cols")
    parser.add_argument("--config")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    parser.add_argument("--checkpoints")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-timing", action="store_true")
    parser.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="covermodels",
        description="Streaming Bayesian conditional models on cover sequences",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a synthetic dataset")
    g.add_argument("--dataset", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fit-eval", help="stream one method, record held out loss")
    f.add_argument("--method", required=True, choices=METHODS)
    _add_eval_arguments(f)
    f.add_argument("--snapshot-at", type=int)
    f.add_argument("--snapshot-out")
    f.add_argument("--resume")
    f.set_defaults(func=cmd_fit_eval)

    c = sub.add_parser("compare", help="fit-eval several methods")
    c.add_argument("--methods", default="cover-cde,kernel-cde,global-nw")
    _add_eval_arguments(c)
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("score", help="log probability of a symbol file")
    s.add_argument("--file", required=True)
    s.add_argument("--alphabet", type=int, default=2)
    s.add_argument("--depth", type=int, default=3)
    s.add_argument("--prior", default="kt")
    s.add_argument("--stop-weight", type=float, default=0.5)
    s.add_argument("--oracle", action="store_true")
    s.set_defaults(func=cmd_score)

    m = sub.add_parser("sample", help="draw from a model snapshot")
    m.add_argument("--snapshot", required=True)
    m.add_argument("--x")
    m.add_argument("--n", type=int, default=1)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_sample)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (BadConfig, ParseError, MissingColumn, UnknownSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoverModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
