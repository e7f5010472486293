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
import json
import os
import sys

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

METHODS = ("cover-cde", "kernel-cde", "global-nw", "constant", "vmm")


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
    fields = {f.name for f in dataclasses.fields(CdeConfig)}
    unknown = set(cfg) - fields
    if unknown:
        raise BadConfig(f"unknown cover-cde option(s): {sorted(unknown)}")
    kw = dict(cfg)
    if "components" in kw:
        kw["components"] = tuple(kw["components"])
    have_bounds = {"x_lower", "x_upper", "y_lower", "y_upper"} <= set(kw)
    if have_bounds:
        return CdeConfig(**kw).validate()
    return CdeConfig.from_data(train.x, train.y, **kw).validate()


def _build_method(name, cfg, train, resume_text=None):
    if name == "cover-cde":
        return CoverCdeMethod(_cde_config(cfg, train), resume_text=resume_text)
    if name == "kernel-cde":
        allowed = {"n_folds", "grid_size", "subsample_cap"}
        unknown = set(cfg) - allowed
        if unknown:
            raise BadConfig(f"unknown kernel-cde option(s): {sorted(unknown)}")
        return KernelCdeMethod(**cfg)
    if name == "global-nw":
        if cfg:
            raise BadConfig(f"global-nw takes no options, got {sorted(cfg)}")
        return GlobalNormalWishartMethod()
    if name == "constant":
        allowed = {"density"}
        if set(cfg) - allowed:
            raise BadConfig(f"unknown constant option(s): {sorted(set(cfg) - allowed)}")
        return ConstantMethod(**cfg)
    if name == "vmm":
        allowed = {"alphabet_size", "depth", "prior", "stop_weight"}
        unknown = set(cfg) - allowed
        if unknown:
            raise BadConfig(f"unknown vmm option(s): {sorted(unknown)}")
        if resume_text is None and "alphabet_size" not in cfg:
            raise BadConfig("vmm needs alphabet_size (via --set or config file)")
        kw = dict(cfg)
        kw.setdefault("alphabet_size", 2)
        kw.setdefault("depth", 3)
        return VmmMethod(resume_text=resume_text, **kw)
    raise BadConfig(f"unknown method {name!r}, expected one of {METHODS}")


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


def cmd_fit_eval(args) -> int:
    cfg = _collect_config(args)
    resume_text = None
    start_at = 0
    if args.resume:
        resume_text = read_text(args.resume, "snapshot")
    train, holdout = _load_train_holdout(args, args.method, cfg)
    method = _build_method(args.method, cfg, train, resume_text=resume_text)
    if resume_text is not None:
        method.begin(args.seed)  # peek at how far the snapshot got
        start_at = method.n_absorbed
    snapshot_at = args.snapshot_at
    snapshot_out = _out_path(args.snapshot_out) if args.snapshot_out else None
    if (snapshot_at is None) != (snapshot_out is None):
        raise BadConfig("--snapshot-at and --snapshot-out go together")

    def snap_cb(m, t):
        with open(snapshot_out, "w") as fh:
            fh.write(m.snapshot_text())

    records = run_eval(
        method,
        train,
        holdout,
        checkpoints=_checkpoints(args.checkpoints),
        record_timing=not args.no_timing,
        seed=args.seed,
        start_at=start_at,
        snapshot_at=snapshot_at,
        snapshot_cb=snap_cb if snapshot_out else None,
    )
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
            snapshot_at=snapshot_at,
        ),
    )
    for r in records:
        print(f"t={r.t:<8d} {r.method:<12s} loss={r.loss:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _collect_config(args)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    all_records = []
    finals = {}
    for name in names:
        method_cfg = dict(cfg.get(name, {})) if name in cfg else {}
        train, holdout = _load_train_holdout(args, name, method_cfg)
        method = _build_method(name, method_cfg, train)
        records = run_eval(
            method,
            train,
            holdout,
            checkpoints=_checkpoints(args.checkpoints),
            record_timing=not args.no_timing,
            seed=args.seed,
        )
        all_records.extend(records)
        finals[name] = records[-1].loss
        for r in records:
            print(f"t={r.t:<8d} {r.method:<12s} loss={r.loss:.6f}")
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
    except CoverModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
