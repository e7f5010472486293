"""A seeded mutation sample of one module against the fast tier-1 subset.

Each mutant changes one site of the module: it flips a comparison
(``<`` and ``<=``, ``==`` and ``!=``, ``is``, ``in``), swaps an
arithmetic operator (``+`` and ``-``, ``*`` and ``/``), drops a
``not``, bumps a number constant by 1, or swaps ``and`` and ``or``.
The package is copied to a temporary directory and the copy's module is
rewritten, so ``src/`` is never written. The fast subset runs with
``-x`` and a timeout against the copy, the module's own test file
first when it is in the subset. A mutant the subset passes
survived: either a test gap or a change no output can show.

``mutation_equivalent.json``, beside this script, lists the survivors
known to change no output, each by its module, its function, its
source line, its operator and a one-line reason. They are reported apart, as
``equivalent``, and the script exits 1 only on an unlisted survivor.

    python tests/mutation.py src/covermodels/engine.py --sample 60 --seed 0

Not a test module: pytest does not collect it.
"""

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST = [f"tests/test_{name}.py" for name in (
    "engine", "vmm", "cde", "covers", "stateful", "snapshot_format", "properties", "local",
)]
COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
EQUIVALENT = Path(__file__).with_name("mutation_equivalent.json")


class Mutator(ast.NodeTransformer):
    """Numbers the sites in visiting order, in ``sites`` as (line,
    function, operator), and mutates the one numbered ``target``. The
    function is the innermost enclosing ``def``, "-" at module level. The
    operator says what the mutant does: ``< -> <=``, ``0.0 -> 1.0``,
    ``drop not``, with ``#2`` for the second such site on its line."""

    def __init__(self, target=-1):
        self.target, self.sites, self.seen, self.function = target, [], {}, "-"

    def hit(self, node, operator):
        key = (node.lineno, operator)
        self.seen[key] = count = self.seen.get(key, 0) + 1
        operator = operator if count == 1 else f"{operator} #{count}"
        self.sites.append((node.lineno, self.function, operator))
        return len(self.sites) - 1 == self.target

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            new = COMPARE.get(type(op))
            if new and self.hit(node, f"{SYMBOL[type(op)]} -> {SYMBOL[new]}"):
                node.ops[i] = new()
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        new = ARITH.get(type(node.op))
        if new and self.hit(node, f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}"):
            node.op = new()
        return node

    visit_AugAssign = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self.hit(node, "drop not"):
            return node.operand
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
        if self.hit(node, f"{old} -> {new}"):
            node.op = ast.Or() if new == "or" else ast.And()
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) in (int, float) and self.hit(node, f"{value} -> {value + 1}"):
            node.value += 1
        return node


def find_sites(module):
    """``(line, function, operator, source)`` of every site of
    ``module``, a path, in ``Mutator``'s order; ``source`` is the
    site's line, stripped."""
    text = module.read_text()
    mutator = Mutator()
    mutator.visit(ast.parse(text))
    lines = text.splitlines()
    return [(line, function, op, lines[line - 1].strip()) for line, function, op in mutator.sites]


def listed_equivalent():
    """The known equivalent mutants, as ``(module, function, source,
    operator)``."""
    return {
        (e["module"], e["function"], e["line"], e["operator"])
        for e in json.loads(EQUIVALENT.read_text())
    }


def stop(signum, frame):
    """Leave by SystemExit on SIGTERM or SIGINT, so that the temporary
    copy is removed and ``subprocess.run`` kills a running pytest."""
    raise SystemExit(128 + signum)


def subset(module):
    """The fast subset with ``module``'s own test file, if it is one of
    them, first: a mutant that only that file kills then dies in seconds
    rather than after the rest of the subset."""
    own = f"tests/test_{module.stem}.py"
    return [own] + [path for path in FAST if path != own] if own in FAST else FAST


def run_mutant(module, target, timeout):
    """'killed', 'survived' or 'timeout' for mutant ``target`` of ``module``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / module.relative_to(ROOT)
        path.write_text(ast.unparse(Mutator(target).visit(ast.parse(path.read_text()))))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        cmd += subset(module)
        env = dict(os.environ, PYTHONPATH=str(copy))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if proc.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", type=Path, help="a module under src/: src/covermodels/engine.py")
    parser.add_argument("--sample", type=int, default=60, help="mutants to run; 0 runs every site")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    module = args.module.resolve()
    name = module.relative_to(ROOT).as_posix()
    listed = {(f, source, op) for m, f, source, op in listed_equivalent() if m == name}
    sites = find_sites(module)
    picked = range(len(sites))
    if 0 < args.sample < len(picked):
        picked = sorted(random.Random(args.seed).sample(picked, args.sample))
    for function, source, operator in listed - {(f, src, op) for _, f, op, src in sites}:
        print(f"listed but no such site: {operator} in {function}: {source}")
    tally = {}
    for target in picked:
        line, function, operator, source = sites[target]
        outcome = run_mutant(module, target, args.timeout)
        if outcome == "survived" and (function, source, operator) in listed:
            outcome = "equivalent"
        tally[outcome] = tally.get(outcome, 0) + 1
        print(f"{target:4d} line {line:4d} {outcome:10s} {operator:12s} {source}", flush=True)
    print(f"{len(sites)} sites, {len(picked)} run: {tally}")
    return 1 if tally.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
