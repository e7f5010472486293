"""A seeded mutation sample of one module against the fast tier-1 subset.

Each mutant changes one site of the module: it flips a comparison
(``<`` and ``<=``, ``==`` and ``!=``, ``is``, ``in``), swaps an
arithmetic operator (``+`` and ``-``, ``*`` and ``/``), drops a
``not``, bumps a number constant by 1, or swaps ``and`` and ``or``.
The package is copied to a temporary directory and the copy's module is
rewritten, so ``src/`` is never written. The fast subset runs with
``-x`` and a timeout against the copy. A mutant the subset passes
survived: either a test gap or a change no output can show.

    python tests/mutation.py src/covermodels/engine.py --sample 60 --seed 0

Not a test module: pytest does not collect it.
"""

import argparse
import ast
import os
import random
import shutil
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


class Mutator(ast.NodeTransformer):
    """Numbers the sites in visiting order, in ``sites`` as (kind,
    line), and mutates the one numbered ``target``."""

    def __init__(self, target=-1):
        self.target, self.sites = target, []

    def hit(self, node, kind):
        self.sites.append((kind, node.lineno))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE and self.hit(node, "compare"):
                node.ops[i] = COMPARE[type(op)]()
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in ARITH and self.hit(node, "arith"):
            node.op = ARITH[type(node.op)]()
        return node

    visit_AugAssign = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self.hit(node, "not"):
            return node.operand
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        if self.hit(node, "and/or"):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return node

    def visit_Constant(self, node):
        if type(node.value) in (int, float) and self.hit(node, "constant"):
            node.value += 1
        return node


def run_mutant(module, target, timeout):
    """'killed', 'survived' or 'timeout' for mutant ``target`` of ``module``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / module.relative_to(ROOT)
        path.write_text(ast.unparse(Mutator(target).visit(ast.parse(path.read_text()))))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *FAST]
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
    module = args.module.resolve()
    mutator = Mutator()
    mutator.visit(ast.parse(module.read_text()))
    picked = range(len(mutator.sites))
    if 0 < args.sample < len(picked):
        picked = sorted(random.Random(args.seed).sample(picked, args.sample))
    lines = module.read_text().splitlines()
    tally = {}
    for target in picked:
        kind, line = mutator.sites[target]
        outcome = run_mutant(module, target, args.timeout)
        tally[outcome] = tally.get(outcome, 0) + 1
        source = lines[line - 1].strip()
        print(f"{target:4d} {kind:8s} line {line:4d} {outcome:8s} {source}", flush=True)
    print(f"{len(mutator.sites)} sites, {len(picked)} run: {tally}")


if __name__ == "__main__":
    main()
