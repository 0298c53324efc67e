"""Mutation audit: does the suite fail when one operator in a function flips?

One mutant per site, each swapping a single operator:
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``in``/``not in``, ``+``/``-`` (``+=``/``-=`` too) and ``and``/``or``.
Each mutant is written into a copy of the repository (never the checkout
itself), the test command runs there with a timeout, and a failure or a
timeout counts as a kill. The file is restored after every mutant.

Usage (from the repository root, with a throwaway copy that includes
``perfbench/``)::

    python tests/mutants.py COPY src/gridgram/generator.py _derive_one _derive run_batch \\
        [--lines 713] [--lines 759]

``FUNCTION`` names select whole top-level functions or methods
(``Engine.run``); each ``--lines A[-B]`` adds the sites on those lines. The
test command is tier-1 with ``-x -q -p no:cacheprovider --hypothesis-seed=0``,
stopped after ``TIMEOUT`` seconds. The file is rewritten with
``ast.unparse``, so the unmutated rewrite must pass first. Prints one line per
mutant and a final count; the survivors are the lines marked ``SURVIVED``.
Each line names the mutant's site index in the whole file, source line, column
and (in a chained comparison) operator index, so two runs over the same source
compare with a plain ``diff``. Not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
COMMAND = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--continue-on-collection-errors", "--hypothesis-seed=0",
]
TIMEOUT = 300  # seconds per suite run


def _functions(tree: ast.Module, names: list[str]) -> list[ast.AST]:
    """The top-level functions and ``Class.method``s named in ``names``."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"no function named {missing}")
    return [found[n] for n in names]


def sites(tree: ast.Module, names: list[str], lines: set[int]) -> list[tuple]:
    """(site index, node, index into its ops or None, line) for every swappable operator in scope.

    Site indices count every swappable operator of the file, in scope or
    not, so a site keeps its index whatever the selection.
    """
    scope = {id(n) for f in _functions(tree, names) for n in ast.walk(f)}
    out, n = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            ops = [i for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            ops = [None]
        else:
            continue
        if id(node) in scope or node.lineno in lines:
            out += [(n + j, node, i, node.lineno) for j, i in enumerate(ops)]
        n += len(ops)
    return out


def _flip(node, i) -> str:
    """Swap the operator at (node, i); return a label of the swap."""
    if i is None:
        old = node.op
        node.op = SWAPS[type(old)]()
    else:
        old = node.ops[i]
        node.ops[i] = SWAPS[type(old)]()
    new = node.op if i is None else node.ops[i]
    return f"{type(old).__name__}->{type(new).__name__}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("copy", type=Path, help="a throwaway copy of the repository")
    ap.add_argument("file", help="the source file, relative to the repository root")
    ap.add_argument("functions", nargs="*")
    ap.add_argument("--lines", action="append", default=[], help="A[-B]: also these lines")
    args = ap.parse_args(argv)
    if args.copy.resolve() == Path(__file__).resolve().parents[1]:
        raise SystemExit("refusing to mutate the checkout itself; pass a copy")
    target = args.copy / args.file
    original = target.read_text()
    lines = set()
    for spec in args.lines:
        a, _, b = spec.partition("-")
        lines.update(range(int(a), int(b or a) + 1))
    count = len(sites(ast.parse(original), args.functions, lines))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}

    def suite_fails() -> bool:
        try:
            done = subprocess.run(
                COMMAND, cwd=args.copy, env=env, timeout=TIMEOUT,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            return done.returncode != 0
        except subprocess.TimeoutExpired:
            return True

    survivors = 0
    try:
        target.write_text(ast.unparse(ast.parse(original)))
        if suite_fails():
            raise SystemExit("the suite fails on the unmutated rewrite; nothing to audit")
        for k in range(count):
            tree = ast.parse(original)  # a fresh tree per mutant: one swap each
            site, node, i, line = sites(tree, args.functions, lines)[k]
            label = _flip(node, i)
            target.write_text(ast.unparse(tree))
            killed = suite_fails()
            survivors += not killed
            op = "" if i is None else f" op {i}"
            where = f"site {site} line {line} col {node.col_offset}{op}"
            print(f"{'killed' if killed else 'SURVIVED'} {where} {label}", flush=True)
    finally:
        target.write_text(original)
    print(f"{count - survivors} of {count} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
