"""Mutation check of the test suite: do the tests fail when the package is wrong?

Each mutant changes one site of ``src/qdelete/``: it swaps an arithmetic
operator (``+``/``-``, ``*``/``/``, ``**``/``*``, ``@``/``*``), flips a
comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``) or adds 1 to a numeric
constant.  A seeded sample of the mutants is drawn; for each, the package, the
tests, ``README.md`` and ``pyproject.toml`` are copied into a temporary
directory, the mutated module is written there, and the suite runs on that
copy with ``pytest -x``.  The checkout itself is never modified.  A mutant
that the suite does not fail is a survivor: either an equivalent mutant or a
behaviour no test pins.

Run by hand from the repository root (the Tier-1 suite does not collect it)::

    python tests/mutants.py --seed 1 --sample 45 --workers 2
    python tests/mutants.py --module optimizer.py --sample 1000

``--module`` draws only from the mutants of one module; a sample at least
as large as that module's count runs every one of them.

The whole-package run, ``python tests/mutants.py --sample 1000``, runs every
mutant of every module.  It is the gate for any change that deletes or merges
tests: it must show no survivor outside ``EQUIVALENT``.

``EQUIVALENT`` lists the mutants no test can kill, keyed by (file, enclosing
function, change):

- ``optimizer._DEGENERATE_PENALTY`` 1e6 -> 1000001: any penalty far above
  the objective's range gives the same search;
- in ``optimizer.random_machine``'s draw ``A + 1j * B``: ``+`` -> ``-``,
  ``*`` -> ``/`` and ``1j`` -> ``(1+1j)``.  Each still gives a generic complex
  4x2 matrix whose QR factor is a valid machine.

Survivors are printed as ``file:line``, the enclosing function and the change
made, and a listed one is marked ``equivalent``.  Two runs whose lines have
shifted compare with ``diff`` once the line numbers are cut, e.g.
``sed 's/:[0-9]*//'``.  The exit code is 0 when every sampled mutant outside
``EQUIVALENT`` was killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdelete"
COPIED = ("src/qdelete", "tests", "README.md", "pyproject.toml")

#: The mutants no test can kill, as (module file, enclosing function, change).
EQUIVALENT = {
    ("optimizer.py", "<module>", "1000000.0 -> 1000001.0"),
    ("optimizer.py", "random_machine", "+ -> -"),
    ("optimizer.py", "random_machine", "* -> /"),
    ("optimizer.py", "random_machine", "1j -> (1+1j)"),
}

#: The Tier-1 test that each EQUIVALENT entry names one mutant.  A mutant of a
#: listed site fails it by renaming the site, not by changing the package's
#: behaviour, so the mutated copies run the suite without it.
SELF_CHECK = "tests/test_imports.py::test_each_equivalent_mutant_is_one_site_of_the_package"

#: Seconds one suite run may take before its mutant counts as killed (by hanging).
TIMEOUT_S = 600

BINARY_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
}
COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**", ast.MatMult: "@",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _sites(tree: ast.AST):
    """Yield (node, operator index or None, description) for every mutable site, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY_SWAPS:
            old = type(node.op)
            yield node, None, f"{SYMBOLS[old]} -> {SYMBOLS[BINARY_SWAPS[old]]}"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE_FLIPS:
                    yield node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[COMPARE_FLIPS[type(op)]]}"
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float, complex))
            and not isinstance(node.value, bool)
        ):
            yield node, None, f"{node.value!r} -> {node.value + 1!r}"


def _scopes(tree: ast.AST) -> dict[ast.AST, str]:
    """The dotted name of the function or class around each node ("<module>" outside any)."""
    scopes = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
            scopes[child] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return scopes


def list_mutants() -> list[tuple[str, int, int, str, str]]:
    """Every mutant of the package as (module file, site number, line, function, description)."""
    mutants = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = _scopes(tree)
        for k, (node, _, description) in enumerate(_sites(tree)):
            mutants.append((path.name, k, node.lineno, scopes[node], description))
    return mutants


def mutated_source(source: str, site: int) -> str:
    """The module's source with its site-th mutation applied."""
    tree = ast.parse(source)
    for k, (node, index, _) in enumerate(_sites(tree)):
        if k != site:
            continue
        if isinstance(node, ast.Compare):
            node.ops[index] = COMPARE_FLIPS[type(node.ops[index])]()
        elif isinstance(node, ast.Constant):
            node.value = node.value + 1
        else:
            node.op = BINARY_SWAPS[type(node.op)]()
        return ast.unparse(tree) + "\n"
    raise IndexError(f"no site {site}")


def run_suite(mutant: tuple[str, int, int, str, str] | None) -> bool:
    """Run the suite on a temporary copy of the checkout; True when it passes."""
    with tempfile.TemporaryDirectory(prefix="qdelete-mutant-") as tmp:
        copy = Path(tmp)
        for rel in COPIED:
            src = ROOT / rel
            if src.is_dir():
                shutil.copytree(src, copy / rel, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / rel)
        if mutant is not None:
            target = copy / "src" / "qdelete" / mutant[0]
            target.write_text(mutated_source(target.read_text(encoding="utf-8"), mutant[1]),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--deselect", SELF_CHECK]
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample")
    parser.add_argument("--sample", type=int, default=45, help="mutants to run")
    parser.add_argument("--workers", type=int, default=2,
                        help="suite runs in parallel (at most the CPU count)")
    parser.add_argument("--module", metavar="FILE",
                        help="mutate only this file of src/qdelete/, e.g. optimizer.py")
    args = parser.parse_args(argv)
    if args.sample < 1 or args.workers < 1:
        parser.error("--sample and --workers must be >= 1")
    workers = min(args.workers, os.cpu_count() or 1)
    population = list_mutants()
    if args.module is not None:
        population = [m for m in population if m[0] == args.module]
        if not population:
            parser.error(f"--module {args.module!r} names no mutable file of src/qdelete/")

    if not run_suite(None):
        print("the suite fails on the unmutated copy; no mutant can be judged", file=sys.stderr)
        return 2
    sample = sorted(random.Random(args.seed).sample(population, min(args.sample, len(population))))
    print(f"{len(sample)} of {len(population)} mutants, seed {args.seed}, {workers} workers")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        passed = list(pool.map(run_suite, sample))
    survivors = [m for m, alive in zip(sample, passed) if alive]
    gaps = 0
    for module, _, line, function, description in survivors:
        equivalent = (module, function, description) in EQUIVALENT
        gaps += not equivalent
        print(f"survived  src/qdelete/{module}:{line}  {function}  {description}"
              + ("  equivalent" if equivalent else ""))
    print(f"killed {len(sample) - len(survivors)} of {len(sample)}")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
