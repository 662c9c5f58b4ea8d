"""Every module-level import is read, and the package holds only what it runs.

No linter is a dependency of this package, so these scans parse the sources
with ``ast``.  The import scan covers each module of ``src/qdelete/`` (except
``__init__.py``, whose imports are its exports) and each test module: a name
counts as read when it occurs as a loaded name anywhere in the module;
``from __future__`` imports are exempt.  The definition scan covers
``src/qdelete/`` as a whole: every public module-level function or class, and
every public method, must be named somewhere in the package (as a loaded name
or an attribute) or be exported in ``__init__.__all__``.  Code that only the
tests call belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qdelete").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(ROOT)} imports but never reads {unused}"


def test_the_scan_finds_unused_and_exempts_future_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from math import pi, tau\n"
        "def f():\n    return np.zeros(1), os.sep, pi\n"
    )
    assert unused_imports(source) == ["json", "tau"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Public definitions of a package that the package never names nor exports.

    ``sources`` maps module names to their source; the ``__init__`` module's
    ``__all__`` lists the exports.  A definition counts as used when its name
    is loaded or read as an attribute anywhere in the package; names that
    start with an underscore are exempt.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            used.update(ast.literal_eval(node.value))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                found.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                found.append((f"{module}.{node.name}", node.name))
                found += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, functions)
                ]
    return [path for path, name in found if not name.startswith("_") and name not in used]


def test_package_defines_only_what_it_uses():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    unused = unreferenced_definitions(sources)
    assert not unused, f"src/qdelete/ defines but never uses or exports {unused}"


def test_the_definition_scan_finds_unused_and_exempts_exports():
    sources = {
        "__init__": "from .a import Exported\n__all__ = ['Exported']\n",
        "a": (
            "class Exported:\n"
            "    def used(self):\n        return helper()\n"
            "    def unused(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "def helper():\n    return Exported().used\n"
            "def orphan():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b": "import a\ndef caller():\n    return a.orphan_attr\n",
    }
    assert unreferenced_definitions(sources) == ["a.Exported.unused", "a.orphan", "b.caller"]
