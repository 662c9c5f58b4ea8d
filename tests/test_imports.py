"""Every module-level import is read, and the package holds only what it runs.

No linter is a dependency of this package, so these scans parse the sources
with ``ast``.  The import scan covers each module of ``src/qdelete/`` and each
test module: a name counts as read when it occurs as a loaded name anywhere
in the module; ``from __future__`` imports are exempt.  The definition scan
covers ``src/qdelete/`` as a whole: every public module-level function, class
or constant must be named somewhere in the package (as a loaded name or an
attribute), and every public method must be read as an attribute somewhere
in the package.  No name is exempt: the package exports nothing, and its
``__init__.py`` binds only ``__version__``.  A private module-level name must
be named in its own module.  Code that only the tests call belongs in the
tests, as the per-point simulation (``helpers.outputs``) does.  The same scan
covers ``tests/`` as one package, with the ``test_*`` functions exempt: a
helper or constant that no test reads fails it.  A third
scan requires each module-level name of ``tests/`` to be defined in one
module only: a helper that two test modules use lives in ``helpers.py``.
"""

import ast

import pytest

from mutants import PACKAGE, ROOT

SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = SOURCES + TESTS


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


def module_level_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions of a package that the package never uses.

    ``sources`` maps module names to their source.  A module-level definition
    counts as used when its name is loaded or read as an attribute anywhere in
    the package; a
    method only when it is read as an attribute, since a local name that
    equals the method's does not call it.  Module-level constants (names
    bound by a top-level assignment) count like functions.  A private
    module-level name (one underscore, not a dunder) counts as used only when
    its own module names it.  Private methods and dunders are exempt.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named_in = {module: set() for module in trees}  # what each module loads or reads
    loaded, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
                named_in[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                named_in[module].add(node.attr)
    module_level_used = loaded | attributes
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        own_names = named_in[module]
        for node in tree.body:
            found += [
                (f"{module}.{name}", name, own_names if name.startswith("_") else module_level_used)
                for name in module_level_names(node)
                if not (name.startswith("__") and name.endswith("__"))
            ]
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{module}.{node.name}.{item.name}", item.name, attributes)
                    for item in node.body
                    if isinstance(item, functions) and not item.name.startswith("_")
                ]
    return [path for path, name, used in found if name not in used]


def test_package_defines_only_what_it_uses():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    unused = unreferenced_definitions(sources)
    assert not unused, f"src/qdelete/ defines but never uses {unused}"


def test_the_package_module_exports_nothing():
    # no import, no __all__: every public name of the package must be used by it
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [name for node in tree.body for name in module_level_names(node)] == ["__version__"]


def test_tests_define_only_what_they_read():
    # the same scan over tests/ as one package; pytest collects the test_*
    # functions, so no module need name them
    sources = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    unused = [
        path for path in unreferenced_definitions(sources)
        if not path.rpartition(".")[2].startswith("test_")
    ]
    assert not unused, f"tests/ defines but never reads {unused}"


def test_tests_define_each_module_level_name_once():
    defined_in = {}
    for path in TESTS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in module_level_names(node):
                defined_in.setdefault(name, []).append(path.name)
    twice = {name: modules for name, modules in defined_in.items() if len(modules) > 1}
    assert not twice, f"tests/ defines these names in more than one module: {twice}"


def test_the_definition_scan_finds_unused_definitions():
    sources = {
        "__init__": "__all__ = ['orphan']\n",
        "a": (
            "class Widget:\n"
            "    def used(self):\n        return helper()\n"
            "    def unused(self):\n        pass\n"
            "    def shadowed(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "def helper(shadowed=None):\n    return Widget().used, shadowed, _PRIVATE_CONSTANT\n"
            "def orphan():\n    pass\n"
            "def _private():\n    pass\n"
            "USED, UNUSED_CONSTANT = 1, 2\n"
            "ANNOTATED: int = 3\n"
            "_PRIVATE_CONSTANT = USED, _private\n"
        ),
        "b": "import a\ndef caller():\n    return a.orphan_attr\n",
    }
    # `shadowed` is read only as a parameter of the same name, which is no call, and
    # a name listed in `__all__` is not exempt
    assert unreferenced_definitions(sources) == [
        "a.Widget.unused", "a.Widget.shadowed", "a.orphan", "a.UNUSED_CONSTANT",
        "a.ANNOTATED", "b.caller",
    ]


def test_the_definition_scan_requires_private_names_in_their_own_module():
    sources = {
        "__init__": "import b\nb.caller()\n",
        "a": (
            "__version__ = '1'\n"
            "class Public:\n    def _hook(self):\n        pass\n"
            "def _used():\n    return _CONSTANT\n"
            "_CONSTANT = 1\n"
            "def _orphan():\n    pass\n"
            "_UNUSED = 2\n"
            "def _used_elsewhere():\n    pass\n"
            "def public():\n    return _used(), Public\n"
        ),
        "b": (
            "import a\nfrom a import _used_elsewhere\n"
            "def caller():\n    return _used_elsewhere(), a.public\n"
        ),
    }
    # dunders and private methods are exempt; a private name read only by
    # another module counts as unused in its own
    assert unreferenced_definitions(sources) == ["a._orphan", "a._UNUSED", "a._used_elsewhere"]
