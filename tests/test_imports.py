"""Import hygiene of the package modules and the tests.

Every name a package module or test file imports is used there or
exported.  No linter runs on the repository, so a dead import would
otherwise go unnoticed.  ``__init__.py`` is exempt: it exists to
re-export names.

No package module imports scipy, at module level or inside a function:
numpy is the package's only runtime dependency.  scipy serves the tests'
oracles alone.

Every private function, class and method of the package is referenced
in ``src/`` beyond its definition, as a name or an attribute: a helper
that nothing calls is dead code.  Likewise every private keyword-only
parameter (``*, _name``) of a package function or method is passed by
name by some call in ``src/``: a private keyword that no caller passes
keeps a dead branch alive.

The export lists agree: every name in a module's ``__all__`` is
re-exported by ``kreinact`` as the same object, ``kreinact.__all__``
names each object once, and each of its names other than ``__version__``
and ``main`` comes from exactly one module's ``__all__``.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" binds "c".
                bound = alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name
                imported[alias.asname or bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_a_dead_import():
    source = "import os\nimport sys\nfrom math import inf, pi\n__all__ = ['pi']\nprint(sys.argv)\n"
    assert _unused_imports(source) == ["inf (line 3)", "os (line 1)"]


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_FILES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES],
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _scipy_imports(source: str) -> list:
    """scipy modules the source imports anywhere, in a function or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return sorted(m for m in found if m == "scipy" or m.startswith("scipy."))


# The check finds scipy imports at load time, the case these tests' names
# mention, and inside functions alike.
def test_the_check_sees_a_load_time_scipy_import():
    source = (
        "import numpy as np\n"
        "import scipy.linalg as sla\n"
        "try:\n    from scipy import optimize\nexcept ImportError:\n    pass\n"
        "def oracle():\n    import scipy.optimize\n    return scipy.optimize\n"
        "class Oracle:\n    def method(self):\n        from scipy import special\n"
        "from .scipy import helper\n"
    )
    assert _scipy_imports(source) == ["scipy", "scipy", "scipy.linalg", "scipy.optimize"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_load_time_scipy_import(path):
    assert _scipy_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> list:
    """``(name, line)`` of each private module-level function or class, and each private method."""
    found = []
    for node in tree.body:
        defs = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        found += [(d.name, d.lineno) for d in defs
                  if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and d.name.startswith("_") and not d.name.endswith("__")]
    return found


def _unreferenced(sources: dict) -> list:
    """Private definitions of ``{name: source}`` that no ``Name`` or ``Attribute`` of any source uses."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(f"{name}: {helper} (line {line})" for name, tree in trees.items()
                  for helper, line in _private_definitions(tree) if helper not in used)


def test_the_check_sees_a_dead_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _dead():\n    pass\nclass _Box:\n"
                "    def __init__(self):\n        self._live()\n    def _live(self):\n        pass\n"
                "    def _idle(self):\n        pass\n",
        "b.py": "from a import _used, _Box\n_used()\n_Box()\n",
    }
    assert _unreferenced(sources) == ["a.py: _dead (line 3)", "a.py: _idle (line 10)"]


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text() for path in ALL_MODULES}
    assert sum(len(_private_definitions(ast.parse(s))) for s in sources.values()) > 50
    assert _unreferenced(sources) == []


def _private_keywords(tree: ast.Module) -> list:
    """``(function, keyword, line)`` of each keyword-only parameter named ``_...`` of a function or method."""
    return [(node.name, arg.arg, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in node.args.kwonlyargs if arg.arg.startswith("_")]


def _unpassed_keywords(sources: dict) -> list:
    """Private keyword-only parameters of ``{name: source}`` that no call of any source passes by name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    passed = {keyword.arg for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) for keyword in node.keywords}
    return sorted(f"{name}: {function}({keyword}) (line {line})" for name, tree in trees.items()
                  for function, keyword, line in _private_keywords(tree) if keyword not in passed)


def test_the_check_sees_a_private_keyword_no_call_passes():
    sources = {
        "a.py": "def f(x, *, _used=None, _dead=None, public=None):\n    pass\n"
                "class Box:\n    def method(self, _positional=None, *, _idle=None):\n        pass\n",
        "b.py": "from a import f\nf(1, _used=2)\nf(1, _positional=3)\n",
    }
    assert _unpassed_keywords(sources) == ["a.py: f(_dead) (line 1)", "a.py: method(_idle) (line 4)"]


def test_every_private_keyword_is_passed_by_some_call():
    sources = {path.name: path.read_text() for path in ALL_MODULES}
    assert {keyword for tree in map(ast.parse, sources.values())
            for _, keyword, _ in _private_keywords(tree)} >= {"_support", "_atom_rows"}
    assert _unpassed_keywords(sources) == []


# Module exports that the package deliberately does not re-export.
_NOT_REEXPORTED = {("cli", "build_parser")}


def test_module_exports_are_reexported_by_the_package():
    package = importlib.import_module("kreinact")
    missing = []
    for path in MODULES:
        module = importlib.import_module(f"kreinact.{path.stem}")
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", [])
            if (path.stem, name) not in _NOT_REEXPORTED
            and (name not in package.__all__
                 or getattr(package, name, None) is not getattr(module, name))
        ]
    assert missing == []


def test_package_exports_are_unique_and_resolve():
    package = importlib.import_module("kreinact")
    names = package.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(package, n)] == []


def test_package_exports_come_from_one_module_each():
    package = importlib.import_module("kreinact")
    owners = {}
    for path in MODULES:
        for name in getattr(importlib.import_module(f"kreinact.{path.stem}"), "__all__", []):
            owners.setdefault(name, []).append(path.stem)
    assert {
        name: owners.get(name, [])
        for name in package.__all__
        if name not in ("__version__", "main") and len(owners.get(name, [])) != 1
    } == {}
