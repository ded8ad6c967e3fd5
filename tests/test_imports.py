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

Every public name of the package is used, and a use is resolved, not
matched as a word.  A name in a module's ``__all__`` is used when a
``src/`` module imports it by name from its module, reads it as an
attribute, or, in its own module, reads it as a global: a local
variable or a parameter of the same spelling is no use (``symtable``
tells which).  A public method or property of a public class is used
when some ``src/`` attribute read names it.  Either is also used when a
code span or code block of ``README.md`` names it; its prose does not
count.  Dunder names such as ``__version__`` are exempt.  A public name
that only tests use is surface with no caller.

The export lists agree: every name in a module's ``__all__`` is
re-exported by ``kreinact`` as the same object, ``kreinact.__all__``
names each object once, and each of its names other than ``__version__``
and ``main`` comes from exactly one module's ``__all__``.
"""

import ast
import importlib
import re
import symtable
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
README = PACKAGE.parent.parent / "README.md"


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


def _used_names(trees) -> set:
    """Every identifier that some tree uses as a ``Name`` or the attribute of an ``Attribute``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unreferenced(sources: dict) -> list:
    """Private definitions of ``{name: source}`` that no ``Name`` or ``Attribute`` of any source uses."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = _used_names(trees.values())
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


def _public_definitions(tree: ast.Module) -> list:
    """``(name, line)`` of each name in the module's ``__all__``, and each public method or
    property of a public class as ``(Class.method, line)``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            found += [(elt.value, elt.lineno) for elt in node.value.elts if isinstance(elt, ast.Constant)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [(f"{node.name}.{d.name}", d.lineno) for d in node.body
                      if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_")]
    return found


def _global_reads(source: str) -> set:
    """Names that some scope of the source reads as a global, not as a local or a parameter."""
    found, tables = set(), [symtable.symtable(source, "<source>", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        found |= {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    return found


def _unused_public(sources: dict, readme: str) -> list:
    """Public definitions of ``{file: source}`` that no source uses and no code span of ``readme`` names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    documented = {word for span in re.findall(r"```.*?```|`[^`]+`", readme, re.S)
                  for word in re.findall(r"\w+", span)}
    # (module, name): imported by name from its module, or read as a global in it.
    resolved = {(node.module.rpartition(".")[2], alias.name) for node in nodes
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
    resolved |= {(Path(name).stem, read) for name, source in sources.items()
                 for read in _global_reads(source)}

    def used(module: str, public: str) -> bool:
        owner, _, name = public.rpartition(".")
        return (name in attributes | documented or (name.startswith("__") and name.endswith("__"))
                or not owner and (module, name) in resolved)

    return sorted(f"{name}: {public} (line {line})" for name, tree in trees.items()
                  for public, line in _public_definitions(tree) if not used(Path(name).stem, public))


# A name counts by what it resolves to: a local variable, a parameter, prose and a
# bare name that spells a method are no use; an attribute read or a code span is.
def test_the_check_sees_a_public_name_only_tests_use():
    sources = {
        "a.py": "__all__ = ['__version__', 'imported', 'read', 'reached', 'documented', 'shadowed',\n"
                "           'mentioned']\n__version__ = '1'\ndef imported():\n    pass\ndef read():\n    pass\n"
                "def reached():\n    pass\ndef documented():\n    pass\ndef shadowed():\n    pass\n"
                "def mentioned():\n    pass\ndef _helper(shadowed):\n    return read(shadowed)\n"
                "class Box:\n    def size(self):\n        pass\n    def volume(self):\n        pass\n"
                "    def _hidden(self):\n        pass\nclass _Private:\n    def idle(self):\n        pass\n",
        "b.py": "import a\nfrom a import imported\nvolume = imported()\n"
                "print(a.reached, a.Box().size(), volume)\ndef f():\n    shadowed = 2\n    return shadowed\n",
    }
    readme = "Call `documented` first, not the one mentioned here.\n\n```python\nimport a\n```\n"
    assert _unused_public(sources, readme) == ["a.py: Box.volume (line 21)", "a.py: mentioned (line 2)",
                                               "a.py: shadowed (line 1)"]


def test_every_public_name_is_used_in_src_or_the_readme():
    sources = {path.name: path.read_text() for path in ALL_MODULES}
    assert sum(len(_public_definitions(ast.parse(s))) for s in sources.values()) > 80
    assert _unused_public(sources, README.read_text()) == []


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
