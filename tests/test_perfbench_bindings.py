"""The benchmark's names and keywords into the package must still exist.

``perfbench/tracing.py`` wraps names as bound in the calling modules, and
the workloads call ``kreinact`` functions by name and keyword.  A renamed
or deleted name or parameter breaks every benchmark run, which otherwise
only the slow ``perfbench/test_smoke.py`` would show.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import kreinact

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_the_tracer_installs():
    tracing = _tracing()
    bindings = [(module, attr) for module, names in tracing._SPANNED.items() for attr in names]
    bindings += [(module, "QHatEvaluator") for module in tracing._QHAT_USERS]
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    minimize = importlib.import_module("kreinact.minimize")
    before = minimize.action
    with tracing.Tracer().installed():
        assert minimize.action is not before
    assert minimize.action is before


def _package_uses():
    """``(file, name, keywords)`` for each ``kreinact.<name>`` that ``perfbench/*.py`` reads.

    ``keywords`` are those of a call of the name, empty where it is not called.
    """
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "kreinact"}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                call = calls.get(id(node))
                yield path.name, node.attr, [k.arg for k in call.keywords if k.arg] if call else []


def test_every_package_name_and_keyword_perfbench_uses_exists():
    uses = list(_package_uses())
    assert ("workloads.py", "lagrange_from_point", ["strict"]) in uses
    missing = [f"{file}: {name}" for file, name, _ in uses if not hasattr(kreinact, name)]
    assert missing == []
    unknown = []
    for file, name, keywords in uses:
        params = inspect.signature(getattr(kreinact, name)).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown += [f"{file}: {name}({k}=...)" for k in keywords if k not in params]
    assert unknown == []
