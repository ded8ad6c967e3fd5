"""Two forms are written in one module each, and the action cores take checked values.

A range test against infinity (``0 < x < math.inf``) is the real-number
rule, which ``errors._check_real`` holds: a hand-written copy lets an
integer beyond the float range through and names the argument in its own
words.  The Hermitian part ``0.5 * (X + X.conj()...)`` is
``krein._hermitize``, which serves single matrices and stacks alike; a copy
elsewhere can round differently from the one the spectra share.  In
``action.py`` the public entries check ``delta`` and 4-vectors; a private
function that checks them again repeats the check on every line-search
trial and field build that calls it.  The first-order report is chained
(``pushforward``, ``lagrange_parameters``, ``el_residuals``) in
``elverify._certify`` alone, so an entry added to the report lands in
``kreinact verify`` and in the minimizer's certificate at once.  No
module imports a thread or process module: every stack is one call on
the calling thread, so neither fork safety nor callers racing to build a
pool can become a concern.  No module calls ``meshgrid``: a grid built per
call pays about 100 µs of its broadcast copies at four axes, where gathering
the axis values through one ``np.indices`` table gives the same bytes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"


def _is_inf(node) -> bool:
    """Whether ``node`` is ``math.inf`` or ``np.inf``, negated or not."""
    node = node.operand if isinstance(node, ast.UnaryOp) else node
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("math", "np", "numpy"))


def _inf_comparisons(source: str) -> list:
    """Line numbers of the comparisons that have ``math.inf`` or ``np.inf`` as an operand."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators]))]


def _hermitian_parts(source: str) -> list:
    """Line numbers of the products ``0.5 * (X + Y)`` whose ``Y`` takes a ``.conj()``."""
    def half(node):
        return isinstance(node, ast.Constant) and node.value == 0.5

    def conjugate_sum(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and any(isinstance(n, ast.Attribute) and n.attr == "conj" for n in ast.walk(node.right)))

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (half(node.left) and conjugate_sum(node.right) or half(node.right) and conjugate_sum(node.left))]


def _found_outside(owner: str, find) -> dict:
    found = {path.name: find(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found.pop(owner)
    return {name: lines for name, lines in found.items() if lines}


def test_the_checks_see_a_range_test_and_a_hermitian_part():
    source = ("import math\nimport numpy as np\n"
              "ok = 0.0 < x < math.inf\nok = -np.inf < y\nz = math.inf\n"
              "H = 0.5 * (A + A.conj().T)\nK = 0.5 * (A + A.T)\nL = (B + B.conj().swapaxes(-1, -2)) * 0.5\n")
    assert _inf_comparisons(source) == [3, 4]
    assert _hermitian_parts(source) == [6, 8]


def test_only_errors_compares_with_infinity():
    assert _found_outside("errors.py", _inf_comparisons) == {}


def test_only_krein_forms_a_hermitian_part():
    assert _found_outside("krein.py", _hermitian_parts) == {}


REPORT_CHAIN = {"pushforward", "lagrange_parameters", "el_residuals"}


def _calls_of(names, source: str) -> list:
    """Line numbers of the calls of a function of ``names``, by name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr if isinstance(node.func, ast.Attribute) else None) in names]


def _report_chain_calls(source: str) -> list:
    return _calls_of(REPORT_CHAIN, source)


def test_the_check_sees_a_call_of_the_report_chain():
    source = ("from . import elverify\nfrom .elverify import pushforward\n"
              "mu = pushforward(m, qs)\nf = el_residuals\nr = elverify.el_residuals(mu, 0, 0, p, qs, 'a')\n"
              "a = lagrange_parameters(\n    mu, c, f)\nb = fns['pushforward'](m)\n")
    assert _report_chain_calls(source) == [3, 5, 6]


def test_only_elverify_chains_the_report():
    assert _found_outside("elverify.py", _report_chain_calls) == {}


INPUT_CHECKS = {"_check_delta", "_check_real", "_check_count", "_entries", "_reals", "_four_vector"}


def _checking_private_functions(source: str) -> dict:
    """Private functions (one leading underscore) other than ``_check_delta`` that call an
    input check, with the checks they call."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")
                and fn.name != "_check_delta"):
            calls = {node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id in INPUT_CHECKS}
            if calls:
                found[fn.name] = sorted(calls)
    return found


def test_the_check_sees_a_private_function_that_checks_its_input():
    source = ("def _check_delta(delta):\n    return _check_real(delta, 'delta', 0)\n"
              "def _core(lams, delta):\n    return lams + _check_delta(delta)\n"
              "def _field(xi):\n    def inner():\n        return _four_vector(xi, 'xi')\n    return inner()\n"
              "def entry(delta):\n    return _core(0.0, _check_delta(delta))\n"
              "class Evaluator:\n    def __init__(self, delta):\n        self.delta = _check_delta(delta)\n")
    assert _checking_private_functions(source) == {"_core": ["_check_delta"], "_field": ["_four_vector"]}


def test_the_action_cores_take_checked_values():
    assert _checking_private_functions((PACKAGE / "action.py").read_text()) == {}


THREAD_MODULES = ("concurrent", "threading", "_thread", "multiprocessing")


def _thread_imports(source: str) -> dict:
    """The thread and process modules the source imports, by the function that
    imports them (``None`` at module level)."""
    found = {}

    def visit(node, function):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            if name.split(".")[0] in THREAD_MODULES:
                found.setdefault(function, []).append(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_where_a_thread_module_is_imported():
    source = ("import os\nimport concurrent.futures\n"
              "def helper():\n    from concurrent.futures import wait\n"
              "    def inner():\n        import threading\n    return wait\n"
              "class Pool:\n    def start(self):\n        from multiprocessing import Process\n"
              "from .concurrent import local\n")
    assert _thread_imports(source) == {None: ["concurrent.futures"], "helper": ["concurrent.futures"],
                                       "inner": ["threading"], "start": ["multiprocessing"]}


def test_no_module_imports_a_thread_or_process_module():
    found = {path.name: _thread_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {}


def _meshgrid_calls(source: str) -> list:
    return _calls_of({"meshgrid"}, source)


def test_the_check_sees_a_meshgrid_call():
    source = ("import numpy as np\nfrom numpy import meshgrid\n"
              "X, Y = np.meshgrid(x, y, indexing='ij')\nm = meshgrid\nZ = meshgrid(\n    x)\n"
              "idx = np.indices((2, 3))\n")
    assert _meshgrid_calls(source) == [3, 5]


def test_no_module_calls_meshgrid():
    found = {path.name: _meshgrid_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
