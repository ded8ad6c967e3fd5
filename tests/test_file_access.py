"""Every file the package reads or writes goes through ``homomeasure``.

``homomeasure._write_document``, ``_write_table`` and ``_read_document``
fix the JSON layout, the CSV layout (values by ``repr``, ``\\n`` line ends)
and the error a malformed file raises.  A module that calls ``open`` itself
bypasses them and can write a file in another layout; one that parses JSON
itself (``json.load``/``json.loads``) can raise another error for a
malformed document.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"


def _calls(path: Path, names: tuple) -> list:
    """Line numbers of the calls of a bare or attribute name in ``names`` in ``path``."""
    tree = ast.parse(path.read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names)
    ]


def _callers_outside_homomeasure(names: tuple) -> dict:
    callers = {path.name: _calls(path, names) for path in sorted(PACKAGE.glob("*.py"))}
    assert callers.pop("homomeasure.py")
    return {name: lines for name, lines in callers.items() if lines}


def test_only_homomeasure_opens_files():
    assert _callers_outside_homomeasure(("open",)) == {}


def test_only_homomeasure_parses_json():
    assert _callers_outside_homomeasure(("load", "loads")) == {}
