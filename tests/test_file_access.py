"""Every file the package reads or writes goes through ``homomeasure``.

``homomeasure._write_document``, ``_write_table`` and ``_read_document``
fix the JSON layout, the CSV layout (values by ``repr``, ``\\n`` line ends)
and the error a malformed file raises.  A module that calls ``open`` itself
bypasses them and can write a file in another layout.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"


def _open_calls(path: Path) -> list:
    """Line numbers of the calls of a bare or attribute ``open`` in ``path``."""
    tree = ast.parse(path.read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
    ]


def test_only_homomeasure_opens_files():
    callers = {path.name: _open_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert callers.pop("homomeasure.py")
    assert {name: lines for name, lines in callers.items() if lines} == {}
