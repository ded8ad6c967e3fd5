"""Every file the package reads or writes goes through ``homomeasure``.

``homomeasure._write_text`` is the one byte writer: ``_write_document`` and
``_write_table`` fix the JSON layout and the CSV layout (values by
``repr``, ``\\n`` line ends) and hand it their text, which it writes over
the file in place and then cuts to length, never truncating the file to
zero first.  ``_read_document`` fixes the error a malformed file raises.
A module that calls ``open`` itself bypasses them and can write a file in
another layout; one that parses JSON itself (``json.load``/``json.loads``)
can raise another error for a malformed document.
"""

import ast
import os
from pathlib import Path

from kreinact.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinact"
RUN_FILES = ("config.json", "iterations.csv", "measure.json", "report.json", "report.csv", "status.json")


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


def _opens_for_writing(call: ast.Call) -> bool:
    """``os.open`` with any flags, or ``open`` with a mode that is not a read-only literal."""
    if getattr(call.func, "attr", None) == "open":
        return True
    if getattr(call.func, "id", None) != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_the_byte_writer_opens_a_file_for_writing():
    tree = ast.parse((PACKAGE / "homomeasure.py").read_text())
    writers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _opens_for_writing(node)
    }
    assert writers == {"_write_text"}


def test_a_run_never_opens_a_file_with_o_trunc(tmp_path, monkeypatch, capsys):
    # Reused and fresh directories alike: a truncating open of an existing
    # file makes ext4 flush it on close.
    os_open, flags = os.open, []

    def recording(path, flag, *args, **kwargs):
        flags.append((os.path.basename(path), flag))
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    argv = ["minimize", "--out", str(tmp_path), "--seed", "0", "--c", "0.5", "--f", "1.0",
            "--smoothing-delta", "0.01"]
    for _ in range(2):
        assert main(argv) == 0
    assert [name for name, flag in flags if flag & (os.O_WRONLY | os.O_RDWR)] == list(RUN_FILES) * 2
    assert not any(flag & os.O_TRUNC for _, flag in flags)
