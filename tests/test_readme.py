"""The README's library quick start and its minimize and verify lines run as documented."""

import re
import shlex
from pathlib import Path

from kreinact.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.count("\n") == 2


def test_readme_minimize_and_verify_lines_exit_0(tmp_path, monkeypatch, capsys):
    lines = [line for line in README.read_text().splitlines()
             if line.startswith(("kreinact minimize ", "kreinact verify "))]
    assert [line.split()[1] for line in lines] == ["minimize", "verify"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
