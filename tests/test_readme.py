"""The README's library quick start and its minimize and verify lines run as documented,
and its minimizer paragraph states the package's memory and reference counts."""

import re
import shlex
from dataclasses import replace
from pathlib import Path

import kreinact.minimize as minimize_module
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


def test_readme_minimizer_numbers_match_the_package():
    text = " ".join(README.read_text().split())
    memory = re.search(r"L-BFGS direction over the last (\d+) accepted step", text)
    window = re.search(r"room for (\d+) pairs, which moves back to the front once every (\d+) pairs", text)
    assert int(memory[1]) == minimize_module.LBFGS_MEMORY
    assert (int(window[1]), int(window[2])) == (2 * minimize_module.LBFGS_MEMORY, minimize_module.LBFGS_MEMORY)
    run = re.search(
        r"n=2 reference problem \(c = ([\d.]+), f = ([\d.]+), δ = ([\de.-]+), momentum grid \(([\d,]+)\), "
        r"position grid \(([\d,]+)\) of radius ([\d.]+), seed (\d+)\) certifies in (\d+) iterations "
        r"\(rows of `iterations.csv`\) and (\d+) trials, and at δ = 0 in (\d+)\.",
        text,
    )
    c, f, delta, momenta, positions, radius, seed, iterations, trials, iterations_at_0 = run.groups()
    config = minimize_module.MinimizeConfig(
        n=2, c=float(c), f=float(f), smoothing_delta=float(delta),
        momentum_shape=tuple(map(int, momenta.split(","))), position_shape=tuple(map(int, positions.split(","))),
        position_radius=float(radius), seed=int(seed),
    )
    smoothed = minimize_module.minimize_action(config)
    exact = minimize_module.minimize_action(replace(config, smoothing_delta=0.0))
    assert smoothed.stop_reason == exact.stop_reason == "certified"
    assert (len(smoothed.trace), sum(row["trials"] for row in smoothed.trace)) == (int(iterations), int(trials))
    assert len(exact.trace) == int(iterations_at_0)
