"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and stdout
are asserted directly; one test shells out to the installed console
script to check the packaging wiring.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from kreinact import (
    MinimizeConfig,
    OperatorMeasure,
    SignatureSpace,
    config_to_dict,
    load_measure,
    load_report,
    save_measure,
    save_operator,
)
from kreinact.cli import main

SP1 = SignatureSpace(1)
ROTATION_Q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
STATIONARY_A = 0.5 * np.array(
    [[1.3, 0.9539392014169457], [-0.9539392014169457, -0.7]], dtype=complex
)

TOY_ARGS = ["--seed", "0", "--c", "0.5", "--f", "1.0", "--smoothing-delta", "0.01"]


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "toy"
    rc = main(["minimize", "--out", str(out)] + TOY_ARGS)
    assert rc == 0
    return out


def write_rotation_q(path) -> None:
    save_operator(ROTATION_Q, SP1, path)


def write_stationary_measure(path) -> None:
    """Measure whose atoms minimize the constant rotation field pointwise."""
    box = MinimizeConfig().momentum_box()
    pts = box.grid_points()
    measure = OperatorMeasure(SP1, box, pts[:2], [STATIONARY_A, STATIONARY_A])
    save_measure(measure, path)


# ---------------------------------------------------------------------------
# fixture
# ---------------------------------------------------------------------------

def test_fixture_random_is_deterministic(tmp_path, capsys):
    args = ["fixture", "random", "--seed", "3", "--atoms", "4", "--n", "1",
            "--box", "1.0", "--grid", "2,2,1,1"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    measure = load_measure(p1)
    assert measure.n_atoms == 4
    assert "random fixture with 4 atoms" in capsys.readouterr().out


def test_fixture_special_kinds(tmp_path):
    sea = tmp_path / "sea.json"
    assert main(["fixture", "dirac-sea", "--out", str(sea), "--atoms", "3",
                 "--mass", "1.5", "--seed", "1"]) == 0
    measure = load_measure(sea)
    assert measure.n_atoms == 3
    assert np.all(measure.momenta[:, 0] < 0)

    nil = tmp_path / "nil.json"
    assert main(["fixture", "nilpotent", "--out", str(nil), "--atoms", "3",
                 "--seed", "1"]) == 0
    assert load_measure(nil).n_atoms == 3


def test_fixture_validation_failures_exit_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["fixture", "dirac-sea", "--out", str(out), "--mass", "-1.0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["fixture", "random", "--out", str(out), "--grid", "2,2"]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def test_minimize_writes_run_directory(toy_run, capsys):
    for name in ("config.json", "iterations.csv", "measure.json",
                 "report.json", "report.csv", "status.json"):
        assert (toy_run / name).exists(), name
    status = json.loads((toy_run / "status.json").read_text())
    assert status["converged"] is True
    assert status["checks"]["all"] is True
    assert status["case_tag"] == "b"
    assert status["action"] == pytest.approx(18.3103641117, rel=1e-6)
    assert status["beta"] <= 1e-9
    header = (toy_run / "iterations.csv").read_text().splitlines()[0]
    assert header == "iteration,action,trace,signed_trace,step,grad_norm,escapes"
    report = load_report(toy_run / "report.json")
    assert report.probe_margins.min() >= -1e-6


def test_minimize_rerun_is_byte_identical(toy_run, tmp_path):
    again = tmp_path / "again"
    assert main(["minimize", "--out", str(again)] + TOY_ARGS) == 0
    for name in ("config.json", "iterations.csv", "measure.json",
                 "report.json", "report.csv", "status.json"):
        assert (toy_run / name).read_bytes() == (again / name).read_bytes(), name


def test_minimize_config_file_with_overrides(tmp_path, capsys):
    config = MinimizeConfig(c=0.5, f=1.0, smoothing_delta=1e-2, max_iterations=1)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    out = tmp_path / "short"
    rc = main(["minimize", "--config", str(config_path), "--out", str(out),
               "--tol-el", "1e-5"])
    assert rc == 2  # one iteration cannot converge
    written = json.loads((out / "config.json").read_text())
    assert written["max_iterations"] == 1
    assert written["tol_el"] == 1e-5
    status = json.loads((out / "status.json").read_text())
    assert status["converged"] is False


def test_minimize_rejects_bad_flags(tmp_path):
    out = tmp_path / "bad"
    assert main(["minimize", "--out", str(out), "--c", "2.0", "--f", "1.0"]) == 2
    assert main(["minimize", "--out", str(out), "--grid", "1,2,3"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_minimizer_output(toy_run, tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    csv_path = tmp_path / "verify.csv"
    rc = main(["verify", str(toy_run / "measure.json"),
               "--smoothing-delta", "0.01",
               "--out", str(report_path), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check psd_margin: pass" in out
    assert "check support_residuals: pass" in out
    report = load_report(report_path)
    assert report.case_tag == "b"
    assert csv_path.read_text().startswith("p0,p1,p2,p3,gap,psd_margin")


def test_verify_flags_non_stationary_measure(tmp_path, capsys):
    fixture_path = tmp_path / "random.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "0",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    rc = main(["verify", str(fixture_path)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_measure_with_invalid_default_targets(tmp_path, capsys):
    # Seed 5 produces a total with negative trace, so the defaulted
    # constraint targets are rejected up front.
    fixture_path = tmp_path / "random.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "5",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    assert main(["verify", str(fixture_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_default_targets_error_names_their_source_and_flags(tmp_path, capsys):
    fixture_path = tmp_path / "random.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "5",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    assert main(["verify", str(fixture_path)]) == 2
    err = capsys.readouterr().err
    assert "trace (c) and signed trace (f)" in err
    assert "--c" in err and "--f" in err
    # Explicit targets that violate 0 < c < f keep the plain message.
    assert main(["verify", str(fixture_path), "--c", "2.0", "--f", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "0 < c < f" in err and "--c" not in err


def test_verify_constant_field_stationary_round_trip(tmp_path, capsys):
    q_path = tmp_path / "q.json"
    measure_path = tmp_path / "measure.json"
    write_rotation_q(q_path)
    write_stationary_measure(measure_path)
    rc = main(["verify", str(measure_path), "--q-file", str(q_path)])
    out = capsys.readouterr().out
    assert rc == 0
    residual = float(out.split("max support residual ")[1].splitlines()[0])
    assert residual <= 1e-10
    assert "case b" in out


def test_verify_q_file_of_another_dimension_exits_2(tmp_path, capsys):
    q_path = tmp_path / "q4.json"
    measure_path = tmp_path / "measure.json"
    save_operator(np.eye(4, dtype=complex), SignatureSpace(2), q_path)
    write_stationary_measure(measure_path)
    assert main(["verify", str(measure_path), "--q-file", str(q_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "dimension 4 (n=2)" in err and "dimension 2 (n=1)" in err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_writes_components(tmp_path, capsys):
    sea_path = tmp_path / "sea.json"
    assert main(["fixture", "dirac-sea", "--out", str(sea_path), "--atoms", "2",
                 "--seed", "2"]) == 0
    out_dir = tmp_path / "parts"
    assert main(["decompose", str(sea_path), "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    masses = {}
    for name in ("particle", "neutral", "sea"):
        assert (out_dir / f"{name}.json").exists()
        load_measure(out_dir / f"{name}.json")
        masses[name] = float(printed.split(f"{name}: operator mass ")[1].split(" ")[0])
    assert masses["sea"] > 0.1
    assert masses["particle"] <= 1e-10
    assert masses["neutral"] <= 1e-10


# ---------------------------------------------------------------------------
# pointwise and sweep-alpha
# ---------------------------------------------------------------------------

def test_pointwise_solution_document(tmp_path, capsys):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    out_path = tmp_path / "solution.json"
    rc = main(["pointwise", str(q_path), "--a", "0.3", "--b", "1.0",
               "--out", str(out_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert payload["tag"] == "interior"
    assert payload["alpha"] == pytest.approx(0.3144854510165755, abs=1e-9)
    assert payload["beta"] == pytest.approx(-1.0482848367219182, abs=1e-9)
    assert payload["objective"] == pytest.approx(-0.9539392014169457, abs=1e-9)
    assert np.asarray(payload["A_im"]) == pytest.approx(np.zeros((2, 2)))
    assert out_path.read_text() == printed


def test_pointwise_boundary_family_document(tmp_path, capsys):
    q_path = tmp_path / "qsig.json"
    save_operator(SP1.signature_matrix, SP1, q_path)
    rc = main(["pointwise", str(q_path), "--a", "1.0", "--b", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "boundary-particle"
    assert payload["family"]["slope"] == 1
    assert payload["family"]["alpha_max"] == float("inf")


def test_pointwise_infeasible_exits_2(tmp_path, capsys):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    assert main(["pointwise", str(q_path), "--a", "2.0", "--b", "1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_pointwise_rejects_wrong_document_kind(tmp_path, capsys):
    measure_path = tmp_path / "measure.json"
    write_stationary_measure(measure_path)
    assert main(["pointwise", str(measure_path), "--a", "0.0", "--b", "1.0"]) == 2


def test_sweep_alpha_writes_jump_rows(tmp_path, capsys):
    q_path = tmp_path / "qsig.json"
    save_operator(SP1.signature_matrix, SP1, q_path)
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep-alpha", str(q_path), "--alpha-min=-1.0", "--alpha-max", "1.0",
               "--count", "3", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "alpha,a,beta"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    # alpha = 0 is degenerate and contributes both endpoints of its interval.
    assert len(rows) == 4
    assert [row[1] for row in rows] == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-12)
    assert [row[2] for row in rows] == pytest.approx([0.0, 1.0, 1.0, 0.0], abs=1e-12)


def test_sweep_alpha_rejects_empty_range(tmp_path):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    assert main(["sweep-alpha", str(q_path), "--alpha-min", "1.0",
                 "--alpha-max", "1.0", "--count", "3",
                 "--out", str(tmp_path / "s.csv")]) == 2


# ---------------------------------------------------------------------------
# correlate, parser, and packaging
# ---------------------------------------------------------------------------

def test_correlate_writes_spectra_csv(tmp_path, capsys):
    fixture_path = tmp_path / "m.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "4",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    out_path = tmp_path / "corr.csv"
    rc = main(["correlate", str(fixture_path), "--position-grid", "2,1,1,1",
               "--basis-size", "4", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "weight,x0,x1,x2,x3,eig0,eig1,eig2,eig3"
    assert len(lines) == 3


def test_unknown_subcommand_raises_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_console_script_is_installed():
    exe = shutil.which("kreinact")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kreinact")
