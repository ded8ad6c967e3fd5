"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and stdout
are asserted directly; two tests shell out, to the installed console
script and to ``python -m kreinact``, to check the packaging wiring, and
two run a fresh interpreter to see what importing and running build.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_feasible, unprivileged
from kreinact import (
    MinimizeConfig,
    NumericalError,
    OperatorMeasure,
    SignatureSpace,
    ValidationError,
    config_to_dict,
    load_measure,
    load_report,
    a_of_alpha,
    save_measure,
    save_operator,
)
from kreinact.cli import main
from kreinact.homomeasure import decompose

SP1 = SignatureSpace(1)
ROTATION_Q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
STATIONARY_A = 0.5 * np.array(
    [[1.3, 0.9539392014169457], [-0.9539392014169457, -0.7]], dtype=complex
)

TOY_TARGETS = ["--c", "0.5", "--f", "1.0"]
TOY_ARGS = ["--seed", "0", *TOY_TARGETS, "--smoothing-delta", "0.01"]
# A minimizer's measure lies on the positive face, where Tr(S T) = Tr T, so
# the targets that verify would default to (f = c) are refused; its
# verification passes the run's own targets.
TOY_VERIFY = [*TOY_TARGETS, "--smoothing-delta", "0.01"]


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


@pytest.mark.parametrize("kind", ["dirac-sea", "nilpotent"])
def test_special_fixture_without_atoms_names_the_flag(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert main(["fixture", kind, "--out", str(out), "--atoms", "0"]) == 2
    assert "--atoms" in capsys.readouterr().err
    assert not out.exists()
    # A random measure may be empty.
    assert main(["fixture", "random", "--out", str(out), "--atoms", "0"]) == 0
    assert load_measure(out).n_atoms == 0


@pytest.mark.parametrize("kind, flag, value", [
    ("dirac-sea", "--mass", "nan"),
    ("dirac-sea", "--mass", "inf"),
    ("dirac-sea", "--spatial-radius", "nan"),
    ("dirac-sea", "--spatial-radius", "0"),
    ("nilpotent", "--spatial-radius", "inf"),
    ("nilpotent", "--spatial-radius", "-1"),
])
def test_fixture_scale_flags_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, kind, flag, value):
    import kreinact.cli as cli_module

    def no_draws(*args):
        raise AssertionError("a fixture drew random numbers before checking its flags")

    monkeypatch.setattr(cli_module.np.random, "default_rng", no_draws)
    out = tmp_path / "x.json"
    assert main(["fixture", kind, "--out", str(out), flag, value]) == 2
    assert f"error: {flag} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


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
    assert status["stop_reason"] == "certified"
    # The minimizers form a face with beta = 0 on which the signed trace
    # varies, so the case tag is not pinned; feasibility follows its case.
    assert_feasible(load_measure(toy_run / "measure.json"), 0.5, 1.0, status["case_tag"])
    assert status["action"] == pytest.approx(18.3103641117, rel=1e-6)
    assert status["alpha"] == pytest.approx(76.1978518539, rel=1e-8)
    assert status["beta"] <= 1e-9
    header = (toy_run / "iterations.csv").read_text().splitlines()[0]
    assert header == "iteration,action,trace,signed_trace,step,grad_norm,escapes,trials"
    report = load_report(toy_run / "report.json")
    assert report.probe_margins.min() >= -1e-6


def test_minimize_rerun_is_byte_identical(toy_run, tmp_path):
    again = tmp_path / "again"
    assert main(["minimize", "--out", str(again)] + TOY_ARGS) == 0
    for name in ("config.json", "iterations.csv", "measure.json",
                 "report.json", "report.csv", "status.json"):
        assert (toy_run / name).read_bytes() == (again / name).read_bytes(), name


def test_minimize_rerun_over_longer_run_files_leaves_no_tails(toy_run, tmp_path, capsys):
    # A run over a bigger momentum grid leaves longer files in the directory;
    # the toy run written over them must equal the one in a fresh directory.
    out = tmp_path / "reused"
    assert main(["minimize", "--out", str(out), "--grid", "4,1,1,1"] + TOY_ARGS) == 0
    names = ("config.json", "iterations.csv", "measure.json", "report.json", "report.csv", "status.json")
    before = {name: (out / name).read_bytes() for name in names}
    for name in ("iterations.csv", "measure.json", "report.json", "report.csv"):
        assert len(before[name]) > len((toy_run / name).read_bytes()), name
    assert main(["minimize", "--out", str(out)] + TOY_ARGS) == 0
    for name in names:
        assert (out / name).read_bytes() == (toy_run / name).read_bytes(), name


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
    assert status["stop_reason"] == "max_iterations"
    assert "stop=max_iterations" in capsys.readouterr().out


def test_minimize_blames_a_bad_override_not_the_file(tmp_path, capsys):
    config_path = tmp_path / "ok.json"
    config_path.write_text(json.dumps({"c": 0.5, "f": 1.0}))
    out = tmp_path / "r2"
    assert main(["minimize", "--config", str(config_path), "--c", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: command-line override of configuration file {config_path}: "
                   "constraint targets must satisfy 0 < c < f, got c=-1.0, f=1.0\n")
    assert not out.exists()


def test_minimize_blames_a_file_that_fails_on_its_own(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"c": -1.0, "f": 1.0}))
    out = tmp_path / "r2"
    assert main(["minimize", "--config", str(config_path), "--f", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed configuration file {config_path}: ValidationError: "), err
    assert "c=-1.0, f=2.0" in err and not out.exists()


def test_minimize_refuses_a_configuration_integer_beyond_every_float(tmp_path, capsys):
    # JSON integers have no size limit; this one passes every range test and
    # overflowed only when the run built its position grid.
    config_path = tmp_path / "huge.json"
    config_path.write_text('{"position_radius": 1' + "0" * 400 + "}")
    out = tmp_path / "run"
    assert main(["minimize", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: malformed configuration file {config_path}: ValidationError: "
                   "position_radius is too large for a float\n")
    assert not out.exists()


def test_minimize_runs_a_file_that_needs_an_override(tmp_path):
    # c = 3 is valid only with an f above it, which the command line gives.
    config_path = tmp_path / "partial.json"
    config_path.write_text(json.dumps({"c": 3.0, "smoothing_delta": 0.01, "max_iterations": 1}))
    out = tmp_path / "run"
    assert main(["minimize", "--config", str(config_path), "--f", "4", "--out", str(out)]) == 2
    written = json.loads((out / "config.json").read_text())
    assert (written["c"], written["f"], written["max_iterations"]) == (3.0, 4.0, 1)
    assert json.loads((out / "status.json").read_text())["stop_reason"] == "max_iterations"


def test_minimize_rejects_bad_flags(tmp_path):
    out = tmp_path / "bad"
    assert main(["minimize", "--out", str(out), "--c", "2.0", "--f", "1.0"]) == 2
    assert main(["minimize", "--out", str(out), "--grid", "1,2,3"]) == 2
    assert main(["minimize", "--out", str(out), "--tol-el", "nan"]) == 2
    assert main(["minimize", "--out", str(out), "--position-radius", "nan"]) == 2
    # Every flag is rejected before the run directory is made.
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_minimizer_output(toy_run, tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    csv_path = tmp_path / "verify.csv"
    rc = main(["verify", str(toy_run / "measure.json"), *TOY_VERIFY,
               "--out", str(report_path), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check psd_margin: pass" in out
    assert "check support_residuals: pass" in out
    report = load_report(report_path)
    assert report.case_tag == "a"
    assert csv_path.read_text().startswith("p0,p1,p2,p3,gap,psd_margin")


@pytest.mark.parametrize("config, verify_args", [
    pytest.param(MinimizeConfig(c=0.5, f=1.0, smoothing_delta=0.01), TOY_VERIFY, id="toy"),
    pytest.param(MinimizeConfig(c=0.5, f=1.0), [*TOY_TARGETS, "--smoothing-delta", "0"], id="toy-delta-0"),
    pytest.param(MinimizeConfig(n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
                                smoothing_delta=0.01, max_iterations=2000),
                 [*TOY_VERIFY, "--position-grid", "7,3,3,1"], id="n2-reference"),
])
def test_verify_writes_the_run_report_byte_for_byte(config, verify_args, tmp_path):
    # The run's report is the full-space report of its returned measure, so
    # verify with the run's targets and smoothing recomputes it to the bit.
    config_path, run, out = tmp_path / "config.json", tmp_path / "run", tmp_path / "verify.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    assert main(["minimize", "--config", str(config_path), "--out", str(run)]) == 0
    assert main(["verify", str(run / "measure.json"), *verify_args, "--out", str(out)]) == 0
    assert out.read_bytes() == (run / "report.json").read_bytes()


def test_verify_computes_each_shifted_spectrum_once(toy_run, tmp_path, monkeypatch):
    # The probes hold the atoms, so one eigh stack over the probes serves both.
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report_path = tmp_path / "verify.json"
    assert main(["verify", str(toy_run / "measure.json"), *TOY_VERIFY,
                 "--out", str(report_path)]) == 0
    assert sizes == [len(load_report(report_path).probe_points)]


@pytest.mark.parametrize("case", ["csv-is-a-directory", "out-parent-missing", "out-parent-is-a-file"])
def test_verify_refuses_output_paths_before_computing(tmp_path, capsys, monkeypatch, case):
    import kreinact.cli as cli_module

    measure = tmp_path / "m.json"
    write_stationary_measure(measure)
    folder = tmp_path / "some_dir"
    folder.mkdir()
    out, csv = tmp_path / "vr.json", tmp_path / "vr.csv"
    bad = {"csv-is-a-directory": f"{folder}/", "out-parent-missing": f"{tmp_path}/missing/vr.json",
           "out-parent-is-a-file": f"{measure}/vr.json"}[case]
    argv = ["verify", str(measure), "--out", str(out), "--csv", bad]
    if case != "csv-is-a-directory":
        argv = ["verify", str(measure), "--out", bad, "--csv", str(csv)]

    def no_load(path):
        raise AssertionError("the measure was loaded before the output paths were checked")

    monkeypatch.setattr(cli_module, "load_measure", no_load)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert bad in captured.err
    assert captured.out == "" and not out.exists() and not csv.exists()


def test_verify_flags_non_stationary_measure(tmp_path, capsys):
    fixture_path = tmp_path / "random.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "0",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    rc = main(["verify", str(fixture_path)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, message", [("n", 1.9, "spin dimension"),
                                                 ("grid_shape", [2.5, 1, 1, True], "grid shape")])
def test_verify_rejects_a_measure_file_with_non_integer_counts(tmp_path, capsys, key, value, message):
    fixture_path = tmp_path / "random.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "0",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    doc = json.loads(fixture_path.read_text())
    (doc if key == "n" else doc["box"])[key] = value
    fixture_path.write_text(json.dumps(doc))
    assert main(["verify", str(fixture_path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_rejects_a_measure_whose_trace_misses_c(tmp_path, capsys):
    fixture_path = tmp_path / "empty.json"
    assert main(["fixture", "random", "--atoms", "0", "--out", str(fixture_path)]) == 0
    assert main(["verify", str(fixture_path), "--c", "0.5", "--f", "1"]) == 2
    captured = capsys.readouterr()
    assert "trace 0.0 misses the constraint target c = 0.5" in captured.err
    assert "check " not in captured.out


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_rejects_a_bad_tolerance_instead_of_judging(toy_run, tmp_path, capsys, tol):
    report_path = tmp_path / "verify.json"
    rc = main(["verify", str(toy_run / "measure.json"), *TOY_VERIFY,
               "--tol-el", tol, "--out", str(report_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "tol_el" in captured.err and "finite and >= 0" in captured.err
    assert "check " not in captured.out
    assert not report_path.exists()


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


def test_verify_refuses_default_targets_on_a_face_measure(toy_run, capsys):
    # The minimizer's atoms are diag(B_j, 0), so the defaulted targets are
    # c = f = 0.5, which 0 < c < f refuses before any report is built.
    assert main(["verify", str(toy_run / "measure.json"), "--smoothing-delta", "0.01"]) == 2
    captured = capsys.readouterr()
    match = re.fullmatch(
        r"error: constraint targets must satisfy 0 < c < f, got c=(\S+), f=(\S+); targets not given "
        r"default to the measure's trace \(c\) and signed trace \(f\), so pass --c and --f\n",
        captured.err,
    )
    assert match and match[1] == match[2] and float(match[1]) == pytest.approx(0.5, rel=1e-14)
    assert "check " not in captured.out


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


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_verify_non_finite_position_radius_exits_2(tmp_path, capsys, radius):
    measure_path = tmp_path / "measure.json"
    write_stationary_measure(measure_path)
    rc = main(["verify", str(measure_path), "--position-radius", radius,
               "--position-grid", "1,1,1,1"])
    assert rc == 2
    assert "radius" in capsys.readouterr().err


def test_verify_refuses_a_momentum_integer_beyond_every_float(tmp_path, capsys):
    measure_path = tmp_path / "measure.json"
    write_stationary_measure(measure_path)
    doc = json.loads(measure_path.read_text())
    doc["atoms"][0]["p"][0] = 10**400  # written as its 401 digits
    measure_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["verify", str(measure_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: malformed measure file {measure_path}: OverflowError: ")
    assert not out.exists()


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def _without(key):
    return lambda doc: json.dumps({k: v for k, v in doc.items() if k != key})


@pytest.mark.parametrize(
    "command, kind, edit",
    [
        ("verify", "measure", _without("n")),
        ("verify", "measure", lambda doc: "[1, 2]"),
        ("verify", "measure", lambda doc: json.dumps({**doc, "atoms": [{"p": [0.0] * 4}]})),
        ("pointwise", "operator", _without("matrix")),
        ("minimize", "configuration", lambda doc: "{not json"),
        ("minimize", "configuration", lambda doc: "[1, 2]"),
        ("verify", "measure", lambda doc: b"\xff\xfe{}"),
        ("minimize", "configuration", lambda doc: b"\xff\xfe{}"),
        ("verify", "measure", lambda doc: json.dumps({**doc, "n": 1.9})),
    ],
    ids=["measure-no-n", "measure-list", "atom-no-A", "operator-no-matrix",
         "config-invalid-json", "config-list", "measure-not-utf8", "config-not-utf8",
         "measure-fractional-n"],
)
def test_malformed_documents_exit_2(tmp_path, capsys, command, kind, edit):
    # each document is a valid one with one defect; the reader names the file
    path = tmp_path / "doc.json"
    if kind == "measure":
        write_stationary_measure(path)
    elif kind == "operator":
        write_rotation_q(path)
    else:
        path.write_text("{}")
    contents = edit(json.loads(path.read_text()))
    path.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    argv = {
        "verify": ["verify", str(path)],
        "pointwise": ["pointwise", str(path), "--a", "0.0", "--b", "1.0"],
        "minimize": ["minimize", "--config", str(path), "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{kind} file {path}" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["minimize", "--seed", "-1"], None),
        (["minimize"], {"seed": 1.5}),
        (["minimize"], {"max_iterations": 2.5}),
        (["minimize"], {"n": 1.5}),
        (["minimize"], {"gradient_tol": 1e-10}),
        (["minimize"], {"initial_magnitude": 1.0}),
        (["minimize"], {"initial_step": 0.05}),
        (["minimize"], {"backtrack_factor": 0.5}),
        (["minimize"], {"max_backtracks": 40}),
        (["fixture", "random", "--seed", "-1"], None),
        (["fixture", "random", "--atoms", "-1"], None),
        (["fixture", "dirac-sea", "--atoms", "-2"], None),
        (["minimize", "--grid", "x,1,1,1"], None),
        (["minimize", "--position-grid", "2.5,1,1,1"], None),
        (["minimize", "--box", "abc"], None),
        (["minimize", "--box", "nan"], None),
        (["minimize", "--box", "0,0,0,0,1,1,1,inf"], None),
        (["fixture", "random", "--box", "inf"], None),
        (["verify", "MEASURE", "--position-grid", "2.5,1,1,1"], None),
    ],
    ids=["minimize-seed", "config-seed", "config-iterations", "config-n", "config-gradient-tol",
         "config-initial-magnitude", "config-initial-step", "config-backtrack-factor",
         "config-max-backtracks", "fixture-seed", "random-atoms", "dirac-sea-atoms",
         "grid-text", "position-grid-fraction", "box-text", "box-nan", "box-inf",
         "random-box-inf", "verify-position-grid-fraction"],
)
def test_bad_seeds_and_counts_exit_2(tmp_path, capsys, argv, config):
    out = tmp_path / "out"
    if "MEASURE" in argv:
        # An existing measure file, so that only the flag can fail.
        measure = tmp_path / "m.json"
        assert main(["fixture", "random", "--out", str(measure), "--atoms", "2"]) == 0
        capsys.readouterr()
        argv = [str(measure) if a == "MEASURE" else a for a in argv]
    argv = argv + ["--out", str(out)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    flags = [a for a in argv if a in ("--grid", "--position-grid", "--box")]
    assert all(flag in err for flag in flags), err  # the bad flag is named
    assert not out.exists()  # refused before anything is written


def _file_system_case(tmp_path, case):
    measure = tmp_path / "m.json"
    write_stationary_measure(measure)
    folder = tmp_path / "folder"
    folder.mkdir()
    return {
        "measure-is-a-directory": (["verify", str(folder)], folder),
        "verify-out-under-a-file": (["verify", str(measure), "--out", f"{measure}/r.json"],
                                    f"{measure}/r.json"),
        "minimize-out-onto-a-file": (["minimize", "--out", str(measure)] + TOY_ARGS, measure),
        "fixture-out-onto-a-directory": (["fixture", "random", "--out", str(folder)], folder),
    }[case]


@pytest.mark.parametrize("case", ["measure-is-a-directory", "verify-out-under-a-file",
                                  "minimize-out-onto-a-file", "fixture-out-onto-a-directory"])
def test_file_system_errors_exit_2(tmp_path, capsys, case):
    # A path that cannot be read or written is an input error: one line naming it, no traceback.
    argv, path = _file_system_case(tmp_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err


def test_verify_out_onto_a_read_only_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_rotation_q(tmp_path / "q.json")
    write_stationary_measure(tmp_path / "m.json")
    report = tmp_path / "report.json"
    report.write_bytes(b"old\n")
    report.chmod(0o444)
    with unprivileged(tmp_path):
        rc = main(["verify", "m.json", "--q-file", "q.json", "--out", report.name])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Permission denied" in err and report.name in err
    assert report.read_bytes() == b"old\n"


def test_verify_rejects_a_non_symmetric_q_file(tmp_path, capsys):
    # S q is not Hermitian for this q, so it is no gradient field value.
    q_path = tmp_path / "q.json"
    measure_path = tmp_path / "measure.json"
    out = tmp_path / "report.json"
    save_operator(np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex), SP1, q_path)
    write_stationary_measure(measure_path)
    assert main(["verify", str(measure_path), "--q-file", str(q_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--q-file" in captured.err
    assert "Krein symmetric" in captured.err
    assert captured.out == "" and not out.exists()


def test_load_report_without_alpha_raises_validation_error(toy_run, tmp_path):
    doc = json.loads((toy_run / "report.json").read_text())
    del doc["alpha"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="report file"):
        load_report(path)


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


@pytest.mark.parametrize("fixture", [
    pytest.param(["random", "--seed", "1"], id="random-n1"),
    pytest.param(["random", "--seed", "2", "--n", "2"], id="random-n2"),
    pytest.param(["random", "--seed", "1", "--n", "2", "--atoms", "27", "--grid", "3,3,3,1"], id="certify"),
    pytest.param(["dirac-sea", "--seed", "2", "--atoms", "3"], id="dirac-sea"),
])
def test_decompose_prints_each_mass_as_the_sum_of_its_atoms_norms(tmp_path, capsys, fixture):
    # The printed mass is the sum, left to right, of each atom's spectral
    # norm, to the last digit of its repr.
    measure_path, out_dir = tmp_path / "measure.json", tmp_path / "parts"
    assert main(["fixture", *fixture, "--out", str(measure_path)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(measure_path), "--out", str(out_dir)]) == 0
    parts, lines = decompose(load_measure(measure_path)), []
    for name in ("particle", "neutral", "sea"):
        mass = float(sum(np.linalg.norm(A, 2) for A in getattr(parts, name).operators))
        lines.append(f"{name}: operator mass {mass!r} -> {out_dir / f'{name}.json'}")
    assert capsys.readouterr().out.splitlines() == lines


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


def test_pointwise_steep_map_exits_0(tmp_path, capsys):
    # qhat = diag(1, -1) + eps sigma_x: a(alpha) rises with slope 1/eps at
    # alpha = 1, so the solver's bracket collapses onto adjacent floats.
    eps = 1e-4
    qhat = np.diag([1.0, -1.0]) + eps * np.array([[0.0, 1.0], [1.0, 0.0]])
    q_path = tmp_path / "q.json"
    save_operator((SP1.signature[:, None] * qhat).astype(complex), SP1, q_path)
    assert main(["pointwise", str(q_path), "--a", "0.3", "--b", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    root = np.sqrt(1.0 - 0.3 ** 2)
    assert payload["tag"] == "interior"
    assert payload["alpha"] == pytest.approx(1.0 + 0.3 * eps / root, abs=1e-15)
    assert payload["beta"] == pytest.approx(-eps / root, abs=1e-15)


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


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # A numerical failure is no input error: exit code 3, one line, no traceback.
    import kreinact.cli as cli_module

    def failing(problem):
        raise NumericalError("safeguarded Newton failed to reach the signed-trace target")

    monkeypatch.setattr(cli_module, "solve", failing)
    q_path = tmp_path / "q.json"
    out_path = tmp_path / "solution.json"
    write_rotation_q(q_path)
    assert main(["pointwise", str(q_path), "--a", "0.0", "--b", "1.0", "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1, captured.err
    assert "signed-trace target" in captured.err
    assert captured.out == "" and not out_path.exists()


@pytest.mark.parametrize("a, b", [("nan", "1.0"), ("0.0", "inf")])
def test_pointwise_non_finite_targets_exit_2(tmp_path, capsys, a, b):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    assert main(["pointwise", str(q_path), "--a", a, "--b", b]) == 2
    assert "finite" in capsys.readouterr().err


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


def test_sweep_alpha_makes_one_eigensolve_per_alpha(tmp_path, monkeypatch):
    # Each row's a(alpha) and beta(alpha) come from one eigh of S q - alpha S.
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep-alpha", str(q_path), "--alpha-min=-2.0", "--alpha-max", "2.0",
                 "--out", str(out_path)]) == 0
    assert calls == {"eigh": 101, "eigvalsh": 0}
    rows = [[float(tok) for tok in line.split(",")] for line in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 101
    for alpha, a, beta in rows:
        value = a_of_alpha(ROTATION_Q, SP1, alpha)
        assert (a, beta) == (value.a_min, value.beta)


def test_sweep_alpha_rejects_empty_range(tmp_path):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    assert main(["sweep-alpha", str(q_path), "--alpha-min", "1.0",
                 "--alpha-max", "1.0", "--count", "3",
                 "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("bounds", [("nan", "1.0"), ("inf", "1.0"), ("-1.0", "nan"), ("-1.0", "inf")])
def test_sweep_alpha_rejects_non_finite_bounds_before_writing(tmp_path, capsys, bounds):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    out_path = tmp_path / "s.csv"
    assert main(["sweep-alpha", str(q_path), f"--alpha-min={bounds[0]}", f"--alpha-max={bounds[1]}",
                 "--count", "3", "--out", str(out_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sweep_alpha_rejects_count_below_one(tmp_path, count):
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    assert main(["sweep-alpha", str(q_path), "--alpha-min", "0.0", "--alpha-max", "1.0",
                 "--count", count, "--out", str(tmp_path / "s.csv")]) == 2


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


def test_every_table_ends_its_lines_in_a_bare_newline(toy_run, tmp_path):
    # One writer serves every CSV, so all tables of a run share one line end.
    q_path = tmp_path / "q.json"
    write_rotation_q(q_path)
    measure = str(toy_run / "measure.json")
    tables = [toy_run / "iterations.csv", toy_run / "report.csv"]
    tables += [tmp_path / name for name in ("verify.csv", "corr.csv", "sweep.csv")]
    assert main(["verify", measure, *TOY_VERIFY, "--csv", str(tables[2])]) == 0
    fixture_path = str(tmp_path / "m.json")
    assert main(["fixture", "random", "--out", fixture_path, "--seed", "4",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    assert main(["correlate", fixture_path, "--position-grid", "2,1,1,1", "--basis-size", "4",
                 "--out", str(tables[3])]) == 0
    assert main(["sweep-alpha", str(q_path), "--alpha-min=-1.0", "--alpha-max", "1.0",
                 "--count", "5", "--out", str(tables[4])]) == 0
    for path in tables:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name
        assert data.count(b"\n") == len(path.read_text().splitlines()) >= 2, path.name


@pytest.mark.parametrize("size", ["0", "-5"])
def test_correlate_rejects_basis_size_below_one(tmp_path, capsys, size):
    fixture_path = tmp_path / "m.json"
    assert main(["fixture", "random", "--out", str(fixture_path), "--seed", "4",
                 "--atoms", "2", "--grid", "2,1,1,1"]) == 0
    out_path = tmp_path / "corr.csv"
    rc = main(["correlate", str(fixture_path), "--position-grid", "2,1,1,1",
               "--basis-size", size, "--out", str(out_path)])
    assert rc == 2
    assert "--basis-size" in capsys.readouterr().err
    assert not out_path.exists()


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


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_module_entry_point_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "kreinact", "--help"],
                          capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kreinact")


def test_pipeline_does_not_import_scipy(tmp_path):
    # scipy costs more import time than numpy and the whole toy run
    # together; the package does not depend on it, only the tests' oracles.
    script = f"""
import sys
import kreinact
from kreinact.cli import main
run = {str(tmp_path / "run")!r}
assert main(["minimize", "--out", run] + {TOY_ARGS!r}) == 0
assert main(["verify", run + "/measure.json"] + {TOY_VERIFY!r}) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_reused_parser_carries_no_state_between_calls(tmp_path):
    # main parses with one parser per process; a refused call and a call
    # with other options in between leave the next run unchanged.
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(["minimize", "--out", str(first)] + TOY_ARGS) == 0
    assert main(["verify", str(first / "measure.json"), "--tol-el", "nan"]) == 2
    assert main(["minimize", "--out", str(tmp_path / "other"), "--seed", "1", "--c", "0.5", "--f", "1.0",
                 "--smoothing-delta", "0.01", "--tol-el", "1e-5", "--position-radius", "2.5"]) in (0, 2)
    assert main(["minimize", "--out", str(last)] + TOY_ARGS) == 0
    for name in ("config.json", "iterations.csv", "measure.json",
                 "report.json", "report.csv", "status.json"):
        assert (first / name).read_bytes() == (last / name).read_bytes(), name


def test_import_builds_no_parser():
    script = """
import kreinact
import kreinact.cli
print(kreinact.cli._parser.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_json_writers_write_what_json_dump_wrote(toy_run, tmp_path):
    # One writer serves the measure, operator, report, run-status and
    # pointwise-solution files; each file is json.dump's indent-1 text of its
    # document plus a newline.
    save_operator(ROTATION_Q, SP1, tmp_path / "q.json")
    solution = tmp_path / "solution.json"
    assert main(["pointwise", str(tmp_path / "q.json"), "--a", "0.3", "--b", "1.0",
                 "--out", str(solution)]) == 0
    files = [(toy_run / name, name in ("config.json", "status.json"))
             for name in ("config.json", "measure.json", "report.json", "status.json")]
    for path, sort_keys in files + [(tmp_path / "q.json", False), (solution, True)]:
        text = path.read_text()
        buffer = io.StringIO()
        json.dump(json.loads(text), buffer, indent=1, sort_keys=sort_keys)
        buffer.write("\n")
        assert text == buffer.getvalue(), path.name
