"""Command-line interface: fixtures, runs, verification, sweeps, plot data.

One binary with subcommands; every output is a pure function of the
parsed configuration and seed (no timestamps or environment state), so
identical invocations produce byte-identical files.  Exit codes: 0 on
success, 2 on validation/input failures (including a failed verification
verdict and a path that cannot be read or written), 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import elverify, tolerances
from .action import PositionGrid, QHatEvaluator
from .cfsbridge import correlations_to_csv, empirical_cfs, standard_basis
from .elverify import _certify, _probes, check_first_order, report_to_csv, save_report
from .errors import KreinactError, ValidationError, _check_count, _check_real
from .homomeasure import (
    MomentumBox,
    _check_targets,
    _check_writable,
    _read_document,
    _trace_functionals,
    _write_document,
    _write_table,
    decompose,
    dirac_sea_fixture,
    load_measure,
    load_operator,
    massless_fixture,
    random_measure,
    save_measure,
)
from .krein import SignatureSpace, _require_symmetric
from .minimize import MinimizeConfig, config_from_dict, config_to_dict, minimize_action
from .pointwise import PointwiseProblem, a_of_alpha, solve

__all__ = ["main", "build_parser"]

# Not called here: perfbench/tracing.py wraps these names as this module binds
# them, until ROADMAP item 1 spans them in kreinact.elverify.
pushforward = elverify.pushforward
lagrange_parameters = elverify.lagrange_parameters
el_residuals = elverify.el_residuals


def _parse_counts(text: str, what: str) -> tuple:
    try:
        counts = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        counts = ()
    if len(counts) != 4:
        raise ValidationError(f"{what} requires four integers, got {text!r}")
    return counts


def _position_grid(args) -> PositionGrid:
    """The grid of ``--position-radius`` and ``--position-grid``."""
    return PositionGrid.from_box(args.position_radius, _parse_counts(args.position_grid, "--position-grid"))


def _parse_box(text: str) -> tuple:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) == 1:
        vals = [-vals[0]] * 4 + vals * 4
    if len(vals) != 8 or not np.all(np.isfinite(vals)):
        raise ValidationError(
            f"--box must be one finite radius or eight finite floats (lower then upper), "
            f"got {text!r}"
        )
    return tuple(vals[:4]), tuple(vals[4:])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fixture(args) -> int:
    for flag, value in (("--seed", args.seed), ("--atoms", args.atoms)):
        _check_count(value, 0, f"{flag} must be an integer >= 0, got {value}")
    if args.atoms == 0 and args.kind != "random":
        raise ValidationError(f"--atoms must be at least 1 for a {args.kind} fixture, got 0")
    radius = ("--spatial-radius", args.spatial_radius)
    scales = {"dirac-sea": [("--mass", args.mass), radius], "nilpotent": [radius]}
    for flag, value in scales.get(args.kind, []):
        _check_real(value, flag, 0)
    rng = np.random.default_rng(args.seed)
    if args.kind == "dirac-sea":
        ks = args.spatial_radius * rng.standard_normal((args.atoms, 3))
        points = [
            (-float(np.hypot(np.linalg.norm(k), args.mass)), *k) for k in ks
        ]
        measure = dirac_sea_fixture(args.mass, points)
    elif args.kind == "nilpotent":
        ks = args.spatial_radius * rng.standard_normal((args.atoms, 3))
        norms = np.linalg.norm(ks, axis=1)
        ks = ks[norms > 1e-9]
        measure = massless_fixture(ks)
    else:  # "random"; argparse restricts the choices
        lower, upper = _parse_box(args.box)
        box = MomentumBox(lower, upper, _parse_counts(args.grid, "--grid"))
        measure = random_measure(SignatureSpace(args.n), box, args.atoms, rng)
    save_measure(measure, args.out)
    print(f"wrote {args.kind} fixture with {measure.n_atoms} atoms to {args.out}")
    return 0


def cmd_minimize(args) -> int:
    overrides = {
        "seed": args.seed,
        "c": args.c,
        "f": args.f,
        "smoothing_delta": args.smoothing_delta,
        "tol_el": args.tol_el,
        "position_radius": args.position_radius,
    }
    overrides = {key: val for key, val in overrides.items() if val is not None}
    if args.grid is not None:
        overrides["momentum_shape"] = _parse_counts(args.grid, "--grid")
    if args.box is not None:
        overrides["box_lower"], overrides["box_upper"] = _parse_box(args.box)
    if args.position_grid is not None:
        overrides["position_shape"] = _parse_counts(args.position_grid, "--position-grid")

    def build(data: dict) -> MinimizeConfig | ValidationError:
        """The file's configuration with the overrides, or their error when the file alone is valid."""
        try:
            return config_from_dict({**data, **overrides})
        except ValidationError as err:
            try:
                config_from_dict(data)
            except (ValueError, TypeError):
                raise err from None
            return err

    if not args.config:
        config = config_from_dict(overrides)
    elif isinstance(config := _read_document(args.config, "configuration", build), ValidationError):
        raise ValidationError(f"command-line override of configuration file {args.config}: {config}")

    os.makedirs(args.out, exist_ok=True)
    _write_document(os.path.join(args.out, "config.json"), config_to_dict(config), sort_keys=True)
    result = minimize_action(config)

    columns = ("iteration", "action", "trace", "signed_trace", "step", "grad_norm", "escapes", "trials")
    _write_table(os.path.join(args.out, "iterations.csv"), columns,
                 [[row[key] for key in columns] for row in result.trace])
    save_measure(result.measure, os.path.join(args.out, "measure.json"))
    save_report(result.report, os.path.join(args.out, "report.json"))
    report_to_csv(result.report, os.path.join(args.out, "report.csv"))
    checks = check_first_order(result.report, config.tol_el)
    summary = {
        "action": result.action_value,
        "alpha": result.alpha,
        "beta": result.beta,
        "case_tag": result.case_tag,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "checks": checks,
    }
    _write_document(os.path.join(args.out, "status.json"), summary, sort_keys=True)
    print(
        f"action {result.action_value!r} case {result.case_tag} converged={result.converged} "
        f"stop={result.stop_reason}"
    )
    for name in ("psd_margin", "support_residuals", "support_gap", "beta_sign"):
        print(f"check {name}: {'pass' if checks[name] else 'FAIL'}")
    return 0 if result.converged else 2


def cmd_verify(args) -> int:
    for path in (args.out, args.csv):
        if path:
            _check_writable(path)
    measure = load_measure(args.measure)
    if args.q_file:
        q, q_space = load_operator(args.q_file)
        if q_space != measure.space:
            raise ValidationError(
                f"--q-file operator acts on a space of dimension {q_space.dim} (n={q_space.n}), "
                f"the measure on dimension {measure.space.dim} (n={measure.space.n})"
            )
        q = _require_symmetric(q, q_space, f"--q-file operator {args.q_file}")
        qhats_at, tail = (lambda probes: np.repeat(q[None], len(probes), axis=0)), None
    else:
        qhat = QHatEvaluator(measure, _position_grid(args), smoothing_delta=args.smoothing_delta or 0.0)
        qhats_at, tail = qhat.evaluate_many, qhat.tail_magnitude

    trace, signed_trace = (float(t.real) for t in _trace_functionals(measure.total(), measure.space))
    c = args.c if args.c is not None else trace
    f = args.f if args.f is not None else signed_trace
    if args.c is None or args.f is None:
        try:
            _check_targets(c, f)
        except ValidationError as err:
            raise ValidationError(f"{err}; targets not given default to the measure's trace (c) "
                                  "and signed trace (f), so pass --c and --f") from None

    tol_el = args.tol_el if args.tol_el is not None else tolerances.EL_RESIDUAL
    report = _certify(measure, *_probes(measure.box, measure.momenta), qhats_at, c, f, tail)
    checks = check_first_order(report, tol_el)
    if args.out:
        save_report(report, args.out)
    if args.csv:
        report_to_csv(report, args.csv)
    print(f"alpha {report.alpha!r} beta {report.beta!r} case {report.case_tag}")
    worst = float(report.probe_margins.min(initial=np.inf))
    residual = float(
        max(
            report.atom_residual_left.max(initial=0.0),
            report.atom_residual_right.max(initial=0.0),
        )
    )
    print(f"min psd margin {worst!r}; max support residual {residual!r}")
    for name in ("psd_margin", "support_residuals", "support_gap", "beta_sign"):
        print(f"check {name}: {'pass' if checks[name] else 'FAIL'}")
    return 0 if checks["all"] else 2


def cmd_decompose(args) -> int:
    measure = load_measure(args.measure)
    parts = decompose(measure)
    os.makedirs(args.out, exist_ok=True)
    for name in ("particle", "neutral", "sea"):
        component, path = getattr(parts, name), os.path.join(args.out, f"{name}.json")
        save_measure(component, path)
        mass = float(sum(np.linalg.norm(component.operators, 2, axis=(1, 2)).tolist()))
        print(f"{name}: operator mass {mass!r} -> {path}")
    return 0


def cmd_pointwise(args) -> int:
    q, space = load_operator(args.q_file)
    problem = PointwiseProblem(space=space, q=q, a=args.a, b=args.b)
    solution = solve(problem)
    payload = {
        "alpha": solution.alpha,
        "beta": solution.beta,
        "objective": solution.objective,
        "tag": solution.tag,
        "multipliers_valid": solution.multipliers_valid,
        "A_re": solution.A.real.tolist(),
        "A_im": solution.A.imag.tolist(),
    }
    if solution.family is not None:
        payload["family"] = {
            "slope": solution.family.slope,
            "offset": solution.family.offset,
            "alpha_min": solution.family.alpha_min,
            "alpha_max": solution.family.alpha_max,
        }
    print(json.dumps(payload, indent=1, sort_keys=True))
    if args.out:
        _write_document(args.out, payload, sort_keys=True)
    return 0


def cmd_sweep_alpha(args) -> int:
    q, space = load_operator(args.q_file)
    _check_real(args.alpha_min, "--alpha-min")
    _check_real(args.alpha_max, "--alpha-max")
    if args.alpha_max <= args.alpha_min:
        raise ValidationError("--alpha-max must exceed --alpha-min")
    _check_count(args.count, 1, f"--count must be at least 1, got {args.count}")
    rows = []
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.count).tolist():
        av = a_of_alpha(q, space, alpha)
        rows.append((alpha, av.a_min, av.beta))
        if av.degenerate:
            rows.append((alpha, av.a_max, av.beta))
    _write_table(args.out, ("alpha", "a", "beta"), rows)
    print(f"wrote sweep of {args.count} alphas to {args.out}")
    return 0


def cmd_correlate(args) -> int:
    measure = load_measure(args.measure)
    basis = standard_basis(measure, limit=args.basis_size)
    samples = empirical_cfs(measure, _position_grid(args), basis)
    correlations_to_csv(samples, args.out)
    print(f"wrote {len(samples)} correlation samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinact",
        description=(
            "Variational toolkit for positive operator-valued measures on "
            "indefinite inner product spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fixture = sub.add_parser("fixture", help="write a fixture measure file")
    fixture.add_argument("kind", choices=["dirac-sea", "nilpotent", "random"])
    fixture.add_argument("--out", required=True, help="output measure file")
    fixture.add_argument("--seed", type=int, default=0)
    fixture.add_argument("--atoms", type=int, default=8)
    fixture.add_argument("--mass", type=float, default=1.0)
    fixture.add_argument("--spatial-radius", type=float, default=1.0)
    fixture.add_argument("--n", type=int, default=1, help="spin dimension (random kind)")
    fixture.add_argument("--box", default="1.0", help="momentum box: radius or 8 floats")
    fixture.add_argument("--grid", default="2,2,2,2", help="momentum grid counts")
    fixture.set_defaults(func=cmd_fixture)

    minimize = sub.add_parser("minimize", help="run the constrained minimization")
    minimize.add_argument("--config", help="JSON configuration file")
    minimize.add_argument("--out", required=True, help="run directory")
    minimize.add_argument("--seed", type=int, default=None)
    minimize.add_argument("--c", type=float, default=None)
    minimize.add_argument("--f", type=float, default=None)
    minimize.add_argument("--smoothing-delta", type=float, default=None)
    minimize.add_argument("--tol-el", type=float, default=None)
    minimize.add_argument("--grid", default=None, help="momentum grid counts")
    minimize.add_argument("--box", default=None, help="momentum box: radius or 8 floats")
    minimize.add_argument("--position-radius", type=float, default=None)
    minimize.add_argument("--position-grid", default=None)
    minimize.set_defaults(func=cmd_minimize)

    verify = sub.add_parser("verify", help="first-order condition report for a measure")
    verify.add_argument("measure", help="measure file")
    verify.add_argument("--q-file", help="operator file for a constant gradient field")
    verify.add_argument("--c", type=float, default=None)
    verify.add_argument("--f", type=float, default=None)
    verify.add_argument("--tol-el", type=float, default=None)
    verify.add_argument("--smoothing-delta", type=float, default=None)
    verify.add_argument("--position-radius", type=float, default=3.0)
    verify.add_argument("--position-grid", default="5,1,1,1")
    verify.add_argument("--out", help="write the report document here")
    verify.add_argument("--csv", help="write the (p, gap, margin) table here")
    verify.set_defaults(func=cmd_verify)

    decompose_p = sub.add_parser("decompose", help="split a measure into components")
    decompose_p.add_argument("measure", help="measure file")
    decompose_p.add_argument("--out", required=True, help="output directory")
    decompose_p.set_defaults(func=cmd_decompose)

    pointwise = sub.add_parser("pointwise", help="solve a pointwise trace minimization")
    pointwise.add_argument("q_file", help="operator file with the coefficient")
    pointwise.add_argument("--a", type=float, required=True)
    pointwise.add_argument("--b", type=float, required=True)
    pointwise.add_argument("--out", help="also write the solution document here")
    pointwise.set_defaults(func=cmd_pointwise)

    sweep = sub.add_parser("sweep-alpha", help="tabulate alpha -> (a, beta)")
    sweep.add_argument("q_file", help="operator file with the coefficient")
    sweep.add_argument("--alpha-min", type=float, required=True)
    sweep.add_argument("--alpha-max", type=float, required=True)
    sweep.add_argument("--count", type=int, default=101)
    sweep.add_argument("--out", required=True, help="output CSV")
    sweep.set_defaults(func=cmd_sweep_alpha)

    correlate = sub.add_parser("correlate", help="sample local correlation spectra")
    correlate.add_argument("measure", help="measure file")
    correlate.add_argument("--position-radius", type=float, default=3.0)
    correlate.add_argument("--position-grid", default="3,1,1,1")
    correlate.add_argument("--basis-size", type=int, default=None)
    correlate.add_argument("--out", required=True, help="output CSV")
    correlate.set_defaults(func=cmd_correlate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call (parsing does not change it)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KreinactError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
