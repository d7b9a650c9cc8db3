"""Command-line front door.

Every subcommand prints one strict JSON report to stdout (machine-diffable;
keys sorted; non-finite numbers written as strings) and a one-line human
summary to stderr.  Exit codes: 0 passed, 1 failed, 2 inconclusive
(undecided inner verdicts), 3 input error.  Input that is well formed but
fails a command's precondition (say, ``g-map`` on a structure that is not
continuous into the discrete quotient), or whose computation fails, gets a
FAIL report whose ``note`` gives the reason, and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fileio, fixtures
from .algebra import validate_algebra
from .algebroid import axiom_report
from .bundles import check_delta_continuity, validate_lab
from .connections import accordance, validate_connection
from .correspondence import f_map, g_map, verify_inverse
from .errors import ComputationError, CoverageError, InputError, PreconditionError
from .manifolds import partition_of_unity
from .tolerances import ACC_TOL, ALG_TOL, INNER_TOL, LEIBNIZ_TOL, ODE_STEPS, SKEW_TOL, TRANS_TOL, peak

EXIT_PASSED = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


def _emit(report: dict) -> int:
    json.dump(report, sys.stdout, sort_keys=True, allow_nan=False)
    sys.stdout.write("\n")
    state = "INCONCLUSIVE" if report["inconclusive"] else ("PASS" if report["passed"] else "FAIL")
    print(f"{report['command']}: {state}", file=sys.stderr)
    if report["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASSED if report["passed"] else EXIT_FAILED


def _report(command: str, passed: bool, residuals: dict, *, inconclusive: bool = False,
            artifacts=(), seed: int = 0, extra: dict | None = None) -> dict:
    report = {
        "command": command,
        "passed": bool(passed) and not bool(inconclusive),
        "inconclusive": bool(inconclusive),
        "residuals": {k: float(v) for k, v in residuals.items()},
        "artifacts": list(artifacts),
        "seed": int(seed),
    }
    if extra:
        report.update(extra)
    return _strict(report)


def _strict(value):
    """Strict JSON has no inf/nan: write a non-finite float as the string
    "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def cmd_validate_algebra(args) -> int:
    g = fileio.load_algebra(args.algebra)
    rep = validate_algebra(g, tol=args.alg_tol)
    return _emit(_report("validate-algebra", rep.passed, rep.residuals(),
                         extra={"worst_jacobi_index": list(rep.worst_jacobi)}))


def cmd_validate_lab(args) -> int:
    t = fileio.load_bundle(args.bundle)
    rep = validate_lab(t, tol=args.alg_tol)
    return _emit(_report("validate-lab", rep.passed, rep.residuals(), extra={"worst": rep.worst}))


def cmd_check_delta(args) -> int:
    t = fileio.load_bundle(args.bundle)
    lab = validate_lab(t, tol=args.alg_tol)
    if not lab.passed:
        return _emit(_report("check-delta", False, lab.residuals(), extra={"worst": lab.worst}))
    rep = check_delta_continuity(t, inner_tol=args.inner_tol, lab_tol=args.alg_tol)
    return _emit(
        _report(
            "check-delta",
            rep.passed,
            {"max_inner": rep.max_inner_residual},
            inconclusive=rep.undecided,
            extra={"verdicts": rep.counts()},
        )
    )


def cmd_check_coupling(args) -> int:
    c = fileio.load_connection(args.connection)
    conn_rep = validate_connection(c, tol=args.alg_tol)
    result = accordance(c, tol=args.acc_tol)
    norms = [np.linalg.norm(grid, axis=-1) for grid in result.curvature.omega_form]
    stats = {
        "omega_norm_max": peak(*norms),
        "omega_norm_mean": float(np.mean([x.mean() if x.size else 0.0 for x in norms])),
    }
    residuals = {"accordance": result.max_residual, **conn_rep.residuals()}
    return _emit(
        _report(
            "check-coupling",
            conn_rep.passed and result.passed,
            residuals,
            extra={"omega_stats": stats, "center_ambiguity_dim": result.center_dim},
        )
    )


def cmd_f_map(args) -> int:
    c = fileio.load_connection(args.connection)
    result = f_map(c, ode_steps=args.ode_steps, acc_tol=args.acc_tol,
                   aut_tol=args.trans_tol, inner_tol=args.inner_tol)
    artifacts = []
    if args.out:
        fileio.save_json(args.out, fileio.bundle_to_dict(result.trivialization))
        artifacts.append(args.out)
    return _emit(
        _report(
            "f-map",
            result.passed,
            {
                "transition_automorphism": result.lab_report.max_transition_residual,
                "max_inner": result.delta.max_inner_residual,
            },
            inconclusive=result.delta.undecided,
            artifacts=artifacts,
            extra={"verdicts": result.delta.counts()},
        )
    )


def cmd_g_map(args) -> int:
    t = fileio.load_bundle(args.bundle)
    h = partition_of_unity(t.manifold, sharpness=args.sharpness)
    c = g_map(t, h, inner_tol=args.inner_tol)
    rep = validate_connection(c, tol=args.alg_tol)
    result = accordance(c, tol=args.acc_tol)
    artifacts = []
    if args.out:
        fileio.save_json(args.out, fileio.connection_to_dict(c))
        artifacts.append(args.out)
    return _emit(
        _report(
            "g-map",
            rep.passed and result.passed,
            {"accordance": result.max_residual, **rep.residuals()},
            artifacts=artifacts,
        )
    )


def cmd_roundtrip(args) -> int:
    if bool(args.bundle) == bool(args.connection):
        raise InputError("provide exactly one of --bundle / --connection")
    kwargs = {"ode_steps": args.ode_steps, "coupling_tol": args.acc_tol, "inner_tol": args.inner_tol}
    if args.connection:
        rep = verify_inverse(c=fileio.load_connection(args.connection), **kwargs)
    else:
        rep = verify_inverse(t=fileio.load_bundle(args.bundle), **kwargs)
    directions = {
        name: {"passed": d.passed, "residual": d.residual, "undecided": d.undecided}
        for name, d in rep.directions.items()
    }
    residuals = {name: d.residual for name, d in rep.directions.items()}
    return _emit(
        _report(
            "roundtrip",
            rep.passed,
            residuals,
            inconclusive=rep.inconclusive,
            extra={"directions": directions, "note": rep.note},
        )
    )


def cmd_axioms(args) -> int:
    c = fileio.load_connection(args.connection)
    result = accordance(c, tol=args.acc_tol)
    if not result.passed:
        return _emit(
            _report("axioms", False, {"accordance": result.max_residual},
                    extra={"note": "not a coupling: accordance fails"})
        )
    rep = axiom_report(c, result.curvature, trials=args.trials, seed=args.seed)
    passed = rep.max_skew <= SKEW_TOL and rep.max_leibniz <= LEIBNIZ_TOL
    return _emit(_report("axioms", passed, rep.residuals(), seed=args.seed))


def cmd_fixtures(args) -> int:
    if args.list:
        names = {
            "algebras": list(fixtures.ALGEBRA_NAMES),
            "manifolds": list(fixtures.MANIFOLD_NAMES),
            "bundles": list(fixtures.BUNDLE_NAMES),
            "connections": list(fixtures.CONNECTION_NAMES),
        }
        return _emit(_report("fixtures", True, {}, extra={"names": names}))
    out_dir = args.out_dir or os.environ.get("ALGEBROID_FIXTURE_DIR", ".")
    path = fileio.emit_fixture(args.emit, out_dir)
    return _emit(_report("fixtures", True, {}, artifacts=[str(path)]))


def _finite_positive(text: str) -> float:
    """argparse type of the tolerance and sharpness flags: a finite float > 0.
    A NaN tolerance would turn every ``residual <= tol`` verdict false."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


TOLERANCE_FLAGS = {
    "--alg-tol": ALG_TOL,
    "--acc-tol": ACC_TOL,
    "--trans-tol": TRANS_TOL,
    "--inner-tol": INNER_TOL,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labcoupling",
        description="Couplings between Lie algebra bundles and tangent bundles, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name: str, func, summary: str, *tols: str) -> argparse.ArgumentParser:
        """A subparser that declares only the tolerance flags its handler reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in tols:
            p.add_argument(flag, type=_finite_positive, default=TOLERANCE_FLAGS[flag])
        return p

    p = command("validate-algebra", cmd_validate_algebra, "check bracket axioms of an algebra file",
                "--alg-tol")
    p.add_argument("--algebra", required=True)

    p = command("validate-lab", cmd_validate_lab, "check a bundle structure", "--alg-tol")
    p.add_argument("--bundle", required=True)

    p = command("check-delta", cmd_check_delta, "discrete-quotient continuity sweep",
                "--alg-tol", "--inner-tol")
    p.add_argument("--bundle", required=True)

    p = command("check-coupling", cmd_check_coupling, "curvature-vs-inner-span accordance",
                "--alg-tol", "--acc-tol")
    p.add_argument("--connection", required=True)

    p = command("f-map", cmd_f_map, "coupling -> bundle structure by ray transport",
                "--acc-tol", "--trans-tol", "--inner-tol")
    p.add_argument("--connection", required=True)
    p.add_argument("--out")
    p.add_argument("--ode-steps", type=int, default=ODE_STEPS)

    p = command("g-map", cmd_g_map, "bundle structure -> coupling connection",
                "--alg-tol", "--acc-tol", "--inner-tol")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out")
    p.add_argument("--sharpness", type=_finite_positive, default=1.0)

    p = command("roundtrip", cmd_roundtrip, "verify the two maps are mutually inverse",
                "--acc-tol", "--inner-tol")
    p.add_argument("--bundle")
    p.add_argument("--connection")
    p.add_argument("--ode-steps", type=int, default=ODE_STEPS)

    p = command("axioms", cmd_axioms, "bracket axiom residuals on random sections", "--acc-tol")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = command("fixtures", cmd_fixtures, "list or emit canonical fixtures")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--emit")
    p.add_argument("--out-dir")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself; remap its code
        return EXIT_PASSED if exc.code in (0, None) else EXIT_INPUT_ERROR
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (PreconditionError, ComputationError) as exc:
        return _emit(_report(args.command, False, {}, extra={"note": str(exc)}))
    except (InputError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
