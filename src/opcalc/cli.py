"""Command-line front end.

Subcommands: ``dd``, ``funcalc``, ``newton``, ``taylor``, ``dyson``,
``magnus``, ``rearrange``, ``verify-all``, ``gen``.  Reports are JSON (CSV for
time/decay series); every checked residual is a record of the identity
registry in ``opcalc.verify``, reported with the tolerance it was held to, and
the exit status is 0 only if all residuals pass: 1 on residual failure (a
``FAIL`` line each), 2 on an input error (an ``OpcalcError``, a file that
cannot be read, or one that is not JSON or not UTF-8; one ``error:`` line),
and 3 on any other exception, which is a bug (one ``internal error:`` line).

Reports contain no timestamps or timings unless ``--timings`` is passed, so
identical job specs and seeds produce byte-identical output.  Every matrix in
a report is ``{"dim", "dtype": "<c16", "b64"}``, the base64 text of its
row-major little-endian complex128 bytes (:func:`opcalc.core.matrix_to_json`),
exact and one string, so a d^(n+1)-square ``ddtensor`` tensor costs no decimal
formatting; job and ``--field`` files may give a matrix in that form or as
``{"dim", "re", "im"}``.  :func:`main` writes the report a handler returns
as ``json.dumps(report, indent=2, sort_keys=True)``; a handler that has
written its own output (``magnus --format csv``) returns none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import divdiff, verify
from .core import (
    _checked_json,
    _field,
    _finite_number,
    _number_list,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    pair,
)
from .errors import InvalidInput, OpcalcError
from .funcalc import (
    CommutingTuple,
    apply_function,
    apply_via_eig,
    dd_apply,
    dd_tensor,
    funcalc_elementary,
)
from .functions import named_function
from .generate import KINDS, MAX_DIM, gen_matrix
from .magnus import MAX_STEPS, builtin_field, field_from_samples, magnus_solve, rk_reference
from .ncseries import dyson_exp, newton_interpolate, taylor_expand
from .quadrature import Contour
from .rearrange import eigenbasis, rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G

__all__ = ["main", "gen_matrix"]


def _complex_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_json(value, what: str) -> complex:
    """A JSON [re, im] pair of numbers as a complex (InvalidInput otherwise)."""
    if len(_number_list(value, what)) != 2:
        raise InvalidInput(f"{what} must be an [re, im] pair, got {len(value)} numbers")
    return complex(*value)


def _nodes_from_json(text: str) -> np.ndarray:
    data = _checked_json(json.loads(text), list, "--nodes")
    return np.array([_complex_from_json(p, "a --nodes entry") for p in data])


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _verdict(residuals: list[verify.Residual]) -> bool:
    """Print a FAIL line per failing residual; True if all pass."""
    for r in residuals:
        if not r.passed:
            print(
                f"FAIL {r.identity}: residual {r.value:.3e} exceeds "
                f"tolerance {r.tolerance:.3e}",
                file=sys.stderr,
            )
    return all(r.passed for r in residuals)


def _report(args, params: dict, results: dict, residuals: list[verify.Residual],
            diagnostics: dict | None = None, **extra) -> tuple[dict, bool]:
    """A subcommand's JSON report, and whether every residual passed."""
    report = {
        "subcommand": args.subcommand,
        "params": params,
        "seed": args.seed,
        "results": results,
        "residuals": [{"identity": r.identity, "value": r.value,
                       "tolerance": r.tolerance, "pass": r.passed} for r in residuals],
        "diagnostics": diagnostics or {},
        **extra,
    }
    return report, _verdict(residuals)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_dd(args, tol) -> tuple[dict, bool]:
    f = named_function(args.f)
    xs = _nodes_from_json(args.nodes)
    stats: dict = {}
    methods = verify.DD_ROUTES if args.method == "all" else [args.method]
    values: dict = {}  # a route's value, or the OpcalcError it refused with
    for m in methods:
        try:
            if m == "recursive":
                values[m] = divdiff.dd_recursive(f, xs)
            elif m == "explicit":
                values[m] = divdiff.dd_explicit(f, xs)
            elif m == "contour":
                values[m] = divdiff.dd_contour(f, xs, stats=stats)
            elif m == "hermite":
                values[m] = divdiff.dd_hermite(f, xs, stats=stats)
            else:  # power, the one other --method choice
                if not args.f.startswith("pow:"):
                    raise InvalidInput("--method power needs --f pow:N")
                values[m] = divdiff.dd_power(xs, int(args.f.split(":")[1]))
        except OpcalcError as exc:
            if args.method != "all":
                raise
            values[m] = exc  # e.g. coincident nodes for the recursion
    residuals = verify.dd_agreement(values, tol)
    params = {"f": args.f, "nodes": args.nodes, "method": args.method}
    results = {m: _complex_json(v) for m, v in values.items() if not isinstance(v, OpcalcError)}
    notes = {m: str(v) for m, v in values.items() if isinstance(v, OpcalcError)}
    return _report(args, params, results, residuals, stats, notes=notes)


def _cmd_funcalc(args, tol) -> tuple[dict, bool]:
    if args.job == "-":
        job = json.load(sys.stdin)
    else:
        with open(args.job) as fh:
            job = json.load(fh)
    mode = _checked_json(job, dict, "a funcalc job").get("mode", "funcalc")
    mats = [matrix_from_json(m)
            for m in _checked_json(_field(job, "matrices", "a funcalc job"), list, "job matrices")]
    spec = _checked_json(job.get("contour", {"auto": True}), dict, "job contour")
    contour = None
    if not _checked_json(spec.get("auto", False), bool, "contour auto"):
        contour = Contour(  # the one check of a circle, its node count included
            _complex_from_json(_field(spec, "center", "job contour"), "contour center"),
            float(_finite_number(_field(spec, "radius", "job contour"), "contour radius")),
            _checked_json(spec.get("nodes", 16), int, "contour nodes"),
        )
    fnames = _checked_json(_field(job, "function", "a funcalc job"), (str, list), "job function")
    names = [_checked_json(nm, str, "a function name")
             for nm in ([fnames] if isinstance(fnames, str) else fnames)]
    if not names:
        raise InvalidInput("job function must name at least one function")
    stats: dict = {}
    residuals = []
    results: dict = {}
    if mode == "funcalc":
        if len(mats) == 1 and len(names) == 1:
            f = named_function(names[0])
            value = apply_function(f, mats[0], contour, stats=stats)
            results["value"] = matrix_to_json(value)
            try:
                residuals.append(verify.eig_oracle(value, apply_via_eig(f, mats[0]), tol))
            except OpcalcError:
                results["oracle"] = "matrix not diagonalizable; contour value only"
        else:
            if len(names) != len(mats):
                raise InvalidInput("need one function name per matrix")
            fs = [named_function(nm) for nm in names]
            tup = CommutingTuple(mats)
            cs = None if contour is None else [contour] * len(mats)
            value, joint = funcalc_elementary(fs, tup, cs, check_tol=tol["tensor-product-rule"])
            results["value"] = matrix_to_json(value)
            residuals.append(verify.tensor_rule(joint, value, tol))
            stats["tensor_rule_defect"] = residuals[-1].value
    elif mode == "ddtensor":
        f = named_function(names[0])
        op = dd_tensor(f, mats, contour, stats=stats)
        results["tensor"] = matrix_to_json(op.matrix)
        results["slots"] = op.slots
    elif mode == "ddapply":
        f = named_function(names[0])
        bs = [matrix_from_json(m) for m in _checked_json(_field(job, "b_matrices", "a funcalc job"),
                                                         list, "job b_matrices")]
        value = dd_apply(f, mats, bs, contour, stats=stats)
        results["value"] = matrix_to_json(value)
        tensored = pair(dd_tensor(f, mats, contour), bs)
        residuals.append(verify.pairing_consistency(value, tensored, tol))
    else:
        raise InvalidInput(f"unknown mode {mode!r}")
    return _report(args, {"job": job}, results, residuals, stats)


def _expansion_report(args, report, residuals, measure: float, rtol: float,
                      diagnostics=None) -> tuple[dict, bool]:
    """The report of an expansion, with its ``converged`` flag judged as
    ``measure <= rtol |target|`` at the --tol-scale'd ``rtol``."""
    if getattr(args, "csv", None):
        rows = [[n, float(r)] for n, r in enumerate(report.remainder_norms)]
        _write(_csv(["order", "remainder_norm"], rows), args.csv)
    params = {k: getattr(args, k) for k in ("f", "dim", "order", "b_scale", "count")
              if hasattr(args, k)}
    results = report.to_dict()
    results["converged"] = measure <= rtol * max(opnorm(report.target), 1e-300)
    return _report(args, params, results, residuals, diagnostics)


def _at_most(args, name: str, most: int) -> int:
    """``args.<name>``, refused (:class:`InvalidInput`) above ``most``: a size
    that dense arrays grow with, bounded before any is allocated."""
    value = getattr(args, name)
    if value > most:
        raise InvalidInput(f"--{name} {value} exceeds {most}")
    return value


def _cmd_newton(args, tol) -> tuple[dict, bool]:
    count = _at_most(args, "count", 64)
    dim = _at_most(args, "dim", MAX_DIM)
    f = named_function(args.f)
    mats = [gen_matrix("random", dim, args.seed + j) for j in range(count)]
    report = newton_interpolate(f, mats)
    return _expansion_report(args, report, [verify.newton_residual(report, tol)],
                             report.final_residual, tol["newton-interpolation"])


def _cmd_taylor(args, tol) -> tuple[dict, bool]:
    order = _at_most(args, "order", 64)
    dim = _at_most(args, "dim", MAX_DIM)
    f = named_function(args.f)
    a = gen_matrix("random", dim, args.seed)
    b = args.b_scale * gen_matrix("random", dim, args.seed + 1)
    report = taylor_expand(f, a, b, N=order)
    residuals = [verify.taylor_decay(report, b, tol), verify.taylor_remainder(report, tol)]
    # the last remainder relative to the target, as for newton
    return _expansion_report(args, report, residuals,
                             report.final_residual, tol["newton-interpolation"],
                             {"c2_times_b": verify.taylor_decay_bound(report, b)})


def _cmd_dyson(args, tol) -> tuple[dict, bool]:
    order = _at_most(args, "order", 64)
    dim = _at_most(args, "dim", MAX_DIM)
    a = gen_matrix("random", dim, args.seed)
    b = args.b_scale * gen_matrix("random", dim, args.seed + 1)
    report = dyson_exp(a, b, N=order)
    return _expansion_report(args, report, [verify.dyson_defect(report, tol)],
                             report.meta["identity_defect"],
                             tol["dyson-finite-remainder-identity"])


def _cmd_magnus(args, tol) -> tuple[dict | None, bool]:
    if args.rows < 1:
        raise InvalidInput(f"--rows must be at least 1, got {args.rows}")
    if not (math.isfinite(args.h) and args.h > 0):
        raise InvalidInput(f"--h must be positive and finite, got {args.h!r}")
    if not (math.isfinite(args.t_end) and args.t_end >= 0):
        raise InvalidInput(f"--t-end must be finite and nonnegative, got {args.t_end!r}")
    if args.field.endswith(".json"):
        with open(args.field) as fh:
            samples = _checked_json(json.load(fh), dict, "a --field file")
        field = field_from_samples(
            _number_list(_field(samples, "times", "a --field file"), "field times"),
            [matrix_from_json(m) for m in _checked_json(
                _field(samples, "matrices", "a --field file"), list, "field matrices")],
        )
    else:
        field = builtin_field(args.field)
    # magnus_solve's own step bound, applied before a checkpoint list that long is built
    if args.t_end / args.h > MAX_STEPS:
        raise InvalidInput(f"t_end / h = {args.t_end / args.h:.4g} steps, more than 2**20")
    # a remainder below 1e-9 of a step is rounding, not one more step, so no
    # checkpoint lands within rounding of t_end
    steps = max(1, math.ceil(args.t_end / args.h - 1e-9))
    report_every = max(1, steps // args.rows)
    checkpoints = [k * args.h for k in range(report_every, steps, report_every)]
    checkpoints.append(args.t_end)
    solved = magnus_solve(field, args.t_end, args.h, args.order, checkpoints=checkpoints)
    references = rk_reference(field, args.t_end, checkpoints=checkpoints)
    rows = [[0.0, 0.0, 0.0]]
    for t, (omega, y), reference in zip(checkpoints, solved, references):
        check = verify.magnus_discrepancy(y, reference, tol)
        rows.append([float(t), opnorm(omega), check.value])
    # only the last row, at t_end, is held to the tolerance
    columns = ["t", "omega_norm", "discrepancy"]
    if args.format == "csv":
        _write(_csv(columns, rows), args.output)
        return None, _verdict([check])
    params = {"field": args.field, "t_end": args.t_end, "h": args.h, "order": args.order,
              "rows": args.rows}
    return _report(args, params, {"rows": rows, "columns": columns}, [check])


def _cmd_rearrange(args, tol) -> tuple[dict, bool]:
    p = _at_most(args, "p", 6)
    dim = _at_most(args, "dim", MAX_DIM)
    # the kernel routes evaluate on every (p+1)-tuple of eigenvalues at once
    if dim ** (p + 1) > 4096:
        raise InvalidInput(f"kernel grid --dim^(--p + 1) = {dim ** (p + 1)} exceeds 4096")
    try:
        qs = [int(q) for q in args.family.split(",")]
    except ValueError:
        raise InvalidInput(f"--family entries must be integers, got {args.family!r}") from None
    if len(qs) != p + 1:
        raise InvalidInput(f"--family needs p+1 = {p + 1} exponents")
    a = gen_matrix("hermitian", dim, args.seed)
    A = matrix_exp(a)
    bs = [gen_matrix("random", dim, args.seed + 1 + j) for j in range(p)]
    basis = eigenbasis(qs, A, bs, delta=args.delta)  # one check for all three routes
    lhs = rearrange_lhs(basis)
    rf = rearrange_rhs_F(basis)
    rg = rearrange_rhs_G(basis)
    params = {"p": p, "dim": dim, "family": args.family, "delta": args.delta}
    results = {"lhs": matrix_to_json(lhs), "rhs_F": matrix_to_json(rf),
               "rhs_G": matrix_to_json(rg)}
    return _report(args, params, results, verify.rearrangement(lhs, rf, rg, tol))


def _cmd_verify_all(args, tol) -> tuple[dict, bool]:
    results = verify.run_battery(args.seed, tol)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.identity}: residual {r.value:.3e} "
              f"(tolerance {r.tolerance:.3e})")
    return _report(args, {}, {}, results)


def _cmd_gen(args, tol) -> tuple[dict, bool]:
    dim = _at_most(args, "dim", MAX_DIM)
    out = gen_matrix(args.kind, dim, args.seed)
    mats = list(out) if isinstance(out, tuple) else [out]
    results = {"matrices": [matrix_to_json(m) for m in mats]}
    return _report(args, {"kind": args.kind, "dim": dim}, results, [])


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    It binds no handler: :func:`main` looks ``_cmd_<subcommand>`` up at call
    time, so a replaced module attribute is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="Divided differences and contour-integral matrix calculus checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--output", default=None, help="write the report here")
        p.add_argument("--tol-scale", type=float, default=1.0,
                       help="multiply every identity tolerance")
        p.add_argument("--timings", action="store_true",
                       help="include wall time (breaks byte-identical reports)")
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults (same keys as flags)")

    p = sub.add_parser("dd", help="scalar divided differences, four methods")
    p.add_argument("--f", required=True, help="exp | log | pow:N | resolvent:RE,IM | rational:K")
    p.add_argument("--nodes", required=True, help="JSON [[re,im],...]")
    p.add_argument("--method", default="all",
                   choices=("recursive", "explicit", "contour", "hermite", "power", "all"))
    common(p)

    p = sub.add_parser("funcalc", help="contour functional calculus from a JSON job spec")
    p.add_argument("--job", required=True, help="job file path, or - for stdin")
    common(p)

    p = sub.add_parser("newton", help="interpolation expansion through random nodes")
    p.add_argument("--f", default="exp")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--count", type=int, default=4, help="number of nodes")
    p.add_argument("--csv", default=None, help="write the remainder-decay table here")
    common(p)

    p = sub.add_parser("taylor", help="perturbation expansion with remainder tracking")
    p.add_argument("--f", default="exp")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--b-scale", type=float, default=0.1, dest="b_scale")
    p.add_argument("--csv", default=None)
    common(p)

    p = sub.add_parser("dyson", help="expansion of exp(a+b) from one block-bidiagonal "
                       "exponential; simplex integrals are the verify-all oracle")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--b-scale", type=float, default=0.2, dest="b_scale")
    p.add_argument("--csv", default=None)
    common(p)

    p = sub.add_parser("magnus", help="log-propagator integrator vs Runge-Kutta")
    p.add_argument("--field", default="triangular",
                   help="triangular | perturbed:SEED | samples.json")
    p.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p.add_argument("--h", type=float, default=0.005)
    p.add_argument("--order", type=int, default=28)
    p.add_argument("--rows", type=int, default=20,
                   help="report a row every floor(steps/rows) steps, steps = "
                   "ceil(t_end/h), plus t = 0 and t_end; one solve whatever the count")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    common(p)

    p = sub.add_parser("rearrange", help="three-way half-line rearrangement check")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--family", default="1,1", help="comma exponents k_j of (1+s)^-k")
    p.add_argument("--delta", type=float, default=0.3)
    common(p)

    p = sub.add_parser("verify-all", help="run the whole identity battery")
    common(p)

    p = sub.add_parser("gen", help="emit seeded matrices as JSON")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--dim", type=int, default=3)
    common(p)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Insert config-file values as flags right after the subcommand.

    Explicit command-line flags win because argparse keeps the last
    occurrence.  Config keys use the flag spelling (dashes or underscores).
    """
    path = None
    for k, tok in enumerate(argv):
        if tok == "--config" and k + 1 < len(argv):
            path = argv[k + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidInput(f"config file {path} must hold a JSON object")
    inserts: list[str] = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                inserts.append(flag)
        else:
            inserts.extend([flag, str(value)])
    return argv[:1] + inserts + argv[1:]


# What an input error raises: a typed refusal, a file that cannot be opened,
# or one that is not JSON or not UTF-8.  Anything else is a bug (exit 3).
_INPUT_ERRORS = (OpcalcError, OSError, json.JSONDecodeError, UnicodeDecodeError)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
        t0 = time.perf_counter()
        report, ok = handler(args, verify.tolerances(args.tol_scale))
        if report is not None:
            if args.timings:
                report["timings"] = {"wall_seconds": time.perf_counter() - t0}
            _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
