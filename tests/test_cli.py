import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opcalc
from opcalc import gen_matrix, matrix_exp, matrix_from_json, matrix_to_json, opnorm
from opcalc import contour_around, dd_apply, dd_contour, dd_tensor, dyson_exp, newton_interpolate
from opcalc import cli, verify
from opcalc.cli import main
from opcalc.errors import InvalidInput, OpcalcError
from opcalc.functions import Disc, HoloFunction, MultivariateFunction, named_function
from opcalc.magnus import (
    bernoulli,
    builtin_field,
    field_from_samples,
    magnus_rhs,
    magnus_solve,
    rk_reference,
    triangular_field,
)
from opcalc.ncseries import (
    ExpansionReport,
    newton_recursion_check,
    taylor_expand,
)
from opcalc.rearrange import rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G

TOL = verify.IDENTITIES


class TestGenMatrix:
    def test_deterministic(self):
        a = gen_matrix("random", 4, 7)
        b = gen_matrix("random", 4, 7)
        assert np.array_equal(a, b)

    def test_hermitian_real_spectrum(self):
        h = gen_matrix("hermitian", 5, 3)
        lam = np.linalg.eigvals(h)
        assert np.max(np.abs(lam.imag)) <= 1e-12

    def test_commuting_pair(self):
        x, y = gen_matrix("commuting-pair", 4, 9)
        assert opnorm(x @ y - y @ x) <= 1e-12

    def test_diagonalizable_normalized(self):
        a = gen_matrix("diagonalizable", 3, 11)
        assert opnorm(a) == pytest.approx(1.0)

    def test_dim_cap(self):
        with pytest.raises(OpcalcError):
            gen_matrix("random", 9, 0)

    def test_unknown_kind(self):
        with pytest.raises(OpcalcError):
            gen_matrix("sparse", 3, 0)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDDCommand:
    def test_all_methods_agree(self, capsys):
        code, out, err = run_cli(
            ["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]", "--method", "all"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]) == 4
        assert all(r["pass"] for r in report["residuals"])

    def test_confluent_nodes_fall_back(self, capsys):
        # the recursion refuses coincident nodes but contour and simplex proceed
        code, out, _ = run_cli(
            ["dd", "--f", "exp", "--nodes", "[[0,0],[0,0]]", "--method", "all"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert "recursive" in report["notes"]
        assert report["results"]["contour"][0] == pytest.approx(1.0, rel=1e-9)

    def test_eight_nodes_note_the_hermite_refusal(self, capsys):
        ring = 0.8 * np.exp(2j * np.pi * np.arange(8) / 8)
        nodes = json.dumps([[z.real, z.imag] for z in ring])
        code, out, _ = run_cli(["dd", "--f", "exp", "--nodes", nodes, "--method", "all"],
                               capsys)
        assert code == 0
        report = json.loads(out)
        assert "hermite" in report["notes"]
        assert sorted(report["results"]) == ["contour", "explicit", "recursive"]

    def test_every_route_refused_is_input_error(self, capsys):
        code, out, err = run_cli(
            ["dd", "--f", "log", "--nodes", "[[0,0],[0,0]]", "--method", "all"], capsys
        )
        assert code == 2
        assert out == ""
        assert all(f"{route}:" in err for route in verify.DD_ROUTES)

    @pytest.mark.parametrize("method, message", [("recursive", "error: f is not finite"),
                                                 ("explicit", "error: f is not finite"),
                                                 ("all", "every route refused")])
    def test_node_on_a_pole_is_input_error(self, method, message, capsys):
        # f(1) is infinite for the resolvent at 1: no NaN in the report
        code, out, err = run_cli(["dd", "--f", "resolvent:1,0", "--nodes", "[[0,0],[1,0]]",
                                  "--method", method], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_byte_identical_reports(self, capsys):
        args = ["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]", "--seed", "5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_bad_function_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["dd", "--f", "sinh", "--nodes", "[[0,0]]"], capsys
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("name", ["resolvent:1,2,3", "resolvent:inf", "resolvent:0,nan"])
    def test_malformed_resolvent_pole_is_input_error(self, name, capsys):
        # exit 0 before: 1,2,3 read as the pole 1 + 2i, inf as the zero function
        code, out, err = run_cli(["dd", "--f", name, "--nodes", "[[0,0],[0.5,0]]"], capsys)
        assert (code, out) == (2, "")
        assert "RE[,IM], both finite" in err

    @pytest.mark.parametrize("name", ["rational:-1", "rational:2)", "rational:(1+s)^-2)",
                                      "rational:(1+s)^-2", "rational:x"])
    def test_rational_exponent_is_a_nonnegative_integer(self, name, capsys):
        # the regex read 2) and (1+s)^-2) as rational:2, with exit 0
        code, out, err = run_cli(["dd", "--f", name, "--nodes", "[[0,0],[0.5,0]]"], capsys)
        assert (code, out) == (2, "")
        assert f"malformed function name {name!r}" in err

    def test_format_is_a_magnus_flag(self, capsys):
        # only magnus has a CSV report; elsewhere --format is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestFuncalcCommand:
    def test_single_matrix_oracle(self, tmp_path, capsys):
        job = {
            "function": "exp",
            "matrices": [matrix_to_json(gen_matrix("diagonalizable", 3, 1))],
            "contour": {"auto": True},
            "mode": "funcalc",
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, _ = run_cli(["funcalc", "--job", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["residuals"][0]["identity"] == "calculus-eigendecomposition-oracle"
        assert report["residuals"][0]["pass"]

    def test_elementary_mode(self, tmp_path, capsys):
        mats = gen_matrix("commuting-pair", 2, 2)
        job = {
            "function": ["exp", "exp"],
            "matrices": [matrix_to_json(m) for m in mats],
            "contour": {"auto": True},
            "mode": "funcalc",
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, _ = run_cli(["funcalc", "--job", str(path)], capsys)
        assert code == 0

    @pytest.mark.parametrize("diagonals, code", [([[0.1, 0.2], [0.3, 0.4]], 0),
                                                 ([[0.1, 0.2], [3.0, 3.5]], 2),
                                                 ([[3.0, 3.5]], 2)])
    def test_elementary_mode_keeps_the_job_circle(self, diagonals, code, tmp_path, capsys):
        # the circle |z| = 0.5 serves every matrix of the tuple; one that it does
        # not enclose is refused, as in a single-matrix job
        job = {
            "function": ["exp"] * len(diagonals),
            "matrices": [matrix_to_json(np.diag(d)) for d in diagonals],
            "contour": {"auto": False, "center": [0.0, 0.0], "radius": 0.5, "nodes": 32},
            "mode": "funcalc",
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        got, out, err = run_cli(["funcalc", "--job", str(path)], capsys)
        assert got == code
        assert ("error:" in err) == (code == 2)

    def test_ddapply_mode_checks_pairing(self, tmp_path, capsys):
        mats = [gen_matrix("random", 2, 3 + j) for j in range(3)]
        bs = [gen_matrix("random", 2, 10 + j) for j in range(2)]
        job = {
            "function": "exp",
            "matrices": [matrix_to_json(m) for m in mats],
            "b_matrices": [matrix_to_json(b) for b in bs],
            "mode": "ddapply",
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, _ = run_cli(["funcalc", "--job", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["residuals"][0]["identity"] == "tensor-pairing-consistency"
        assert report["residuals"][0]["pass"]

    def test_explicit_contour(self, tmp_path, capsys):
        job = {
            "function": "exp",
            "matrices": [matrix_to_json(0.3 * np.eye(2))],
            "contour": {"auto": False, "center": [0.3, 0.0], "radius": 1.0, "nodes": 32},
            "mode": "funcalc",
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, _ = run_cli(["funcalc", "--job", str(path)], capsys)
        assert code == 0
        value = matrix_from_json(json.loads(out)["results"]["value"])
        assert abs(value[0, 0] - np.exp(0.3)) < 1e-10


class TestSeriesCommands:
    def test_newton(self, capsys):
        code, out, _ = run_cli(["newton", "--dim", "2", "--count", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["residuals"][0]["pass"]

    def test_converged_flag_follows_tol_scale(self, capsys):
        code, out, err = run_cli(
            ["newton", "--dim", "2", "--count", "3", "--tol-scale", "1e-9"], capsys
        )
        assert code == 1
        assert "FAIL newton-interpolation" in err
        assert json.loads(out)["results"]["converged"] is False

    def test_taylor_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        code, out, _ = run_cli(
            ["taylor", "--dim", "2", "--order", "5", "--csv", str(csv_path)], capsys
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "order,remainder_norm"
        assert len(lines) == 7

    def test_dyson(self, capsys):
        code, out, _ = run_cli(["dyson", "--dim", "2", "--order", "2"], capsys)
        assert code == 0
        assert json.loads(out)["residuals"][0]["pass"]

    @pytest.mark.parametrize("argv", [
        ["dyson", "--dim", "2", "--order", "-1"],
        ["taylor", "--dim", "2", "--order", "-1"],
        ["newton", "--dim", "2", "--count", "0"],
        ["magnus", "--order", "-3"],
    ], ids=["dyson", "taylor", "newton", "magnus"])
    def test_empty_or_negative_order_is_input_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["dyson", "--dim", "2", "--order", "0"],
        ["newton", "--dim", "2", "--count", "1"],
    ], ids=["dyson-order-0", "newton-one-node"])
    def test_smallest_order_still_runs(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["residuals"][0]["pass"]


class TestMagnusCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            ["magnus", "--field", "triangular", "--t-end", "0.5", "--h", "0.01",
             "--order", "20", "--rows", "4"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,omega_norm,discrepancy"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.5)
        assert float(last[2]) <= 1e-6

    def test_sampled_field_file(self, tmp_path, capsys):
        from opcalc import gen_matrix as gm

        a0 = 0.5 * gm("hermitian", 2, 1)
        a1 = 0.5 * gm("hermitian", 2, 2)
        samples = {
            "times": [0.0, 1.0],
            "matrices": [matrix_to_json(a0), matrix_to_json(a1)],
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(samples))
        code, out, _ = run_cli(
            ["magnus", "--field", str(path), "--t-end", "1.0", "--h", "0.01",
             "--order", "12", "--rows", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["residuals"][0]["pass"]

    @pytest.mark.parametrize("field", ["triangular", "perturbed:7"])
    @pytest.mark.parametrize("rows", [5, 20])
    def test_rows_match_per_checkpoint_solves(self, field, rows, capsys):
        # oracle: solve both ODEs from t = 0 for each row on its own
        h, order = 0.008, 20
        code, out, _ = run_cli(
            ["magnus", "--field", field, "--h", str(h), "--order", str(order),
             "--rows", str(rows), "--format", "json"],
            capsys,
        )
        assert code == 0
        got = json.loads(out)["results"]["rows"]
        every = 125 // rows
        assert [t for t, _, _ in got] == [0.0] + [k * h for k in range(every, 125, every)] + [1.0]
        A = builtin_field(field)
        for t, omega_norm, discrepancy in got[1:]:
            omega, y = magnus_solve(A, t, h, order)
            reference = rk_reference(A, t)
            assert abs(omega_norm - opnorm(omega)) <= 1e-14
            assert abs(discrepancy - opnorm(y - reference)) <= 1e-10
        assert got[-1][1] == opnorm(omega)  # t = t_end: the same solve, bit for bit

    def test_cost_does_not_grow_with_rows(self, monkeypatch, capsys):
        # field evaluations of the log solve plus the reference, counted
        calls = []

        def counting_field(name):
            field = builtin_field(name)

            def A(t):
                calls.append(t)
                return field(t)

            return A

        monkeypatch.setattr("opcalc.cli.builtin_field", counting_field)
        costs = {}
        for rows in (1, 20):
            calls.clear()
            code, _, _ = run_cli(["magnus", "--h", "0.008", "--order", "20",
                                  "--rows", str(rows), "--format", "json"], capsys)
            assert code == 0
            costs[rows] = len(calls)
        assert costs[20] <= 1.25 * costs[1]

    def test_checkpoint_within_rounding_of_t_end(self, capsys):
        # 0.45 / 0.03 = 15.000000000000002: 15 steps, and 15 * 0.03 is t_end
        code, out, _ = run_cli(
            ["magnus", "--t-end", "0.45", "--h", "0.03", "--order", "12", "--rows", "5"],
            capsys,
        )
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert times == [0.0, 0.09, 0.18, 0.27, 0.36, 0.45]

    def test_more_rows_than_steps(self, capsys):
        code, out, _ = run_cli(
            ["magnus", "--t-end", "0.45", "--h", "0.03", "--order", "12", "--rows", "40"],
            capsys,
        )
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert times == [0.0] + [k * 0.03 for k in range(1, 15)] + [0.45]

    def test_rows_below_one_rejected(self, capsys):
        code, _, err = run_cli(["magnus", "--rows", "0"], capsys)
        assert code == 2
        assert "--rows" in err

    def test_nonpositive_step_rejected(self, capsys):
        for h in ("0", "-0.01", "nan"):
            code, _, err = run_cli(["magnus", "--h", h], capsys)
            assert code == 2
            assert "--h" in err

    def test_step_count_past_the_cap_rejected(self, capsys):
        code, out, err = run_cli(["magnus", "--h", "1e-9"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "2**20" in err

    def test_bad_end_time_rejected(self, capsys):
        for t_end in ("-1", "inf", "nan"):
            code, out, err = run_cli(["magnus", "--t-end", t_end], capsys)
            assert (code, out) == (2, "")
            assert "--t-end" in err

    @pytest.mark.parametrize("flags", [["--rows", "0"], ["--h", "0"], ["--t-end", "-1"]])
    def test_bad_flags_are_typed(self, flags):
        args = cli.build_parser().parse_args(["magnus", *flags])
        with pytest.raises(InvalidInput, match=flags[0]):
            cli._cmd_magnus(args, TOL)


class TestRearrangeCommand:
    def test_three_way(self, capsys):
        code, out, _ = run_cli(
            ["rearrange", "--p", "1", "--dim", "2", "--family", "1,1"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["residuals"]) == 3
        assert all(r["pass"] for r in report["residuals"])

    def test_family_arity_checked(self, capsys):
        code, _, err = run_cli(
            ["rearrange", "--p", "2", "--dim", "2", "--family", "1,1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_delta_must_be_finite(self, delta, capsys):
        # every comparison with a NaN half-angle is false, so the sector check
        # was skipped and the command exited 0
        code, out, err = run_cli(["rearrange", "--delta", delta], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "delta" in err


class TestGenCommand:
    def test_emit_pair(self, capsys):
        code, out, _ = run_cli(["gen", "--kind", "commuting-pair", "--dim", "3"], capsys)
        assert code == 0
        mats = [matrix_from_json(m) for m in json.loads(out)["results"]["matrices"]]
        assert len(mats) == 2
        assert opnorm(mats[0] @ mats[1] - mats[1] @ mats[0]) <= 1e-12


class TestVerifyAll:
    def test_battery_deterministic_and_green(self, capsys):
        code1, out1, _ = run_cli(["verify-all", "--seed", "42"], capsys)
        code2, out2, _ = run_cli(["verify-all", "--seed", "42"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.count("PASS") >= 16


def _local_names(fn) -> set:
    """The names a function or lambda binds in its own scope: its arguments,
    and the nested defs and classes, assignment, loop, ``with`` and import
    targets of its body (nested function bodies are their own scopes)."""
    a = fn.args
    names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _global_loads(node, local: frozenset, foreign: set, out: set) -> None:
    """Add to ``out`` every name ``node`` loads: a bare name that no enclosing
    function binds, or an attribute of anything but a module from outside the
    package.  A nested helper, an argument or a local of the same name as a
    public function is not a load of that function, and neither is
    ``np.kron``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        outer = [*node.args.defaults, *filter(None, node.args.kw_defaults),
                 *getattr(node, "decorator_list", [])]
        for child in outer:
            _global_loads(child, local, foreign, out)
        inner = local | _local_names(node)
        for child in (node.body if isinstance(node.body, list) else [node.body]):
            _global_loads(child, inner, foreign, out)
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        out.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in foreign):
            out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _global_loads(child, local, foreign, out)


class TestReachability:
    def test_every_public_name_is_loaded_in_the_package(self):
        # a public name that only tests and demos load is library code no CLI
        # subcommand or verify-all reaches: it must be loaded (read as a name
        # or an attribute) by a module of the package other than __init__,
        # outside its own top-level definition, and not where an enclosing
        # function binds the same name
        src = Path(opcalc.__file__).parent
        trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
        public = {alias.asname or alias.name for node in trees["__init__.py"].body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        for tree in trees.values():
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    public |= set(ast.literal_eval(node.value))
        loaded = set()
        for module, tree in trees.items():
            if module == "__init__.py":
                continue
            # modules imported from outside the package (np, math, scipy)
            foreign = {(alias.asname or alias.name).split(".")[0]
                       for node in tree.body if isinstance(node, ast.Import)
                       for alias in node.names}
            for top in tree.body:
                names: set = set()
                _global_loads(top, frozenset(), foreign, names)
                loaded |= names - {getattr(top, "name", None)}
        assert sorted(public - loaded) == []

    def test_every_field_and_method_is_read_in_the_package(self):
        # an annotated field, property or method that no module of the package
        # reads is a value computed for no one: its name must be loaded as an
        # attribute somewhere in the package, or be a string constant there
        src = Path(opcalc.__file__).parent
        members, read = set(), set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            members.add((node.name, item.target.id))
                        elif (isinstance(item, ast.FunctionDef)
                              and not (item.name.startswith("__") and item.name.endswith("__"))):
                            members.add((node.name, item.name))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
        assert sorted(f"{cls}.{name}" for cls, name in members if name not in read) == []


class TestIdentityRegistry:
    """Every residual a subcommand reports is a record of ``opcalc.verify``."""

    @staticmethod
    def _entries(records):
        return [{"identity": r.identity, "value": r.value, "tolerance": r.tolerance,
                 "pass": r.passed} for r in records]

    def test_emitted_names_are_registered(self, tmp_path, capsys):
        mats = [gen_matrix("random", 2, 3 + j) for j in range(3)]
        jobs = {
            "single": {"function": "exp", "mode": "funcalc",
                       "matrices": [matrix_to_json(gen_matrix("diagonalizable", 3, 1))]},
            "elementary": {"function": ["exp", "exp"], "mode": "funcalc",
                           "matrices": [matrix_to_json(m)
                                        for m in gen_matrix("commuting-pair", 2, 2)]},
            "ddapply": {"function": "exp", "mode": "ddapply",
                        "matrices": [matrix_to_json(m) for m in mats],
                        "b_matrices": [matrix_to_json(m) for m in mats[:2]]},
        }
        commands = [["dd", "--f", "exp", "--nodes", "[[0,0],[1,0],[0,1]]"],
                    ["newton", "--dim", "2", "--count", "3"],
                    ["taylor", "--dim", "2", "--order", "4"],
                    ["dyson", "--dim", "2", "--order", "2"],
                    ["magnus", "--h", "0.02", "--order", "20", "--rows", "2",
                     "--format", "json"],
                    ["rearrange"],
                    ["verify-all", "--seed", "3"]]
        for name, job in jobs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(job))
            commands.append(["funcalc", "--job", str(path)])
        emitted = {}
        for argv in commands:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            residuals = json.loads(out[out.find("{"):])["residuals"]  # after PASS lines
            assert residuals, argv
            for r in residuals:
                assert r["identity"] in TOL, argv
                assert r["tolerance"] == TOL[r["identity"]], (argv, r["identity"])
            emitted[argv[0]] = [r["identity"] for r in residuals]
        battery = [check(3, TOL).identity for check in verify.BATTERY]
        assert emitted["verify-all"] == battery

    def test_rearrange_residuals_are_the_registry(self, capsys):
        code, out, _ = run_cli(["rearrange", "--p", "1", "--dim", "3", "--family", "2,1",
                                "--delta", "0.25", "--seed", "11"], capsys)
        assert code == 0
        A = matrix_exp(gen_matrix("hermitian", 3, 11))
        bs = [gen_matrix("random", 3, 12)]
        routes = [route([2, 1], A, bs, delta=0.25)
                  for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G)]
        want = verify.rearrangement(*routes, TOL)
        assert json.loads(out)["residuals"] == self._entries(want)

    def test_taylor_residuals_are_the_registry(self, capsys):
        code, out, _ = run_cli(["taylor", "--f", "exp", "--dim", "3", "--order", "6",
                                "--b-scale", "0.2", "--seed", "5"], capsys)
        assert code == 0
        a = gen_matrix("random", 3, 5)
        b = 0.2 * gen_matrix("random", 3, 6)
        report = taylor_expand(named_function("exp"), a, b, N=6)
        want = [verify.taylor_decay(report, b, TOL),
                verify.taylor_remainder(report, TOL)]
        assert json.loads(out)["residuals"] == self._entries(want)

    def test_tol_scale_leaves_fixed_bounds(self, capsys):
        code, out, _ = run_cli(["taylor", "--dim", "2", "--order", "4",
                                "--tol-scale", "10"], capsys)
        assert code == 0
        tolerances = {r["identity"]: r["tolerance"] for r in json.loads(out)["residuals"]}
        assert tolerances == {"taylor-remainder-geometric-decay": 1.0,
                              "taylor-finite-remainder-identity":
                                  10 * TOL["taylor-finite-remainder-identity"]}

    def test_tol_scale_reaches_every_field(self, capsys):
        # every battery record is scaled but the decay ratio, and the exact
        # counts stay at 0; the scaled table is the registry's, name for name
        runs = {}
        for scale in ("1", "10"):
            code, out, _ = run_cli(["verify-all", "--seed", "3", "--tol-scale", scale], capsys)
            assert code == 0
            runs[scale] = json.loads(out[out.find("{"):])["residuals"]
        scaled = verify.tolerances(10.0)
        for one, ten in zip(runs["1"], runs["10"], strict=True):
            assert (ten["identity"], ten["value"]) == (one["identity"], one["value"])
            assert one["tolerance"] == TOL[one["identity"]]
            assert ten["tolerance"] == scaled[one["identity"]]
        assert scaled.keys() == TOL.keys()
        for name, tol in TOL.items():
            unscaled = name == "taylor-remainder-geometric-decay" or tol == 0.0
            assert scaled[name] == (tol if unscaled else 10 * tol), name
        assert all(isinstance(tol, float) for tol in TOL.values())

    def test_moment_integral_at_zero_is_simplex_volume(self):
        for n in range(5):
            assert verify._simplex_moment_integral((0,) * (n + 1)) == Fraction(1, factorial(n))

    def test_planted_wrong_moment_is_counted(self, monkeypatch):
        alphas = [(0, 0), (1, 2, 0), (2, 1, 1, 0)]
        closed = verify.divdiff.simplex_moment_s
        monkeypatch.setattr(verify.divdiff, "simplex_moment_s",
                            lambda a: closed(a) * (2 if a == (1, 2, 0) else 1))
        assert verify.combinatorics_exactness(alphas, [], TOL).value == 1.0


class TestErrorPaths:
    @pytest.mark.parametrize("command", [
        ["dd", "--f", "exp", "--nodes", "[[0,0],[1,0],[0,1]]"],
        ["verify-all", "--seed", "0"],
    ], ids=["dd", "verify-all"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_tol_scale_must_be_finite_and_positive(self, command, scale, capsys):
        # NaN wrote "tolerance": NaN (not JSON), 0 and -1 reported every
        # residual as failing, and inf passed every one: an input error
        code, out, err = run_cli(command + ["--tol-scale", scale], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "tolerance scale" in err

    def test_composition_cap(self):
        from opcalc import compositions

        with pytest.raises(OpcalcError):
            list(compositions(400, 6))  # ~8e9 terms

    def test_multinomial_range(self):
        from opcalc import multinomial_identity

        with pytest.raises(OpcalcError):
            multinomial_identity((2, 2), 3, "<=")

    def test_rhs_order_vs_table(self):
        from opcalc import magnus_rhs

        with pytest.raises(ValueError):
            magnus_rhs(np.zeros((2, 2)), np.eye(2), order=31)  # past B_30

    @pytest.mark.parametrize("call", [
        lambda: ExpansionReport([np.eye(2)], [], np.eye(2)),
        lambda: newton_recursion_check(named_function("exp"), [np.eye(2)], []),
        lambda: bernoulli(31),
        lambda: magnus_rhs(np.zeros((2, 2)), np.eye(2), order=31),
        lambda: magnus_solve(triangular_field(), -1.0, 0.1, 8),
        lambda: magnus_solve(triangular_field(), 1.0, 0.1, 8, checkpoints=[float("nan")]),
        lambda: magnus_solve(triangular_field(), 1.0, 0.1, 8, checkpoints=[0.5, 0.2]),
        lambda: magnus_solve(triangular_field(), 1.0, 0.0, 8),
        lambda: field_from_samples([0.0], [np.eye(2)]),
        lambda: builtin_field("spiral"),
        lambda: named_function("sinh"),
        lambda: dyson_exp(np.eye(2), np.eye(2), -1),
        lambda: taylor_expand(named_function("exp"), np.eye(2), np.eye(2), N=-1),
        lambda: newton_interpolate(named_function("exp"), []),
        lambda: dd_apply(named_function("exp"), [], []),
        lambda: dd_tensor(named_function("exp"), []),
        lambda: contour_around([]),
        lambda: bernoulli(-1),
        lambda: magnus_rhs(np.zeros((2, 2)), np.eye(2), order=-1),
        lambda: verify.tolerances(float("nan")),
        lambda: verify.tolerances(float("inf")),
        lambda: verify.tolerances(0.0),
        lambda: verify.tolerances(-1.0),
        lambda: rearrange_lhs([1, 1], np.eye(2), [np.eye(2)], delta=float("nan")),
        lambda: rearrange_rhs_G([1, 1], np.eye(2), [np.eye(2)], delta=float("inf")),
        lambda: bernoulli(3.0),
        lambda: magnus_rhs(np.zeros((2, 2)), np.eye(2), order=8.0),
        lambda: magnus_solve(triangular_field(), 1.0, 0.01, 8.5),
        lambda: builtin_field("perturbed:x"),
        lambda: named_function("pow:x"),
        lambda: named_function("resolvent:1,a"),
        lambda: named_function("resolvent:1,2,3"),
        lambda: named_function("resolvent:inf"),
        lambda: contour_around([0.0, 1.0], Disc(0.0, 2.0)),
        lambda: dd_contour(np.exp, [0.0, 1.0]),
        lambda: MultivariateFunction(np.exp, (None,)),
        lambda: HoloFunction(np.exp, None),
    ], ids=["expansion-report", "newton-recursion", "bernoulli-cap",
            "rhs-order", "end-time", "checkpoint-finite", "checkpoint-order", "step",
            "samples", "builtin-field", "function-name", "dyson-order", "taylor-order",
            "newton-nodes", "dd-apply-nodes", "dd-tensor-nodes", "contour-points",
            "bernoulli-order", "rhs-negative-order", "tol-scale-nan", "tol-scale-inf",
            "tol-scale-zero", "tol-scale-negative", "delta-nan", "delta-inf",
            "bernoulli-float", "rhs-float-order", "solve-float-order", "field-seed",
            "pow-exponent", "resolvent-point", "resolvent-parts", "resolvent-infinite",
            "contour-bare-domain", "dd-contour-bare-callable", "undeclared-axis",
            "undeclared-handle"])
    def test_invalid_input_is_typed(self, call):
        # no RuntimeWarning first: contour_around([]) used to warn twice on the
        # empty mean before its bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OpcalcError) as info:
                call()
        assert isinstance(info.value, ValueError)

    def test_numpy_integer_orders_are_read(self):
        om, a = np.array([[0.1, 0.2], [0.0, -0.3]]), np.array([[1.0, 0.0], [0.5, 2.0]])
        assert bernoulli(np.int64(8)) == bernoulli(8)
        assert np.array_equal(magnus_rhs(om, a, order=np.int64(8)), magnus_rhs(om, a, order=8))
        got = magnus_solve(triangular_field(), 0.5, 0.1, np.int32(8))
        want = magnus_solve(triangular_field(), 0.5, 0.1, 8)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("f", [None, np.exp], ids=["none", "bare-callable"])
    @pytest.mark.parametrize("route", [
        lambda f: opcalc.apply_function(f, np.eye(2)),
        lambda f: dd_apply(f, [np.eye(2), 2 * np.eye(2)], [np.eye(2)]),
        lambda f: dd_tensor(f, [np.eye(2), 2 * np.eye(2)]),
        lambda f: dd_contour(f, [0.0, 1.0]),
        lambda f: opcalc.dd_hermite(f, [0.0, 1.0]),
        lambda f: opcalc.funcalc_n(f, [np.eye(2)]),
        lambda f: opcalc.funcalc_elementary([f], [np.eye(2)], check_tol=1e-8),
        lambda f: newton_interpolate(f, [np.eye(2), 2 * np.eye(2)]),
        lambda f: newton_recursion_check(f, [np.eye(2), 2 * np.eye(2)], []),
        lambda f: taylor_expand(f, np.eye(2), 0.1 * np.eye(2), N=2),
        lambda f: opcalc.taylor_series_ad(f, np.eye(2), [np.eye(2)]),
        lambda f: opcalc.dd_recursive(f, [0.0, 1.0]),
        lambda f: opcalc.dd_explicit(f, [0.0, 1.0]),
        lambda f: opcalc.apply_via_eig(f, np.eye(2)),
    ], ids=["apply-function", "dd-apply", "dd-tensor", "dd-contour", "dd-hermite",
            "funcalc-n", "funcalc-elementary", "newton-interpolate", "newton-recursion",
            "taylor-expand", "taylor-series-ad", "dd-recursive", "dd-explicit",
            "apply-via-eig"])
    def test_a_function_that_is_not_a_handle_is_refused(self, route, f):
        with pytest.raises(InvalidInput, match="function handle"):
            route(f)

    def test_kernel_arity(self):
        from opcalc import kernel_F
        from opcalc.errors import DecayViolation

        with pytest.raises(DecayViolation):
            kernel_F([1, 1], [1.0, 1.0, 1.0])


_MATRIX = {"dim": 1, "re": [0.5], "im": [0.0]}


def _write_json(directory, value) -> str:
    path = os.path.join(directory, "input.json")
    with open(path, "w") as fh:
        json.dump(value, fh)
    return path


class TestMalformedInput:
    """Malformed outside input is an input error: exit 2 with an ``error:``
    line.  Exit 1 is kept for a failed residual, and no exception escapes."""

    @staticmethod
    def _refused(code, out, err):
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("nodes", ["[1,2]", '[["x",0]]', "[[NaN,0]]", f"[[1{'0' * 400},0]]",
                                       "[[true,0],[1,0]]"],
                             ids=["bare-numbers", "string-entry", "nan-entry",
                                  "int-past-float-range", "bool-entry"])
    def test_dd_nodes(self, nodes, capsys):
        self._refused(*run_cli(["dd", "--f", "exp", "--nodes", nodes], capsys))

    @pytest.mark.parametrize("job", [
        [_MATRIX],
        {"function": 5, "matrices": [_MATRIX]},
        {"function": "exp", "matrices": 5},
        {"function": "exp", "mode": "ddapply", "matrices": [_MATRIX, _MATRIX], "b_matrices": 5},
        {"function": "exp", "matrices": [[0.5]]},
        {"function": "exp", "matrices": [{"dim": 1, "re": [10**400]}]},
        {"function": "exp", "matrices": [_MATRIX],
         "contour": {"auto": False, "center": [0.0], "radius": 1.0}},
        {"function": "exp", "matrices": [_MATRIX], "contour": "bogus"},
    ], ids=["job-list", "function-number", "matrices-number", "b-matrices-number",
            "matrix-list", "entry-past-float-range", "center-one-coordinate",
            "contour-string"])
    def test_funcalc_job(self, job, tmp_path, capsys):
        path = _write_json(tmp_path, job)
        self._refused(*run_cli(["funcalc", "--job", path], capsys))

    @pytest.mark.parametrize("job, named", [
        ({"function": "exp", "matrices": [{"dim": True, "re": [0.5]}], "contour": {"auto": True}},
         "matrix dim"),
        ({"function": "exp", "matrices": [{"dim": 1, "re": [True]}]}, "matrix re"),
        ({"function": "exp", "matrices": [{"dim": 1, "re": [0.5], "im": [False]}]}, "matrix im"),
        ({"function": "exp", "matrices": [_MATRIX],
          "contour": {"auto": False, "center": [True, 0.0], "radius": 1.0}}, "contour center"),
        ({"function": "exp", "matrices": [_MATRIX],
          "contour": {"auto": False, "center": [0.5, 0.0], "radius": True}}, "contour radius"),
        ({"function": "exp", "matrices": [_MATRIX],
          "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": True}},
         "contour nodes"),
    ], ids=["dim-true", "re-true", "im-false", "center-true", "radius-true", "nodes-true"])
    def test_json_booleans_are_not_numbers(self, job, named, tmp_path, capsys):
        # bool subclasses int, so an isinstance check alone reads a JSON true
        # as the number 1
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and named in err and "got bool" in err

    @pytest.mark.parametrize("auto", ["false", 1], ids=["string", "number"])
    def test_contour_auto_is_a_json_boolean(self, auto, tmp_path, capsys):
        # read by truthiness, "false" would drop the job's off-spectrum circle
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": auto, "center": [100.0, 0.0], "radius": 1.0}}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and "contour auto" in err

    def test_contour_auto_false_keeps_the_given_circle(self, tmp_path, capsys):
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": False, "center": [100.0, 0.0], "radius": 1.0}}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert "does not enclose" in err

    @pytest.mark.parametrize("argv, named", [
        (["taylor", "--dim", "8", "--order", "100000"], "--order 100000 exceeds 64"),
        (["taylor", "--order", "65"], "--order 65 exceeds 64"),
        (["dyson", "--order", "65"], "--order 65 exceeds 64"),
        (["newton", "--count", "65"], "--count 65 exceeds 64"),
        (["rearrange", "--p", "12", "--dim", "8", "--family", ",".join(["1"] * 13)],
         "--p 12 exceeds 6"),
        (["newton", "--dim", "9"], "--dim 9 exceeds 8"),
        (["taylor", "--dim", "9"], "--dim 9 exceeds 8"),
        (["dyson", "--dim", "9"], "--dim 9 exceeds 8"),
        (["rearrange", "--dim", "9"], "--dim 9 exceeds 8"),
        (["gen", "--kind", "random", "--dim", "9"], "--dim 9 exceeds 8"),
        (["rearrange", "--p", "6", "--dim", "100", "--family", ",".join(["1"] * 7)],
         "--dim 100 exceeds 8"),
        (["rearrange", "--p", "6", "--dim", "8", "--family", ",".join(["1"] * 7)],
         "kernel grid --dim^(--p + 1) = 2097152 exceeds 4096"),
        (["rearrange", "--p", "3", "--dim", "9", "--family", "1,1,1,1"], "--dim 9 exceeds 8"),
        (["rearrange", "--p", "6", "--dim", "4", "--family", ",".join(["1"] * 7)],
         "kernel grid --dim^(--p + 1) = 16384 exceeds 4096"),
    ], ids=["taylor-order-100000", "taylor-order", "dyson-order", "newton-count",
            "rearrange-p", "newton-dim", "taylor-dim", "dyson-dim", "rearrange-dim", "gen-dim",
            "rearrange-dim-100", "rearrange-grid-p6-d8", "rearrange-dim-p3",
            "rearrange-grid-p6-d4"])
    def test_sizes_past_their_bound(self, argv, named, monkeypatch, capsys):
        # refused before a matrix, and so any array sized by them, is made
        made = []
        monkeypatch.setattr(cli, "gen_matrix", lambda *a: made.append(a))
        code, out, err = run_cli(argv, capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and named in err and made == []

    class _Made(Exception):
        """Raised by the patched ``gen_matrix``: the sizes got past their bounds."""

    @pytest.mark.parametrize("argv", [
        ["newton", "--dim", "8", "--count", "64"],
        ["taylor", "--dim", "8", "--order", "64"],
        ["dyson", "--dim", "8", "--order", "64"],
        ["gen", "--kind", "random", "--dim", "8"],
        ["rearrange", "--p", "3", "--dim", "8", "--family", "1,1,1,1"],
        ["rearrange", "--p", "5", "--dim", "4", "--family", ",".join(["1"] * 6)],
        ["rearrange", "--p", "6", "--dim", "3", "--family", ",".join(["1"] * 7)],
    ], ids=["newton", "taylor", "dyson", "gen", "rearrange-grid-p3-d8", "rearrange-grid-p5-d4",
            "rearrange-p6-d3"])
    def test_sizes_at_their_bound_pass_it(self, argv, monkeypatch):
        # the first matrix is asked for at the bound, and nothing is allocated
        made = []

        def gen_matrix(*args):
            made.append(args)
            raise self._Made

        monkeypatch.setattr(cli, "gen_matrix", gen_matrix)
        with pytest.raises(self._Made):
            main(argv)
        assert made[0][1] == int(argv[argv.index("--dim") + 1])

    @pytest.mark.parametrize("argv", [
        ["taylor", "--dim", "2", "--order", "64"],
        ["dyson", "--dim", "2", "--order", "64"],
        ["newton", "--dim", "2", "--count", "64"],
        ["rearrange", "--p", "6", "--family", ",".join(["1"] * 7)],
    ], ids=["taylor-order", "dyson-order", "newton-count", "rearrange-p"])
    def test_sizes_at_their_bound_run(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 1) and json.loads(out)["subcommand"] == argv[0]

    @pytest.mark.parametrize("nodes", [8192, 2**40])
    def test_contour_nodes_past_half_the_cap(self, nodes, monkeypatch, tmp_path, capsys):
        # a circle refines to MAX_NODES (8192) at most: a job circle starting
        # above half of it has no second level to compare with, so it is
        # refused before one is built
        built = []
        monkeypatch.setattr(cli, "Contour", lambda *a: built.append(a))
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": nodes}}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and f"contour nodes {nodes}" in err and built == []

    def test_contour_nodes_at_half_the_cap_run(self, tmp_path, capsys):
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": 4096}}
        code, out, _ = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["contour_nodes"] == 8192

    @pytest.mark.parametrize("samples", [
        [0.0, 1.0],
        {"times": [0.0, 1.0], "matrices": 5},
        {"times": [0.0, 0.5, 1.0], "matrices": [{"dim": 2, "re": [1, 0, 0, 1]}, _MATRIX,
                                                 {"dim": 2, "re": [1, 0, 0, 1]}]},
        {"times": [0.0, float("nan")], "matrices": [_MATRIX, _MATRIX]},
    ], ids=["file-list", "matrices-number", "mixed-dimensions", "nan-time"])
    def test_magnus_field_file(self, samples, tmp_path, capsys):
        path = _write_json(tmp_path, samples)
        self._refused(*run_cli(["magnus", "--field", path, "--format", "json"], capsys))

    _FUNCALC = ["funcalc", "--job"]
    _FIELD = ["magnus", "--format", "json", "--field"]

    @pytest.mark.parametrize("argv, content, named", [
        (["rearrange", "--family", "1,x"], None, "--family entries must be integers"),
        (["rearrange", "--family", "1,1.5"], None, "--family entries must be integers"),
        (_FUNCALC, {"function": "exp"}, "funcalc job has no 'matrices' field"),
        (_FUNCALC, {"matrices": [_MATRIX]}, "funcalc job has no 'function' field"),
        (_FUNCALC, {"function": "exp", "mode": "ddapply", "matrices": [_MATRIX, _MATRIX]},
         "funcalc job has no 'b_matrices' field"),
        (_FUNCALC, {"function": "exp", "matrices": [_MATRIX],
                    "contour": {"auto": False, "radius": 1.0}}, "contour has no 'center' field"),
        (_FUNCALC, {"function": "exp", "matrices": [_MATRIX],
                    "contour": {"auto": False, "center": [0.5, 0.0]}},
         "contour has no 'radius' field"),
        (_FIELD, {"matrices": [_MATRIX, _MATRIX]}, "--field file has no 'times' field"),
        (_FIELD, {"times": [0.0, 1.0]}, "--field file has no 'matrices' field"),
        (_FUNCALC, {"function": "exp", "matrices": [{"re": [0.5]}]},
         "matrix has no 'dim' field"),
        (_FUNCALC, {"function": "exp", "matrices": [{"dim": 1}]}, "matrix has no 're' field"),
    ], ids=["family-letter", "family-float", "job-matrices", "job-function", "job-b-matrices",
            "contour-center", "contour-radius", "field-times", "field-matrices", "matrix-dim",
            "matrix-re"])
    def test_a_missing_or_malformed_field_is_named(self, argv, content, named, tmp_path,
                                                   capsys):
        # a typed InvalidInput that names the field, not a bare KeyError's
        # "error: 'matrices'" or int()'s "invalid literal"
        if content is not None:
            argv = argv + [_write_json(tmp_path, content)]
        code, out, err = run_cli(argv, capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and named in err


# Bounded JSON for the property tests below: numbers in [-4, 4] exercise
# shape rather than overflow; strings include job keywords and function names.
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-4, 4), st.floats(-4, 4),
                    st.sampled_from(["exp", "log", "pow:-1", "ddtensor", "ddapply"]),
                    st.text(max_size=4))
_KEYS = st.one_of(st.sampled_from(["mode", "function", "matrices", "b_matrices", "contour",
                                   "auto", "center", "radius", "nodes", "dim", "re", "im"]),
                  st.text(max_size=3))


def _json_values(depth: int):
    """JSON values nested at most ``depth`` containers deep."""
    if depth == 0:
        return _LEAVES
    inner = _json_values(depth - 1)
    return st.one_of(_LEAVES, st.lists(inner, max_size=4),
                     st.dictionaries(_KEYS, inner, max_size=4))


def _exit_contract(argv) -> None:
    """``main`` returns 0, 1 or 2, lets no exception out, and exits 1 only
    with a FAIL line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or "FAIL" in err.getvalue(), (argv, err.getvalue())


class TestInputProperties:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(nodes=_json_values(3), f=st.sampled_from(["exp", "log", "pow:-1"]))
    def test_dd_nodes(self, nodes, f):
        # the "=" form keeps a value such as "-1" from reading as a flag
        _exit_contract(["dd", "--f", f, f"--nodes={json.dumps(nodes)}"])

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(job=st.one_of(_json_values(3), st.dictionaries(_KEYS, _json_values(2), max_size=6)))
    def test_funcalc_job(self, job):
        with tempfile.TemporaryDirectory() as tmp:
            _exit_contract(["funcalc", "--job", _write_json(tmp, job)])


# JSON-shaped values for the report writer: every scalar json writes, floats
# with their edge cases, lists of finite floats (the joined path), and lists
# that mix floats with ints or non-finite floats, nested in dicts, lists and
# tuples
_EDGE_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                          2.2250738585072014e-308 / 3, 1e300, -1e300, 1e16]),
                         st.floats())
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(10**40)]),
    _EDGE_FLOATS, st.text(), st.sampled_from(["é", "\x00\n\t\"\\", "\u2028", "\U0001f600"]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    st.lists(st.one_of(_EDGE_FLOATS, st.integers(-3, 3)), min_size=1, max_size=6),
)
_REPORT_VALUES = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=24,
)


class TestReportWriter:
    """``cli._dumps`` writes ``json.dumps(report, indent=2, sort_keys=True)``,
    byte for byte."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(value=_REPORT_VALUES)
    def test_writes_what_json_writes(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_every_subcommand_report(self, monkeypatch, tmp_path, capsys):
        commuting = gen_matrix("commuting-pair", 2, 2)
        mats = [gen_matrix("random", 2, 3 + j) for j in range(3)]
        jobs = [
            {"function": "exp", "matrices": [matrix_to_json(mats[0])]},
            {"function": ["exp", "pow:2"], "matrices": [matrix_to_json(m) for m in commuting]},
            {"function": "log", "mode": "ddtensor", "matrices": [matrix_to_json(m + 3 * np.eye(2))
                                                                 for m in mats]},
            {"function": "exp", "mode": "ddapply", "matrices": [matrix_to_json(m) for m in mats],
             "b_matrices": [matrix_to_json(m) for m in mats[:2]]},
        ]
        for k in range(len(jobs)):
            (tmp_path / str(k)).mkdir()
        argvs = [
            ["dd", "--f", "exp", "--nodes", "[[0,0],[0.5,0.1],[1,0]]", "--seed", "3"],
            ["dd", "--f", "pow:2", "--nodes", "[[0.5,0],[0.5,0],[1,0]]"],  # notes of refusals
            *(["funcalc", "--job", _write_json(tmp_path / str(k), job)]
              for k, job in enumerate(jobs)),
            ["newton", "--dim", "2", "--count", "3"],
            ["taylor", "--dim", "2", "--order", "4", "--timings"],
            ["dyson", "--dim", "2", "--order", "2"],
            ["magnus", "--rows", "4", "--h", "0.01", "--format", "json"],
            ["rearrange", "--p", "2", "--family", "1,2,1"],
            ["verify-all", "--seed", "0"],
            ["gen", "--kind", "commuting-pair", "--dim", "2"],
        ]
        written = []
        dumps = cli._dumps
        monkeypatch.setattr(cli, "_dumps", lambda report: written.append((report, dumps(report)))
                            or written[-1][1])
        for argv in argvs:
            code, out, _ = run_cli(argv, capsys)
            report, text = written[-1]
            assert code == 0 and out.endswith(text + "\n"), argv
            assert text == json.dumps(report, indent=2, sort_keys=True), argv
        assert [r["subcommand"] for r, _ in written] == [a[0] for a in argvs]


class TestFunctionNames:
    def test_grammar(self):
        from opcalc import named_function

        assert named_function("exp")(0.0) == 1.0
        assert named_function("log")(np.e) == pytest.approx(1.0)
        assert named_function("id")(2.5) == 2.5
        assert named_function("pow:3")(2.0) == 8.0
        assert named_function("pow:-2")(2.0) == pytest.approx(0.25)
        assert named_function("resolvent:3,0")(1.0) == pytest.approx(0.5)
        assert named_function("resolvent:0,1")(0.0) == pytest.approx(-1j)
        assert named_function("rational:2")(1.0) == pytest.approx(0.25)
        assert named_function("rational:0")(1.0) == 1.0
        with pytest.raises(ValueError):
            named_function("sinh")

    def test_derivative_handles(self):
        from opcalc import named_function

        for name in ("exp", "log", "pow:4", "pow:-1", "resolvent:2,0", "rational:3"):
            f = named_function(name)
            z = 0.7
            h = 1e-6
            fd = (f(z + h) - f(z - h)) / (2 * h)
            assert f.deriv_function(1)(z) == pytest.approx(fd, rel=1e-8)


class TestConfigFile:
    def test_defaults_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 3, "count": 3, "seed": 11}))
        code, out, _ = run_cli(
            ["newton", "--config", str(cfg), "--seed", "5"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["dim"] == 3  # from the config file
        assert report["seed"] == 5  # explicit flag wins

    def test_missing_config_is_input_error(self, capsys):
        code, _, err = run_cli(["newton", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    def test_non_object_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(["newton", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == "" and "JSON object" in err

    # Config values become flags in argv rather than parser defaults, so the
    # three properties below hold; set_defaults would lose each of them.
    def test_config_supplies_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "exp", "nodes": "[[0,0],[1,0]]"}))
        code, out, _ = run_cli(["dd", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["params"]["f"] == "exp"

    @pytest.mark.parametrize("extra", [{"method": "nope"}, {"bogus": 1}])
    def test_config_values_are_parsed_as_flags(self, tmp_path, capsys, extra):
        # choices stay enforced and unknown keys are rejected
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "exp", "nodes": "[[0,0],[1,0]]", **extra}))
        with pytest.raises(SystemExit) as exc:
            main(["dd", "--config", str(cfg)])
        assert exc.value.code == 2
        assert next(iter(extra)) in capsys.readouterr().err


class TestRepeatedCalls:
    """``main`` may run many times in one process on one shared parser."""

    DD = ["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]", "--seed", "5"]

    def test_second_call_prints_what_a_fresh_process_prints(self, capsys):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        fresh = subprocess.run([sys.executable, "-m", "opcalc.cli", *self.DD],
                               capture_output=True, text=True, env=env, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        first = run_cli(self.DD, capsys)
        second = run_cli(self.DD, capsys)
        assert first == second == (0, fresh.stdout, fresh.stderr)

    def test_patched_handler_runs(self, monkeypatch, capsys):
        run_cli(self.DD, capsys)  # the parser is built before the patch
        calls = []

        def patched(args, tol):
            calls.append(args.f)
            return {"patched": True}, True

        monkeypatch.setattr(cli, "_cmd_dd", patched)
        code, out, _ = run_cli(self.DD, capsys)
        assert (code, calls, json.loads(out)) == (0, ["exp"], {"patched": True})

    def test_config_does_not_leak_into_the_next_call(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "count": 2}))
        code, out, _ = run_cli(["newton", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["params"] == {"f": "exp", "dim": 2, "count": 2}
        code, out, _ = run_cli(["newton"], capsys)
        assert code == 0
        assert json.loads(out)["params"] == {"f": "exp", "dim": 3, "count": 4}

    def test_usage_error_exits_2_between_calls(self, capsys):
        assert run_cli(self.DD, capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["dd", "--nodes", "[[0,0],[1,0]]"])  # --f is required
        assert exc.value.code == 2
        assert "--f" in capsys.readouterr().err
        assert run_cli(self.DD, capsys)[0] == 0
