import ast
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import opcalc
from opcalc import gen_matrix, matrix_exp, matrix_from_json, matrix_to_json, opnorm
from opcalc import contour_around, dd_apply, dd_tensor, dyson_exp, newton_interpolate
from opcalc import cli, verify
from opcalc.cli import main
from opcalc.errors import InvalidInput, OpcalcError
from opcalc.functions import named_function
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
    taylor_series_ad,
)
from opcalc.rearrange import (
    family_from_exponents,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
)
from opcalc.tolerances import DEFAULTS, Tolerances


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
            reference = rk_reference(A, t, h=t / 32.0)
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

    def test_bad_end_time_rejected(self, capsys):
        for t_end in ("-1", "inf", "nan"):
            code, out, err = run_cli(["magnus", "--t-end", t_end], capsys)
            assert (code, out) == (2, "")
            assert "--t-end" in err

    @pytest.mark.parametrize("flags", [["--rows", "0"], ["--h", "0"], ["--t-end", "-1"]])
    def test_bad_flags_are_typed(self, flags):
        args = cli.build_parser().parse_args(["magnus", *flags])
        with pytest.raises(InvalidInput, match=flags[0]):
            cli._cmd_magnus(args, DEFAULTS)


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


class TestReachability:
    def test_every_public_name_is_loaded_in_the_package(self):
        # a public name that only tests and demos load is library code no CLI
        # subcommand or verify-all reaches: it must be loaded (read as a name
        # or an attribute) by a module of the package other than __init__,
        # outside its own top-level definition
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
            for top in tree.body:
                own = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        name = node.id
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        loaded.add(name)
        assert sorted(public - loaded) == []

    def test_every_field_and_method_is_read_in_the_package(self):
        # an annotated field, property or method that no module of the package
        # reads is a value computed for no one: its name must be loaded as an
        # attribute somewhere in the package, or be a string constant there
        # (the Tolerances fields are read by name through verify.IDENTITIES)
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
                bound = verify.IDENTITIES.get(r["identity"])
                assert bound is not None, (argv, r["identity"])
                if isinstance(bound, str):
                    bound = getattr(DEFAULTS, bound)
                assert r["tolerance"] == bound, (argv, r["identity"])
            emitted[argv[0]] = [r["identity"] for r in residuals]
        battery = [check(3, DEFAULTS).identity for check in verify.BATTERY]
        assert emitted["verify-all"] == battery

    def test_rearrange_residuals_are_the_registry(self, capsys):
        code, out, _ = run_cli(["rearrange", "--p", "1", "--dim", "3", "--family", "2,1",
                                "--delta", "0.25", "--seed", "11"], capsys)
        assert code == 0
        fs = family_from_exponents([2, 1])
        A = matrix_exp(gen_matrix("hermitian", 3, 11))
        bs = [gen_matrix("random", 3, 12)]
        routes = [route(fs, A, bs, delta=0.25)
                  for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G)]
        want = verify.rearrangement(*routes, DEFAULTS)
        assert json.loads(out)["residuals"] == self._entries(want)

    def test_taylor_residuals_are_the_registry(self, capsys):
        code, out, _ = run_cli(["taylor", "--f", "exp", "--dim", "3", "--order", "6",
                                "--b-scale", "0.2", "--seed", "5"], capsys)
        assert code == 0
        a = gen_matrix("random", 3, 5)
        b = 0.2 * gen_matrix("random", 3, 6)
        report = taylor_expand(named_function("exp"), a, b, N=6)
        want = [verify.taylor_decay(report, b, DEFAULTS),
                verify.taylor_remainder(report, DEFAULTS)]
        assert json.loads(out)["residuals"] == self._entries(want)

    def test_tol_scale_leaves_fixed_bounds(self, capsys):
        code, out, _ = run_cli(["taylor", "--dim", "2", "--order", "4",
                                "--tol-scale", "10"], capsys)
        assert code == 0
        tolerances = {r["identity"]: r["tolerance"] for r in json.loads(out)["residuals"]}
        assert tolerances == {"taylor-remainder-geometric-decay": 1.0,
                              "taylor-finite-remainder-identity": 10 * DEFAULTS.dyson_identity}

    def test_every_tolerance_bounds_an_identity(self):
        bounds = {b for b in verify.IDENTITIES.values() if isinstance(b, str)}
        assert set(Tolerances.__dataclass_fields__) == bounds

    def test_tol_scale_reaches_every_field(self, capsys):
        runs = {}
        for scale in ("1", "10"):
            code, out, _ = run_cli(["verify-all", "--seed", "3", "--tol-scale", scale], capsys)
            assert code == 0
            runs[scale] = json.loads(out[out.find("{"):])["residuals"]
        seen = set()
        for one, ten in zip(runs["1"], runs["10"], strict=True):
            bound = verify.IDENTITIES[one["identity"]]
            assert (ten["identity"], ten["value"]) == (one["identity"], one["value"])
            if isinstance(bound, str):
                seen.add(bound)
                assert ten["tolerance"] == 10 * getattr(DEFAULTS, bound)
            else:
                assert ten["tolerance"] == one["tolerance"] == bound
        assert seen == set(Tolerances.__dataclass_fields__)

    def test_moment_integral_at_zero_is_simplex_volume(self):
        for n in range(5):
            assert verify._simplex_moment_integral((0,) * (n + 1)) == Fraction(1, factorial(n))

    def test_planted_wrong_moment_is_counted(self, monkeypatch):
        alphas = [(0, 0), (1, 2, 0), (2, 1, 1, 0)]
        closed = verify.divdiff.simplex_moment_s
        monkeypatch.setattr(verify.divdiff, "simplex_moment_s",
                            lambda a, exact=False: closed(a, exact) * (2 if a == (1, 2, 0) else 1))
        assert verify.combinatorics_exactness(alphas, [], DEFAULTS).value == 1.0


class TestErrorPaths:
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
        lambda: taylor_series_ad(named_function("exp"), np.eye(2), [np.eye(2)], side="up"),
        lambda: bernoulli(31),
        lambda: magnus_rhs(np.zeros((2, 2)), np.eye(2), order=31),
        lambda: magnus_solve(triangular_field(), -1.0, 0.1),
        lambda: magnus_solve(triangular_field(), 1.0, 0.1, checkpoints=[float("nan")]),
        lambda: magnus_solve(triangular_field(), 1.0, 0.1, checkpoints=[0.5, 0.2]),
        lambda: magnus_solve(triangular_field(), 1.0, 0.0),
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
    ], ids=["expansion-report", "newton-recursion", "ad-series-side", "bernoulli-cap",
            "rhs-order", "end-time", "checkpoint-finite", "checkpoint-order", "step",
            "samples", "builtin-field", "function-name", "dyson-order", "taylor-order",
            "newton-nodes", "dd-apply-nodes", "dd-tensor-nodes", "contour-points",
            "bernoulli-order", "rhs-negative-order"])
    def test_invalid_input_is_typed(self, call):
        # no RuntimeWarning first: contour_around([]) used to warn twice on the
        # empty mean before its bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OpcalcError) as info:
                call()
        assert isinstance(info.value, ValueError)

    def test_kernel_arity(self):
        from opcalc import family_from_exponents, kernel_F
        from opcalc.errors import DecayViolation

        with pytest.raises(DecayViolation):
            kernel_F(family_from_exponents([1, 1]), [1.0, 1.0, 1.0])


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
        assert named_function("rational:(1+s)^-2")(1.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            named_function("sinh")

    def test_derivative_handles(self):
        from opcalc import named_function

        for name in ("exp", "log", "pow:4", "pow:-1", "resolvent:2,0", "rational:3"):
            f = named_function(name)
            z = 0.7
            h = 1e-6
            fd = (f(z + h) - f(z - h)) / (2 * h)
            assert f.derivative(1, z) == pytest.approx(fd, rel=1e-8)


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
