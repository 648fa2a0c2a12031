import ast
import base64
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opcalc
from opcalc import TensorOperator, bidiagonal, gen_matrix, matrix_exp, matrix_from_json
from opcalc import matrix_to_json, opnorm, pair, rel_err
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
from opcalc.rearrange import eigenbasis, rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G

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
        with pytest.raises(InvalidInput, match="dimension"):
            gen_matrix("random", 9, 0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput, match="unknown kind"):
            gen_matrix("sparse", 3, 0)

    def test_integer_like_arguments_are_their_ints(self):
        # True reached numpy as itself: "TypeError: an integer is required"
        assert gen_matrix("random", True, 0).tobytes() == gen_matrix("random", 1, 0).tobytes()
        assert (gen_matrix("hermitian", np.int64(3), np.uint8(5)).tobytes()
                == gen_matrix("hermitian", 3, 5).tobytes())


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDDCommand:
    @pytest.mark.parametrize("method", ["all", "recursive", "explicit", "contour", "hermite",
                                        "power"])
    def test_65_nodes_are_refused(self, method, capsys):
        nodes = json.dumps([[k / 65, 0.5] for k in range(65)])
        code, out, err = run_cli(["dd", "--f", "pow:3", "--nodes", nodes, "--method", method],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("65 nodes exceed 64") == (4 if method == "all" else 1)

    @pytest.mark.parametrize("method", ["recursive", "explicit"])
    def test_a_node_modulus_past_the_float_range_is_refused_for_its_value(self, method, capsys):
        # the coincidence scale overflowed, so these nodes 2.4e308 apart were
        # refused as "closer than 1e-08 * inf"
        code, out, err = run_cli(["dd", "--f", "exp", "--nodes", "[[1.7e308,1.7e308],[0,0]]",
                                  "--method", method], capsys)
        assert (code, out) == (2, "")
        assert err == "error: f is not finite at node 0 (1.7e+308+1.7e+308j)\n"

    def test_64_nodes_still_run(self, capsys):
        nodes = json.dumps([[k / 64, 0.5] for k in range(64)])
        code, out, _ = run_cli(["dd", "--f", "pow:3", "--nodes", nodes, "--method", "power"],
                               capsys)
        assert code == 0 and json.loads(out)["results"] == {"power": [0.0, 0.0]}

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

    @pytest.mark.parametrize("name, dense", [
        ("exp", scipy.linalg.expm),
        ("pow:3", lambda big: np.linalg.matrix_power(big, 3)),
        ("pow:-2", lambda big: np.linalg.matrix_power(np.linalg.inv(big), 2)),
        ("resolvent:3,0", lambda big: np.linalg.inv(3.0 * np.eye(len(big)) - big)),
    ])
    def test_ddtensor_pairs_to_a_block_of_f_of_the_bidiagonal(self, name, dense, tmp_path,
                                                               capsys):
        # contour-free oracle for the tensor ddtensor prints: read back and
        # paired with seeded factors, it is block (0, n) of f(B),
        # B = bidiagonal(mats, bs) (Opitz 1964), at d = 2-3 and n = 1-3
        worst = 0.0
        for d in (2, 3):
            for n in (1, 2, 3):
                mats = [1.5 * np.eye(d) + 0.3 * gen_matrix("random", d, 100 * d + 10 * n + j)
                        for j in range(n + 1)]
                bs = [0.5 * gen_matrix("random", d, 500 + 100 * d + 10 * n + j) for j in range(n)]
                job = {"function": name, "mode": "ddtensor",
                       "matrices": [matrix_to_json(m) for m in mats]}
                code, out, _ = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
                assert code == 0
                results = json.loads(out)["results"]
                tensor = TensorOperator(matrix_from_json(results["tensor"]), d, results["slots"])
                want = dense(bidiagonal(mats, bs))[:d, -d:]
                worst = max(worst, rel_err(pair(tensor, bs), want))
        assert worst <= 1e-12


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

    @pytest.mark.parametrize("scale", ["1e200", "1e100"])
    def test_dyson_past_the_float_range_is_input_error(self, scale, capsys):
        # exp(a + b) overflowed, and the SVD of the inf difference exited 3
        code, out, err = run_cli(["dyson", "--dim", "2", "--order", "2", "--b-scale", scale], capsys)
        assert (code, out) == (2, "")
        assert err == "error: matrix exponential overflows the float range\n"

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

    def test_step_count_past_the_cap_refused_before_the_checkpoints(self, monkeypatch, capsys):
        # a million rows over 1e12 steps: checked late, a million checkpoint
        # floats would be built before magnus_solve refuses the step count
        calls = []
        monkeypatch.setattr(cli, "magnus_solve", lambda *a, **k: calls.append(a))
        tracemalloc.start()
        try:
            code, out, err = run_cli(["magnus", "--h", "1e-12", "--rows", "1000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, calls) == (2, "", [])
        assert err == "error: t_end / h = 1e+12 steps, more than 2**20\n"
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("times", [[0.0, 0.0], [-1e308, 1e308]],
                             ids=["repeated", "overflowing-gap"])
    def test_sample_times_without_a_finite_gap_are_refused(self, times, tmp_path, capsys):
        # two samples at t = 0 ran the reference to 2**20 steps (3.3 s, 574
        # MB) before exit 2; a gap past the float range exited 0 with an
        # overflow warning and a field that read 1 where it should read 1.5
        path = _write_json(tmp_path, {"times": times, "matrices": [{"dim": 1, "re": [1.0]},
                                                                   {"dim": 1, "re": [2.0]}]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["magnus", "--field", path, "--rows", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: sample times must be distinct, with finite gaps between them\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_sample_times_closer_than_the_grid_resolves_are_refused(self, tmp_path, capsys):
        # a kink 1.07e-241 after t = 0 snaps onto the grid time 0: the
        # reference ran to 2**20 steps (about 4.2 s and 1 GB) before exit 2
        samples = {"times": [0.0, 1.07e-241, -5.25e-153],
                   "matrices": [matrix_to_json(np.eye(2)), matrix_to_json(2.0 * np.eye(2)),
                                matrix_to_json(np.diag([1.0, -1.0]))]}
        path = _write_json(tmp_path, samples)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["magnus", "--field", path, "--t-end", "0.1", "--h", "0.02",
                                      "--order", "8", "--rows", "2", "--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: sample times -5.25e-153 and 0 are closer than a step grid "
                       "resolves (gap 5.25e-153)\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_a_blown_up_field_is_refused_in_one_short_line(self, tmp_path, capsys):
        samples = {"times": [0.0, 1.0],
                   "matrices": [matrix_to_json(np.eye(2)), matrix_to_json(np.diag([1e200, 1.0]))]}
        code, out, err = run_cli(["magnus", "--field", _write_json(tmp_path, samples)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: |Omega| = 1.25e+195 >= 3.1416 at t = 0.005\n"

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

    @pytest.mark.parametrize("argv", [
        ["--p", "1", "--dim", "2", "--family", "1,1"],
        ["--p", "0", "--dim", "3", "--family", "2"],
        ["--p", "2", "--dim", "3", "--family", "1,2,1", "--delta", "0.35"],
        ["--p", "3", "--dim", "4", "--family", "2,1,2,1", "--delta", "0.35"],
        ["--p", "1", "--dim", "2", "--family", "1,1", "--delta", "0"],
    ], ids=["p1-d2", "p0-d3", "p2-d3", "p3-d4", "refused-sector"])
    def test_one_eigendecomposition_per_job(self, argv, capsys, monkeypatch):
        # the three routes read one record, so A is diagonalized once a job,
        # a job refused at the sector check included
        from opcalc import rearrange

        calls = []
        decompose = rearrange.eigen_decompose

        def counted(a):
            calls.append(a)
            return decompose(a)

        monkeypatch.setattr(rearrange, "eigen_decompose", counted)
        for _ in range(2):
            calls.clear()
            code, out, err = run_cli(["rearrange", *argv], capsys)
            assert len(calls) == 1
            assert code == (2 if argv[-1] == "0" else 0), err

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
        # subcommand or verify-all reaches: every name __init__ imports or an
        # __all__ lists, and every top-level function and class of a module
        # whose name has no leading underscore, must be loaded (read as a name
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
                elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")):
                    public.add(node.name)
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
        basis = eigenbasis([2, 1], A, bs, delta=0.25)
        routes = [route(basis) for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G)]
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
            assert verify._simplex_moment_integral(
                (0,) * (n + 1), verify._moment_factor) == Fraction(1, factorial(n))

    def test_planted_wrong_moment_is_counted(self, monkeypatch):
        alphas = [(0, 0), (1, 2, 0), (2, 1, 1, 0)]
        closed = verify.divdiff.simplex_moment_s
        monkeypatch.setattr(verify.divdiff, "simplex_moment_s",
                            lambda a: closed(a) * (2 if a == (1, 2, 0) else 1))
        assert verify.combinatorics_exactness(alphas, [], TOL).value == 1.0

    def test_planted_wrong_binomial_closed_form_is_counted(self, monkeypatch):
        # the "=" value of row m = 5 of beta = (1, 2) is off by one: one case
        pairs = [((0,), 2), ((1, 2), 5), ((1, 2), 7), ((2, 1, 0), 4)]
        identity = verify.divdiff.multinomial_identity

        def planted(beta, m_max):
            rows = identity(beta, m_max)
            if (beta, m_max) == ((1, 2), 5):
                (summed, closed), at_most = rows[5]
                rows[5] = ((summed, closed + 1), at_most)
            return rows

        monkeypatch.setattr(verify.divdiff, "multinomial_identity", planted)
        assert verify.combinatorics_exactness([], pairs, TOL).value == 1.0

    def test_grouped_readings_are_the_identity_values(self, monkeypatch):
        # the battery reads every (beta, m, mode) case with n <= 4,
        # |beta| <= 4 and m <= 8 through one call (beta, 8) per beta
        seen = []
        monkeypatch.setattr(verify, "combinatorics_exactness",
                            lambda alphas, multinomials, tol: seen.append((alphas, multinomials)))
        verify.check_combinatorics(0, TOL)
        alphas, pairs = seen[0]
        assert (len(alphas), len(pairs), len({beta for beta, _ in pairs})) == (784, 125, 125)
        assert {m_max for _, m_max in pairs} == {8}
        cases = [value for beta, m_max in pairs
                 for row in verify.divdiff.multinomial_identity(beta, m_max).values()
                 for value in row]
        assert len(cases) == 1492
        assert all(summed == closed for summed, closed in cases)

    def test_one_convolution_per_beta_and_one_sum_per_factor_per_call(self, monkeypatch):
        # 125 reader calls (one convolution each) and 49 distinct (e, a)
        # factors per call, and nothing kept from one call to the next
        counts = {"reader": 0, "factor": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(verify.divdiff, "multinomial_identity",
                            counted("reader", verify.divdiff.multinomial_identity))
        monkeypatch.setattr(verify, "_moment_factor", counted("factor", verify._moment_factor))
        for calls in (1, 2):
            assert verify.check_combinatorics(0, TOL).value == 0.0
            assert counts == {"reader": 125 * calls, "factor": 49 * calls}

    @pytest.mark.parametrize("bad", [((1, 0), 2.5), ((2, 2), 3), ((), 3)],
                             ids=["m-fractional", "m-below-beta", "empty-beta"])
    def test_a_bad_triple_is_refused_as_the_identity_refuses_it(self, bad):
        # a bad (beta, m_max) pair after a good one
        with pytest.raises(InvalidInput) as grouped:
            verify.combinatorics_exactness([], [((0,), 1), bad], TOL)
        with pytest.raises(InvalidInput) as single:
            verify.divdiff.multinomial_identity(*bad)
        assert str(grouped.value) == str(single.value)


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

        with pytest.raises(InvalidInput, match="exceeds cap"):
            list(compositions(400, 6))  # ~8e9 terms

    def test_multinomial_range(self):
        from opcalc.divdiff import multinomial_identity

        with pytest.raises(OpcalcError):
            multinomial_identity((2, 2), 3)

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
        lambda: eigenbasis([1, 1], np.eye(2), [np.eye(2)], delta=float("nan")),
        lambda: eigenbasis([1, 1], np.eye(2), [np.eye(2)], delta=float("inf")),
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

    @pytest.mark.parametrize("call, name", [
        (lambda: taylor_expand(named_function("exp"), np.eye(2), np.eye(2), N=2.5), "order N"),
        (lambda: dyson_exp(np.eye(2), np.eye(2), N=2.5), "order N"),
        (lambda: dyson_exp(np.eye(2), np.eye(2), N="3"), "order N"),
        (lambda: opcalc.dyson_terms_simplex(np.eye(2), np.eye(2), N=2.5), "order N"),
        (lambda: opcalc.dyson_terms_simplex(np.eye(2), np.eye(2), N=-1), "order N"),
        (lambda: opcalc.kernel_F([math.nan, 1], [1.0, 1.0]), "exponents"),
        (lambda: opcalc.kernel_F([math.inf, 1], [1.0, 1.0]), "exponents"),
        (lambda: eigenbasis([math.nan, 1], np.eye(2), [np.eye(2)]), "exponents"),
        (lambda: eigenbasis([math.inf, 1], np.eye(2), [np.eye(2)]), "exponents"),
        (lambda: eigenbasis([1, math.nan], np.eye(2), [np.eye(2)]), "exponents"),
        (lambda: gen_matrix("random", 2.5, 0), "dim"),
        (lambda: gen_matrix("random", 2, 0.5), "seed"),
        (lambda: gen_matrix("random", 2, -1), "seed"),
    ], ids=["taylor-float-order", "dyson-float-order", "dyson-str-order",
            "dyson-simplex-float-order", "dyson-simplex-negative-order", "kernel-nan",
            "kernel-inf", "lhs-nan", "rhs-F-inf", "rhs-G-nan", "gen-float-dim",
            "gen-float-seed", "gen-negative-seed"])
    def test_a_bad_number_is_refused_naming_it(self, call, name):
        # each escaped as a bare TypeError, ValueError, OverflowError or
        # IndexError before the argument was read with operator.index (or, for
        # the exponents, as a finite real equal to its integer part)
        with pytest.raises(InvalidInput, match=name):
            call()

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
    def test_sizes_at_their_bound_pass_it(self, argv, monkeypatch, capsys):
        # the first matrix is asked for at the bound, and nothing is allocated;
        # the patched call's exception is not an input error, so it exits 3
        made = []

        def gen_matrix(*args):
            made.append(args)
            raise self._Made

        monkeypatch.setattr(cli, "gen_matrix", gen_matrix)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (3, "", "internal error: _Made: \n")
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
        # above half of it has no second level to compare with, so Contour,
        # the one check of a circle, refuses it before anything is integrated
        applied = []
        monkeypatch.setattr(cli, "apply_function", lambda *a, **k: applied.append(a))
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": nodes}}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and f"contour nodes {nodes} exceed 4096" in err
        assert applied == []

    def test_contour_nodes_at_half_the_cap_run(self, tmp_path, capsys):
        job = {"function": "exp", "matrices": [_MATRIX],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": 4096}}
        code, out, _ = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["contour_nodes"] == 8192

    @pytest.mark.parametrize("nodes", [256, 512, 4096])
    def test_elementary_job_circle_past_half_the_axis_cap(self, nodes, tmp_path, capsys):
        # the torus of an elementary product doubles each axis up to
        # MAX_AXIS_NODES = 256: such a circle used to evaluate one whole level
        # and fail with "last difference nan, floor nan"
        job = {"function": ["exp", "exp"], "matrices": [_MATRIX, {"dim": 1, "re": [0.25]}],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": nodes}}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and f"contour nodes {nodes} exceed 128" in err
        assert "MAX_AXIS_NODES" in err

    def test_elementary_job_circle_at_half_the_axis_cap_runs(self, tmp_path, capsys):
        job = {"function": ["exp", "exp"], "matrices": [_MATRIX, {"dim": 1, "re": [0.25]}],
               "contour": {"auto": False, "center": [0.5, 0.0], "radius": 1.0, "nodes": 128}}
        code, out, _ = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        assert code == 0
        value = matrix_from_json(json.loads(out)["results"]["value"])
        assert abs(value[0, 0] - math.exp(0.75)) <= 1e-12

    @pytest.mark.parametrize("matrix, named", [
        ({"dim": 1, "dtype": "<c16", "b64": 5}, "matrix b64 must be a JSON str"),
        ({"dim": 1, "dtype": "<c16", "b64": ["AAAAAAAAAAAAAAAAAAAAAA=="]},
         "matrix b64 must be a JSON str"),
        ({"dim": 1, "dtype": "<c16", "b64": "AAAAAAAAAAAA AAAAAAAAAA=="}, "not base64"),
        ({"dim": 1, "dtype": "<c16", "b64": "AAAAAAAAAAAAAAAAAAAAAA=" }, "not base64"),
        ({"dim": 1, "dtype": "<c16", "b64": "AAAAAAAAAAA@AAAAAAAAAAA=="}, "not base64"),
        ({"dim": 1, "dtype": "<c16", "b64": "AAAAAAAAAAAAAAAAAAAAAé=="}, "not base64"),
        ({"dim": 1, "dtype": "<c16", "b64": "AAAAAAAAAAA="}, "16 dim^2 bytes, got dim 1 with 8"),
        ({"dim": 2, "dtype": "<c16", "b64": "AAAAAAAAAAAAAAAAAAAAAA=="},
         "16 dim^2 bytes, got dim 2 with 16"),
        ({"dim": 0, "dtype": "<c16", "b64": ""}, "need dim >= 1"),
        ({"dim": 1, "dtype": "<f8", "b64": "AAAAAAAAAAAAAAAAAAAAAA=="}, "matrix dtype must be '<c16'"),
        ({"dim": 1, "dtype": None, "b64": "AAAAAAAAAAAAAAAAAAAAAA=="}, "matrix dtype must be '<c16'"),
        ({"dim": 1, "b64": "AAAAAAAAAAAAAAAAAAAAAA=="}, "matrix has no 'dtype' field"),
        (matrix_to_json([[1.0]]) | {"b64": base64.b64encode(
            np.array([complex(math.nan, 0)]).astype("<c16").tobytes()).decode()}, "finite"),
        (matrix_to_json([[1.0]]) | {"b64": base64.b64encode(
            np.array([complex(0, math.inf)]).astype("<c16").tobytes()).decode()}, "finite"),
    ], ids=["b64-number", "b64-list", "b64-space", "b64-padding", "b64-symbol", "b64-non-ascii",
            "bytes-short", "bytes-dim", "dim-zero", "dtype-f8", "dtype-null", "dtype-missing",
            "nan-entry", "inf-entry"])
    def test_a_bad_b64_matrix_is_refused_naming_it(self, matrix, named, tmp_path, capsys):
        job = {"function": "exp", "matrices": [matrix]}
        code, out, err = run_cli(["funcalc", "--job", _write_json(tmp_path, job)], capsys)
        self._refused(code, out, err)
        assert err.count("\n") == 1 and named in err

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
# shape rather than overflow; strings include job keywords, function names,
# the b64 form's dtype and payloads of one complex entry and of half of one.
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-4, 4), st.floats(-4, 4),
                    st.sampled_from(["exp", "log", "pow:-1", "ddtensor", "ddapply", "<c16",
                                     "AAAAAAAAAAAAAAAAAAAAAA==", "AAAAAAAAAAA="]),
                    st.text(max_size=4))
_KEYS = st.one_of(st.sampled_from(["mode", "function", "matrices", "b_matrices", "contour",
                                   "auto", "center", "radius", "nodes", "dim", "re", "im",
                                   "b64", "dtype"]),
                  st.text(max_size=3))


def _json_values(depth: int):
    """JSON values nested at most ``depth`` containers deep."""
    if depth == 0:
        return _LEAVES
    inner = _json_values(depth - 1)
    return st.one_of(_LEAVES, st.lists(inner, max_size=4),
                     st.dictionaries(_KEYS, inner, max_size=4))


def _exit_contract(argv) -> None:
    """``main`` returns 0, 1 or 2 (never 3, a bug) and lets no exception out.
    Exit 0 prints nothing to stderr, exit 1 only ``FAIL`` lines and exit 2
    exactly one ``error:`` line.  Python's and numpy's warnings stay on, and
    no run raises one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(over="warn", divide="warn", invalid="warn"), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert not [str(w.message) for w in caught], (argv, [str(w.message) for w in caught])
    lines = text.splitlines()
    assert {0: not lines, 1: lines and all(line.startswith("FAIL ") for line in lines),
            2: len(lines) == 1 and lines[0].startswith("error: ")}[code], (argv, text)


# Field-file parts for the property test below: a valid file is three 2 x 2
# samples; each example replaces one part of it and keeps the rest valid.
_SAMPLE_TIMES = [0.0, 0.5, 1.0]
_SAMPLE_MATRICES = [{"dim": 2, "re": [0.5, 0.2, 0.0, -0.3], "im": [0.0, 0.1, -0.1, 0.0]},
                    {"dim": 2, "re": [0.1, 0.4, 0.3, 0.2]},
                    matrix_to_json(np.array([[0.3, 0.0], [0.1j, 0.5]]))]
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308,
                            1.7976931348623157e308, float("nan"), float("inf"), 10**400])
_NUMBER = st.one_of(_EXTREME, st.integers(-3, 3), st.floats(-2.0, 2.0))


_DROP = object()  # a part left out of the file


def _with(part: str, value) -> dict:
    samples = {"times": list(_SAMPLE_TIMES), "matrices": list(_SAMPLE_MATRICES)}
    if value is _DROP:
        del samples[part]
    else:
        samples[part] = value
    return samples


def _with_matrix(k: int, key: str, value) -> dict:
    """The valid file with field ``key`` of matrix ``k`` set to ``value``."""
    matrices = list(_SAMPLE_MATRICES)
    matrices[k] = {**matrices[k], key: value} if value is not _DROP else {
        name: v for name, v in matrices[k].items() if name != key}
    return _with("matrices", matrices)


# Most examples keep each part's shape (three times, four entries) so that
# they reach the solve; the rest change the shape or the JSON type.
_FIELD_FILES = st.one_of(
    st.builds(_with, st.just("times"), st.lists(_NUMBER, min_size=3, max_size=3)),
    st.builds(_with, st.just("times"), st.one_of(st.lists(_NUMBER, max_size=5),
                                                 _json_values(1), st.just(_DROP))),
    st.builds(_with_matrix, st.integers(0, 1), st.sampled_from(["re", "im"]),
              st.lists(_NUMBER, min_size=4, max_size=4)),
    st.builds(_with_matrix, st.integers(0, 1), st.sampled_from(["dim", "re", "im"]),
              st.one_of(_NUMBER, st.lists(_NUMBER, max_size=5), _LEAVES, st.just(_DROP))),
    st.builds(_with_matrix, st.just(2), st.sampled_from(["dim", "dtype", "b64"]),
              st.one_of(_LEAVES, st.just(_DROP))),
    st.builds(_with, st.just("matrices"), st.one_of(
        st.lists(st.sampled_from(_SAMPLE_MATRICES + [_MATRIX]), max_size=4), _json_values(1),
        st.just(_DROP))),
)


# Node coordinates near 0 and near the float range, where a closed form or
# an integrand under- or overflows.
_NEAR_EDGE = st.sampled_from([0.0, 5e-324, 1e-300, 2e-300, -1e-300, 1e-150, 1.0, 1e150,
                              1e300, -1e300, 1e308, -1.7976931348623157e308])
_DD_METHODS = ["recursive", "explicit", "contour", "hermite", "power", "all"]


class TestInputProperties:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(samples=_FIELD_FILES)
    @example(samples={"times": [-1e308, 1e308],
                      "matrices": [{"dim": 1, "re": [1.0]}, {"dim": 1, "re": [2.0]}]})
    def test_magnus_field_file(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            _exit_contract(["magnus", "--field", _write_json(tmp, samples), "--t-end", "0.1",
                            "--h", "0.02", "--order", "8", "--rows", "2", "--format", "json"])

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(nodes=st.one_of(_json_values(3), st.lists(st.lists(_NEAR_EDGE, min_size=2, max_size=2),
                                                     min_size=1, max_size=4)),
           f=st.sampled_from(["exp", "log", "pow:-1", "pow:-3", "pow:5"]),
           method=st.sampled_from(_DD_METHODS))
    @example(nodes=[[1e300, 0], [-1e300, 0]], f="pow:5", method="power")
    @example(nodes=[[1e-300, 0], [2e-300, 0]], f="pow:-3", method="power")
    @example(nodes=[[1e-300, 0], [2e-300, 0]], f="pow:-3", method="hermite")
    @example(nodes=[[1e-300, 0], [2e-300, 0]], f="pow:-3", method="all")
    @example(nodes=[[1.7e308, 1.7e308], [0, 0]], f="exp", method="recursive")
    def test_dd_nodes(self, nodes, f, method):
        # the "=" form keeps a value such as "-1" from reading as a flag
        _exit_contract(["dd", "--f", f, f"--nodes={json.dumps(nodes)}", "--method", method])

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(job=st.one_of(_json_values(3), st.dictionaries(_KEYS, _json_values(2), max_size=6)))
    def test_funcalc_job(self, job):
        with tempfile.TemporaryDirectory() as tmp:
            _exit_contract(["funcalc", "--job", _write_json(tmp, job)])

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(command=st.sampled_from(["dyson", "taylor"]), dim=st.integers(1, 3),
           order=st.integers(0, 3),
           b_scale=st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                                     st.sampled_from([1.0, -1.0]),
                                                     st.floats(-3.0, 300.0))))
    @example(command="dyson", dim=2, order=2, b_scale=1e200)
    @example(command="taylor", dim=3, order=8, b_scale=1e3)
    def test_expansion_argv(self, command, dim, order, b_scale):
        # b-scale log-uniform from 1e-3 to 1e300, either sign: an exponential
        # past the float range is an input error, not exit 3
        _exit_contract([command, f"--dim={dim}", f"--order={order}", f"--b-scale={b_scale!r}"])

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(f=st.sampled_from(["exp", "log", "pow:-1", "pow:3", "resolvent:0.5,0", "rational:2",
                              "nope"]),
           dim=st.integers(-1, 3), count=st.integers(-1, 5), seed=st.integers(-1, 3))
    def test_newton_argv(self, f, dim, count, seed):
        _exit_contract(["newton", "--f", f, f"--dim={dim}", f"--count={count}",
                        f"--seed={seed}"])

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(p=st.integers(-1, 3), dim=st.integers(-1, 4),
           family=st.one_of(st.lists(st.integers(-1, 3), max_size=5).map(
               lambda qs: ",".join(map(str, qs))), st.text(max_size=3)),
           delta=st.one_of(st.floats(-4.0, 4.0),
                           st.sampled_from([0.0, -0.0, -1.0, math.pi, 3.2, 1e300, math.inf,
                                            -math.inf, math.nan])))
    @example(p=1, dim=8, family="1,1", delta=-1.0)
    @example(p=1, dim=3, family="1,1", delta=3.2)
    def test_rearrange_argv(self, p, dim, family, delta):
        # delta <= 0 leaves an empty sector, one above pi takes in the
        # negative axis; both are input errors, as is a family that fails
        # the decay conditions
        _exit_contract(["rearrange", f"--p={p}", f"--dim={dim}", f"--family={family}",
                        f"--delta={delta!r}"])


class TestReportWriter:
    """``main`` writes the report a handler returns as
    ``json.dumps(report, indent=2, sort_keys=True)``, and nothing when the
    handler returns none."""

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
        write = cli._write
        monkeypatch.setattr(cli, "_write", lambda text, path: written.append(text)
                            or write(text, path))
        for argv in argvs:
            code, out, _ = run_cli(argv, capsys)
            text = written[-1]
            assert code == 0 and out.endswith(text), argv
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n", argv
            assert report["subcommand"] == argv[0]
        assert len(written) == len(argvs)

    def test_a_handler_that_wrote_its_own_output_gets_no_report(self, monkeypatch, capsys):
        written = []
        monkeypatch.setattr(cli, "_write", lambda text, path: written.append(text))
        code, _, _ = run_cli(["magnus", "--rows", "4", "--h", "0.01", "--timings"], capsys)
        assert code == 0
        assert len(written) == 1 and written[0].startswith("t,omega_norm,discrepancy\n")


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
        with pytest.raises(InvalidInput, match="JSON object"):
            cli._apply_config(["newton", "--config", str(cfg)])

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


class TestExitStatus:
    """Exit 2 is an input error, typed as :class:`InvalidInput` where opcalc
    refuses it; any other exception is a bug and exits 3."""

    @pytest.mark.parametrize("argv, job, match", [
        (["dd", "--f", "exp", "--nodes", "[]", "--method", "recursive"], None,
         "node set must be non-empty"),
        (["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]", "--method", "power"], None,
         "--method power needs --f pow:N"),
        (["funcalc"], {"function": ["exp", "exp", "exp"],
                       "matrices": [matrix_to_json(np.eye(2))] * 2},
         "need one function name per matrix"),
        (["funcalc"], {"mode": "bogus", "function": "exp",
                       "matrices": [matrix_to_json(np.eye(2))]}, "unknown mode"),
        (["rearrange", "--p", "2", "--dim", "2", "--family", "1,1"], None,
         "--family needs p\\+1"),
        (["gen", "--kind", "random", "--dim", "0"], None, "dimension must be"),
    ], ids=["dd-empty-nodes", "dd-power-without-pow", "funcalc-name-count",
            "funcalc-unknown-mode", "rearrange-family-length", "gen-dimension"])
    def test_handler_refusals_are_typed(self, argv, job, match, tmp_path, capsys):
        if job is not None:
            (tmp_path / "job.json").write_text(json.dumps(job))
            argv = argv + ["--job", str(tmp_path / "job.json")]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(InvalidInput, match=match):
            getattr(cli, "_cmd_" + args.subcommand)(args, TOL)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_a_job_file_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_bytes(b'{"function": "exp\xff"}')
        code, out, err = run_cli(["funcalc", "--job", str(job)], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("bug", [ValueError("bad value"), KeyError("key")],
                             ids=["value-error", "key-error"])
    def test_a_library_bug_exits_3(self, bug, monkeypatch, capsys):
        # a bare ValueError or KeyError from the library is a bug, and must
        # not read as malformed input
        def handler(args, tol):
            raise bug

        monkeypatch.setattr(cli, "_cmd_dd", handler)
        code, out, err = run_cli(["dd", "--f", "exp", "--nodes", "[[0,0],[1,0]]"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"internal error: {type(bug).__name__}: ")
        assert err.count("\n") == 1

    def test_a_report_that_cannot_be_written_is_an_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(["gen", "--kind", "random", "--dim", "2", "--output",
                                  str(tmp_path / "missing" / "report.json")], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")


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
