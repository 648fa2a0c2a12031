import base64
import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcalc import (
    TensorOperator,
    apply_function,
    commutator,
    dd_apply,
    dyson_exp,
    eigen_decompose,
    exp_function,
    gen_matrix,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    pair,
    rel_err,
)
from opcalc.errors import DimensionMismatch, NonDiagonalizable


def lift(a, n, j):
    """Slot-j lift 1 (x) .. a .. (x) 1 of ``a`` into the (n+1)-fold tensor algebra."""
    eye = np.eye(a.shape[0])
    return functools.reduce(np.kron, [a if k == j else eye for k in range(n + 1)])


def nabla_power(a, n, j, k):
    """k-th power of nabla_j = lift(a, j-1) - lift(a, j), on n+1 slots."""
    nab = lift(a, n, j - 1) - lift(a, n, j)
    return TensorOperator(np.linalg.matrix_power(nab, k), a.shape[0], n + 1)


def nested_commutator(a, b, n):
    """Brute-force oracle: ad_a^n(b) by n explicit commutators."""
    x = b
    for _ in range(n):
        x = a @ x - x @ a
    return x


class TestEigenDecompose:
    def test_diagonal(self):
        w, v, vinv = eigen_decompose(np.diag([1.0, 2.0]))
        assert sorted(w.real) == [1.0, 2.0]
        assert rel_err(v @ vinv, np.eye(2)) < 1e-14

    def test_jordan_block_rejected(self):
        with pytest.raises(NonDiagonalizable):
            eigen_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_reconstruction(self):
        a = gen_matrix("hermitian", 4, 0)
        w, v, vinv = eigen_decompose(a)
        assert rel_err((v * w) @ vinv, a) <= 1e-10

    def test_the_input_norm_is_taken_once(self, monkeypatch):
        # it was taken for the > 0 test and again inside rel_err: one SVD too many
        from opcalc import core

        a, inner, seen = gen_matrix("random", 3, 4), core.opnorm, []
        monkeypatch.setattr(core, "opnorm", lambda m: seen.append(np.array_equal(m, a)) or inner(m))
        eigen_decompose(a)
        assert seen.count(True) == 1 and len(seen) == 2

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_residual_is_rel_err(self, seed, monkeypatch):
        from opcalc import core

        a = gen_matrix("random", 4, seed)
        w, v = np.linalg.eig(a)
        want = rel_err((v * w) @ np.linalg.inv(v), a)
        monkeypatch.setattr(core, "EIG_RESIDUAL", -1.0)  # refuse every matrix, naming its residual
        with pytest.raises(NonDiagonalizable, match=re.escape(f"reconstruction residual {want:.3e}")):
            eigen_decompose(a)


class TestOpnorm:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_for_bit_the_matrix_two_norm(self, d):
        rng = np.random.default_rng(d)
        for m in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                  rng.standard_normal((d, d)), np.zeros((d, d), dtype=complex)):
            assert opnorm(m) == float(np.linalg.norm(m, 2))

    @pytest.mark.parametrize("x", [0.0, -2.5, 3 - 4j])
    def test_zero_dimensional_input_is_its_modulus(self, x):
        assert opnorm(np.asarray(x)) == abs(x)


class TestSlots:
    def test_distinct_slots_commute(self):
        a = gen_matrix("random", 2, 6)
        b = gen_matrix("random", 2, 7)
        x = lift(a, 1, 0)
        y = lift(b, 1, 1)
        defect = opnorm(commutator(x, y))
        assert defect <= 1e-13 * opnorm(x) * opnorm(y)

    def test_middle_slot_pairing(self):
        # slot-1 lift of a paired with (b1, b2) interleaves as b1 a b2
        a = gen_matrix("random", 2, 8)
        b1 = gen_matrix("random", 2, 9)
        b2 = gen_matrix("random", 2, 10)
        assert rel_err(pair(TensorOperator(lift(a, 2, 1), 2, 3), [b1, b2]), b1 @ a @ b2) < 1e-13

    def test_telescoping(self):
        a = gen_matrix("random", 2, 11)
        n = 3
        for j in range(1, n + 1):
            total = lift(a, n, n)
            for k in range(j, n + 1):
                total = total + nabla_power(a, n, k, 1).matrix
            # pure additions of Kronecker matrices: machine precision
            assert opnorm(total - lift(a, n, j - 1)) <= 1e-14


class TestPair:
    def test_elementary_tensor(self):
        a0 = gen_matrix("random", 2, 12)
        a1 = gen_matrix("random", 2, 13)
        b = gen_matrix("random", 2, 14)
        t = TensorOperator(np.kron(a0, a1), 2, 2)
        assert rel_err(pair(t, [b]), a0 @ b @ a1) < 1e-13

    def test_unit_tensor(self):
        b = gen_matrix("random", 3, 15)
        t = TensorOperator(np.eye(9), 3, 2)
        assert rel_err(pair(t, [b]), b) < 1e-14

    def test_single_slot(self):
        a = gen_matrix("random", 3, 16)
        t = TensorOperator(a, 3, 1)
        assert np.array_equal(pair(t, []), a)

    def test_single_slot_is_a_copy(self):
        # the pairing is a new matrix, never a view of the frozen operator's
        t = TensorOperator(gen_matrix("random", 3, 16), 3, 1)
        assert not np.shares_memory(pair(t, []), t.matrix)

    def test_six_slot_elementary_tensor(self):
        # the (2, 5) ddapply shape: a0 (x) ... (x) a5 paired with b1..b5
        a = [gen_matrix("random", 2, 60 + j) for j in range(6)]
        b = [gen_matrix("random", 2, 70 + j) for j in range(5)]
        t = TensorOperator(functools.reduce(np.kron, a), 2, 6)
        want = a[0]
        for aj, bj in zip(a[1:], b):
            want = want @ bj @ aj
        assert rel_err(pair(t, b), want) < 1e-13

    def test_bilinearity(self):
        rng = np.random.default_rng(17)
        t1 = TensorOperator(rng.standard_normal((4, 4)) + 0j, 2, 2)
        t2 = TensorOperator(rng.standard_normal((4, 4)) + 0j, 2, 2)
        b1 = rng.standard_normal((2, 2)) + 0j
        b2 = rng.standard_normal((2, 2)) + 0j
        lhs = pair(TensorOperator(t1.matrix + t2.matrix, 2, 2), [b1 + 2.0 * b2])
        rhs = pair(t1, [b1]) + 2.0 * pair(t1, [b2]) + pair(t2, [b1]) + 2.0 * pair(t2, [b2])
        assert rel_err(lhs, rhs) < 1e-12

    def test_dimension_mismatch(self):
        t = TensorOperator(np.eye(4), 2, 2)
        with pytest.raises(DimensionMismatch):
            pair(t, [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            pair(t, [np.eye(2), np.eye(2)])

    def test_adjoint_action(self):
        # nabla powers pair to iterated commutators (brute-force oracle)
        for d in (2, 3, 4):
            a = gen_matrix("random", d, 18 + d)
            b = gen_matrix("random", d, 25 + d)
            for n in range(1, 6):
                got = pair(nabla_power(a, 1, 1, n), [b])
                want = nested_commutator(a, b, n)
                assert rel_err(got, want) < 1e-12

    def test_binomial_rewrite(self):
        # a^m b expanded against commutator terms, m = 4 (direct product oracle)
        a = gen_matrix("random", 3, 20)
        b = gen_matrix("random", 3, 21)
        m = 4
        lhs = np.linalg.matrix_power(a, m) @ b
        rhs = np.zeros_like(lhs)
        from math import comb

        for j in range(m + 1):
            rhs = rhs + comb(m, j) * nested_commutator(a, b, j) @ np.linalg.matrix_power(a, m - j)
        assert rel_err(lhs, rhs) < 1e-12

    def test_multinomial_rewrite(self):
        # a^m b1 b2 = sum over alpha of multinomials of ad powers (oracle: direct)
        from math import factorial

        a = gen_matrix("random", 2, 22)
        b1 = gen_matrix("random", 2, 23)
        b2 = gen_matrix("random", 2, 24)
        m = 3
        lhs = np.linalg.matrix_power(a, m) @ b1 @ b2
        rhs = np.zeros_like(lhs)
        for a1 in range(m + 1):
            for a2 in range(m + 1 - a1):
                coeff = factorial(m) // (factorial(a1) * factorial(a2) * factorial(m - a1 - a2))
                rhs = rhs + coeff * (
                    nested_commutator(a, b1, a1)
                    @ nested_commutator(a, b2, a2)
                    @ np.linalg.matrix_power(a, m - a1 - a2)
                )
        assert rel_err(lhs, rhs) < 1e-12


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([0.0, 1.0]))
        assert rel_err(out, np.diag([1.0, np.e])) < 1e-14

    def test_nilpotent(self):
        out = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert rel_err(out, np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-15

    def test_normal_against_eig(self):
        a = gen_matrix("hermitian", 4, 25)
        w, v, vinv = eigen_decompose(a)
        oracle = (v * np.exp(w)) @ vinv
        assert rel_err(matrix_exp(a), oracle) <= 1e-12


class TestJson:
    def test_roundtrip(self):
        m = gen_matrix("random", 3, 26)
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            matrix_from_json({"dim": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]})

    def test_writes_the_row_major_little_endian_bytes(self):
        m = gen_matrix("random", 2, 27)
        obj = matrix_to_json(m)
        assert sorted(obj) == ["b64", "dim", "dtype"]
        assert (obj["dim"], obj["dtype"]) == (2, "<c16")
        assert base64.b64decode(obj["b64"]) == m.astype("<c16").tobytes(order="C")
        # a transposed view is written in its own row-major order
        assert np.array_equal(matrix_from_json(matrix_to_json(m.T)), m.T)

    def test_reads_the_decimal_form(self):
        got = matrix_from_json({"dim": 2, "re": [1, 0, 0.5, -2], "im": [0, 1, 0, 0]})
        assert np.array_equal(got, np.array([[1, 1j], [0.5, -2]]))
        assert np.array_equal(matrix_from_json({"dim": 1, "re": [0.5]}), [[0.5]])

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2 * d * d, max_size=2 * d * d)))
    @example([-0.0, 5e-324, 1e308, -1e308, -5e-324, 2.2250738585072014e-308 / 3, 0.0, -0.0])
    @example([-0.0, -0.0])
    def test_report_text_decodes_bit_for_bit(self, parts):
        # through json.dumps as cli.main writes a report, and json.loads,
        # every bit survives: the sign of zero, subnormals and the ends of the
        # float range
        d = math.isqrt(len(parts) // 2)
        m = np.empty(d * d, dtype=complex)
        m.real, m.imag = parts[0::2], parts[1::2]
        m = m.reshape(d, d)
        text = json.dumps({"value": matrix_to_json(m)}, indent=2, sort_keys=True)
        got = matrix_from_json(json.loads(text)["value"])
        assert got.view(np.uint64).tolist() == m.view(np.uint64).tolist()
        assert got.flags.writeable


@pytest.mark.parametrize(
    "entry",
    [
        lambda z: apply_function(exp_function(), z),
        lambda z: dd_apply(exp_function(), [z, z], [z]),
        lambda z: dyson_exp(z, z, N=1),
    ],
    ids=["apply_function", "dd_apply", "dyson_exp"],
)
def test_empty_matrix_rejected(entry):
    with pytest.raises(DimensionMismatch):
        entry(np.zeros((0, 0)))


class TestTensorOperatorType:
    def test_dimension_invariant(self):
        with pytest.raises(DimensionMismatch):
            TensorOperator(np.eye(5), 2, 2)  # 5 != 2**2


class TestConcurrency:
    def test_parallel_invocations_agree(self):
        # pure functions of immutable inputs: concurrent calls must match
        from concurrent.futures import ThreadPoolExecutor

        from opcalc import dd_contour, exp_function

        f = exp_function()
        a = gen_matrix("random", 3, 27)
        b = gen_matrix("random", 3, 28)
        nodes = [0.1, 0.4 + 0.2j, -0.3]

        def work(_):
            return (
                pair(nabla_power(a, 1, 1, 2), [b]),
                dd_contour(f, nodes),
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16)))
        ref_pair, ref_dd = results[0]
        for got_pair, got_dd in results[1:]:
            assert np.array_equal(got_pair, ref_pair)
            assert got_dd == ref_dd
