import itertools
import math

import numpy as np
import pytest

from opcalc import (
    apply_function,
    dd_apply,
    dyson_exp,
    dyson_terms_simplex,
    exp_function,
    gen_matrix,
    matrix_exp,
    newton_interpolate,
    newton_recursion_check,
    opnorm,
    power_function,
    rel_err,
    taylor_expand,
    taylor_series_ad,
)
from opcalc import funcalc
from opcalc.core import as_matrix, eigen_decompose
from opcalc.errors import ConvergenceThresholdExceeded
from opcalc.quadrature import simplex_integrate

EXP = exp_function()


def nth_derivative(f, a, bs):
    """n-th derivative of the matrix map induced by f at a, in directions bs:
    the confluent pairing [a, ..., a] f summed over all orderings of bs."""
    return sum(dd_apply(f, [a] * (len(bs) + 1), [bs[k] for k in perm])
               for perm in itertools.permutations(range(len(bs))))


def nth_derivative_fd(f, a, bs, step):
    """Central mixed differences of s -> f(a + sum_i s_i b_i): 2**n
    evaluations of the single-variable calculus."""
    total = 0
    for signs in itertools.product((-1.0, 1.0), repeat=len(bs)):
        m = a + sum(sg * step * b for sg, b in zip(signs, bs))
        total = total + np.prod(signs) * apply_function(f, m)
    return total / (2.0 * step) ** len(bs)


@pytest.fixture
def quadratures(monkeypatch):
    """The circle of every contour quadrature the contour calculus makes."""
    calls = []
    inner = funcalc.contour_quadrature

    def counting(batch_fn, center, radius, **kwargs):
        calls.append((center, radius))
        return inner(batch_fn, center, radius, **kwargs)

    monkeypatch.setattr(funcalc, "contour_quadrature", counting)
    return calls


class TestNewton:
    def test_single_node_exact(self):
        a = gen_matrix("random", 3, 0)
        report = newton_interpolate(EXP, [a])
        assert report.final_residual <= 1e-12 * opnorm(report.target)

    def test_equal_nodes(self):
        a = gen_matrix("random", 2, 1)
        report = newton_interpolate(EXP, [a, a, a])
        assert report.final_residual <= 1e-10 * opnorm(report.target)

    def test_random_chain(self):
        mats = [gen_matrix("random", 3, 2 + j) for j in range(4)]
        report = newton_interpolate(EXP, mats)
        # independent target: Pade/squaring exponential
        assert rel_err(report.target, matrix_exp(mats[-1])) <= 1e-9
        assert report.final_residual <= 1e-8 * opnorm(report.target)

    def test_corrections_shrink_nearby_nodes(self):
        base = gen_matrix("random", 3, 10)
        mats = [base + 0.05 * gen_matrix("random", 3, 11 + j) for j in range(3)]
        report = newton_interpolate(EXP, mats)
        assert report.remainder_norms[-1] < report.remainder_norms[0]

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_two_quadratures_at_every_order(self, quadratures, n):
        # every term from one f(B), the target from its own quadrature
        mats = [gen_matrix("random", 2, 70 + j) for j in range(n + 1)]
        report = newton_interpolate(EXP, mats)
        assert len(quadratures) == 2
        assert len(report.partial_sums) == n + 1


class TestNewtonRecursion:
    def test_coincident_tail_vanishes(self):
        a = [gen_matrix("random", 2, 20 + j) for j in range(3)]
        mats = a + [a[-1]]  # a_{n+1} = a_n
        bs = [gen_matrix("random", 2, 30 + j) for j in range(2)]
        assert newton_recursion_check(EXP, mats, bs) <= 1e-12

    def test_scalar_case(self):
        # reduces to the scalar difference-quotient recursion
        xs = [0.1, 0.5, 0.9]
        mats = [x * np.eye(1) for x in xs]
        residual = newton_recursion_check(EXP, mats, [np.eye(1)])
        assert residual <= 1e-12

    def test_random(self):
        mats = [gen_matrix("random", 2, 40 + j) for j in range(4)]
        bs = [gen_matrix("random", 2, 50 + j) for j in range(2)]
        assert newton_recursion_check(EXP, mats, bs) <= 1e-9


class TestTaylor:
    def test_scalar_terms_are_classical(self):
        # d = 1: order-j term must be f^(j)(a) b^j / j!
        a, b = 0.3, 0.1
        report = taylor_expand(EXP, a * np.eye(1), b * np.eye(1), N=5)
        for j in range(1, 6):
            term = report.partial_sums[j][0, 0] - report.partial_sums[j - 1][0, 0]
            assert term == pytest.approx(np.exp(a) * b**j / math.factorial(j), rel=1e-9)

    def test_nilpotent_terminates(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        # the norm-based threshold is pessimistic here (point spectrum {0}),
        # but the series terminates and the sum is exact anyway
        with pytest.warns(ConvergenceThresholdExceeded):
            report = taylor_expand(EXP, np.zeros((2, 2)), b, N=1)
        assert rel_err(report.partial_sums[1], np.eye(2) + b) <= 1e-10
        assert report.remainder_norms[1] <= 1e-10

    def test_remainder_geometric_decay(self):
        a = gen_matrix("random", 3, 60)
        b = 0.1 * gen_matrix("random", 3, 61)
        report = taylor_expand(EXP, a, b, N=8)
        bound = report.meta["c2"] * opnorm(b)
        assert bound < 1.0
        rems = report.meta["explicit_remainder_norms"]
        floor = 1e-13 * opnorm(report.target)
        for r0, r1 in zip(rems, rems[1:]):
            if min(r0, r1) > floor:
                assert r1 / r0 <= bound

    def test_identity_with_remainder(self):
        a = gen_matrix("random", 2, 62)
        b = 0.1 * gen_matrix("random", 2, 63)
        report = taylor_expand(EXP, a, b, N=4)
        assert max(report.meta["identity_defects"]) <= 1e-9 * opnorm(report.target)

    def test_threshold_warning(self):
        a = gen_matrix("random", 2, 64)
        b = 2.0 * gen_matrix("random", 2, 65)
        with pytest.warns(ConvergenceThresholdExceeded):
            taylor_expand(EXP, a, b, N=1)

    @pytest.mark.parametrize("N", [0, 1, 4, 10])
    def test_two_quadratures_at_every_order(self, quadratures, N):
        # terms and explicit remainders from one f(B), the target from its own
        a = gen_matrix("random", 2, 80)
        b = 0.05 * gen_matrix("random", 2, 81)
        report = taylor_expand(EXP, a, b, N)
        assert len(quadratures) == 2
        assert len(report.meta["explicit_remainder_norms"]) == N + 1
        assert max(report.meta["identity_defects"]) <= 1e-12 * opnorm(report.target)


class TestNthDerivative:
    def test_square_first_derivative(self):
        # d/ds (a + s b)^2 at 0 = a b + b a
        a = gen_matrix("random", 3, 70)
        b = gen_matrix("random", 3, 71)
        got = nth_derivative(power_function(2), a, [b])
        assert rel_err(got, a @ b + b @ a) <= 1e-10

    def test_equal_directions_collapse(self):
        a = gen_matrix("random", 2, 72)
        b = gen_matrix("random", 2, 73)
        n = 3
        got = nth_derivative(EXP, a, [b] * n)
        single = dd_apply(EXP, [a] * (n + 1), [b] * n)
        assert rel_err(got, math.factorial(n) * single) <= 1e-10

    def test_permutation_symmetry(self):
        a = gen_matrix("random", 2, 74)
        b1 = gen_matrix("random", 2, 75)
        b2 = gen_matrix("random", 2, 76)
        assert rel_err(
            nth_derivative(EXP, a, [b1, b2]), nth_derivative(EXP, a, [b2, b1])
        ) <= 1e-13

    def test_finite_difference_oracle(self):
        a = gen_matrix("random", 2, 77)
        bs = [gen_matrix("random", 2, 78), gen_matrix("random", 2, 79)]
        got = nth_derivative(EXP, a, bs)
        fd = nth_derivative_fd(EXP, a, bs, step=1e-4)
        assert opnorm(got - fd) <= 1e-5 * max(opnorm(got), 1.0)


class TestAdSeries:
    def test_central_argument_collapses(self):
        # a = c 1: every commutator vanishes, sum = f^(n)(c)/n! * b1 b2
        c = 0.4
        a = c * np.eye(2)
        b1 = gen_matrix("random", 2, 80)
        b2 = gen_matrix("random", 2, 81)
        got = taylor_series_ad(EXP, a, [b1, b2], order_cap=10)
        want = np.exp(c) / math.factorial(2) * (b1 @ b2)
        assert rel_err(got, want) <= 1e-12

    def test_polynomial_truncates_exactly(self):
        a = 0.3 * gen_matrix("random", 2, 82)
        b = 0.3 * gen_matrix("random", 2, 83)
        f = power_function(3)
        got = taylor_series_ad(f, a, [b], order_cap=10)
        want = dd_apply(f, [a, a], [b])
        assert rel_err(got, want) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_sides_and_direct(self, n):
        a = 0.4 * gen_matrix("random", 2, 84)
        bs = [0.4 * gen_matrix("random", 2, 85 + j) for j in range(n)]
        left = taylor_series_ad(EXP, a, bs, order_cap=40, side="left-f")
        right = taylor_series_ad(EXP, a, bs, order_cap=40, side="right-f")
        direct = dd_apply(EXP, [a] * (n + 1), bs)
        scale = max(opnorm(direct), 1e-300)
        assert opnorm(left - right) / scale <= 1e-6
        assert opnorm(left - direct) / scale <= 1e-6
        assert opnorm(right - direct) / scale <= 1e-6

    @pytest.mark.parametrize("side", ["left-f", "right-f"])
    def test_summed_orders_reproduce_target(self, side):
        # equal directions, orders summed: the commutator series of f(a + b)
        a = 0.4 * gen_matrix("random", 2, 88)
        b = 0.15 * gen_matrix("random", 2, 89)
        total = np.zeros((2, 2), dtype=complex)
        for n in range(7):
            total = total + taylor_series_ad(EXP, a, [b] * n, order_cap=40, side=side)
        target = matrix_exp(a + b)
        # truncation after order 6 leaves ~|b|^7 e / 7!
        assert rel_err(total, target) <= 5e-9


class TestDyson:
    def test_no_perturbation(self):
        a = gen_matrix("random", 2, 90)
        report = dyson_exp(a, np.zeros((2, 2)), N=0)
        assert report.remainder_norms[0] <= 1e-12 * opnorm(report.target)
        assert report.meta["exact_remainder_norm"] <= 1e-12

    def test_commuting_scalars_match_classical_series(self):
        a, b = 0.7, 0.3
        report = dyson_exp(a * np.eye(1), b * np.eye(1), N=4)
        # oracle: exp(a) times the truncated scalar series in b
        partial = 0.0
        for n in range(5):
            partial += np.exp(a) * b**n / math.factorial(n)
            got = report.partial_sums[n][0, 0]
            assert got == pytest.approx(partial, rel=1e-9)

    def test_remainder_envelope(self):
        a = gen_matrix("random", 2, 91)
        b = 0.2 * gen_matrix("random", 2, 92)
        report = dyson_exp(a, b, N=4)
        bn = opnorm(b)
        envelope = [
            bn ** (n + 1) / math.factorial(n + 1) * np.exp(opnorm(a) + bn) * 3.0
            for n in range(5)
        ]
        for rem, env in zip(report.remainder_norms, envelope):
            assert rem <= env

    def test_finite_identity(self):
        for seed in range(3):
            a = gen_matrix("random", 3, 93 + seed)
            b = 0.3 * gen_matrix("random", 3, 97 + seed)
            report = dyson_exp(a, b, N=3)
            assert report.meta["identity_defect"] <= 1e-7 * opnorm(report.target)

    def test_target_is_pade_exponential(self):
        a = gen_matrix("random", 2, 99)
        b = 0.1 * gen_matrix("random", 2, 100)
        report = dyson_exp(a, b, N=2)
        assert np.array_equal(report.target, matrix_exp(a + b))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_block_terms_match_simplex_quadrature(self, d, N):
        a = gen_matrix("random", d, 101 + N)
        b = 0.25 * gen_matrix("random", d, 105 + N)
        report = dyson_exp(a, b, N=N)
        terms, remainder = dyson_terms_simplex(a, b, N)
        for n, term in enumerate(terms, start=1):
            block = report.partial_sums[n] - report.partial_sums[n - 1]
            assert opnorm(block - term) <= 1e-10
        # target minus the last partial sum is the block remainder up to the
        # identity defect
        closing = report.target - report.partial_sums[-1]
        assert opnorm(closing - remainder) <= 1e-10
        assert report.meta["exact_remainder_norm"] == pytest.approx(
            opnorm(remainder), abs=1e-10
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_simplex_terms_equal_the_stacked_product(self, d, N):
        # reference: the integrand with one stacked (P, d, d) @ (d, d) product
        # per constant factor; the library multiplies the stack as one GEMM
        a = gen_matrix("random", d, 111 + N)
        b = 0.25 * gen_matrix("random", d, 115 + N)
        am, bm = as_matrix(a), as_matrix(b)
        lam, v, vinv = eigen_decompose(am)
        mu, w, winv = eigen_decompose(am + bm)
        bprime = vinv @ bm @ v
        mix, mixinv = vinv @ w, winv @ v

        def term(order, closing):
            def integrand(s):
                e = np.exp(s[:, :order, None] * lam[None, None, :])
                x = e[:, 0, :, None] * bprime[None]
                for j in range(1, order):
                    x = x * e[:, j, None, :]
                    x = x @ bprime
                if closing:
                    x = x @ mix
                    x = x * np.exp(s[:, order, None] * mu[None, :])[:, None, :]
                    x = x @ mixinv
                else:
                    x = x * np.exp(s[:, order, None] * lam[None, :])[:, None, :]
                return x

            value = simplex_integrate(integrand, order, rtol=1e-9, point_budget=1_500_000)
            return v @ value @ vinv

        terms, remainder = dyson_terms_simplex(a, b, N)
        assert len(terms) == N
        for n, got in enumerate(terms, start=1):
            assert np.array_equal(got, term(n, False))
        assert np.array_equal(remainder, term(N + 1, True))

    def test_jordan_block_terms_match_cauchy_coefficients(self):
        # term n is the eps^n coefficient of exp(a + eps b); trapezoid rule on
        # |eps| = 1 with d x d exponentials only (no eigenbasis, no blocks)
        a = np.array([[0.3, 1.0, 0.0], [0.0, 0.3, 1.0], [0.0, 0.0, 0.3]])
        b = 0.3 * gen_matrix("random", 3, 110)
        N, m = 4, 64
        eps = np.exp(2j * np.pi * np.arange(m) / m)
        samples = [matrix_exp(a + e * b) for e in eps]
        report = dyson_exp(a, b, N=N)
        for n in range(N + 1):
            coeff = sum(x * e ** (-n) for x, e in zip(samples, eps)) / m
            term = report.partial_sums[n] - (report.partial_sums[n - 1] if n else 0)
            assert opnorm(term - coeff) <= 1e-12 * opnorm(report.target)
        assert report.meta["identity_defect"] <= 1e-7 * opnorm(report.target)
