import itertools
import math
import sys
import threading

import numpy as np
import pytest

from opcalc import (
    apply_function,
    apply_via_eig,
    contour_around,
    dd_apply,
    dyson_exp,
    dyson_terms_simplex,
    exp_function,
    gen_matrix,
    matrix_exp,
    named_function,
    newton_interpolate,
    newton_recursion_check,
    opnorm,
    power_function,
    rel_err,
    taylor_expand,
    taylor_series_ad,
)
from opcalc import funcalc, ncseries, quadrature
from opcalc.core import as_matrix, eigen_decompose
from opcalc.errors import ConvergenceThresholdExceeded, QuadratureNoConvergence
from opcalc.quadrature import grundmann_moller_integrate

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


@pytest.fixture
def circle_checks(monkeypatch):
    """The points of every circle ``contour_around`` builds and checks."""
    calls = []
    inner = quadrature._torus_around

    def counting(f, point_sets, domains, contours):
        calls.append(point_sets)
        return inner(f, point_sets, domains, contours)

    monkeypatch.setattr(quadrature, "_torus_around", counting)
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
    def test_one_quadrature_at_every_order(self, quadratures, circle_checks, n):
        # every term and the target f(a_n) from one f(B) on one checked circle
        mats = [gen_matrix("random", 2, 70 + j) for j in range(n + 1)]
        report = newton_interpolate(EXP, mats)
        assert len(quadratures) == 1 and len(circle_checks) == 1
        assert len(report.partial_sums) == n + 1
        assert rel_err(report.target, apply_function(EXP, mats[-1])) <= 1e-13


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

    def test_two_quadratures_on_one_checked_circle(self, quadratures, circle_checks):
        # [a_0..a_n] and [a_0..a_{n+1}] from one f(B), the swapped pairing
        # from its own, on the circle checked once around every node
        mats = [gen_matrix("random", 2, 40 + j) for j in range(4)]
        bs = [gen_matrix("random", 2, 50 + j) for j in range(2)]
        newton_recursion_check(EXP, mats, bs)
        assert len(set(quadratures)) == 1 and len(quadratures) == 2
        assert len(circle_checks) == 1


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
    def test_one_quadrature_at_every_order(self, quadratures, N):
        # terms, explicit remainders and the target f(a + b) from one f(B)
        a = gen_matrix("random", 2, 80)
        b = 0.05 * gen_matrix("random", 2, 81)
        report = taylor_expand(EXP, a, b, N)
        assert len(quadratures) == 1
        assert rel_err(report.target, apply_function(EXP, a + b)) <= 1e-13
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
        want = np.exp(c) / math.factorial(2) * (b1 @ b2)
        for got in taylor_series_ad(EXP, a, [b1, b2]):
            assert rel_err(got, want) <= 1e-12

    def test_polynomial_truncates_exactly(self):
        a = 0.3 * gen_matrix("random", 2, 82)
        b = 0.3 * gen_matrix("random", 2, 83)
        f = power_function(3)
        want = dd_apply(f, [a, a], [b])
        for got in taylor_series_ad(f, a, [b]):
            assert rel_err(got, want) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_sides_and_direct(self, n):
        a = 0.4 * gen_matrix("random", 2, 84)
        bs = [0.4 * gen_matrix("random", 2, 85 + j) for j in range(n)]
        left, right = taylor_series_ad(EXP, a, bs)
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
        k = ["left-f", "right-f"].index(side)
        total = np.zeros((2, 2), dtype=complex)
        for n in range(7):
            total = total + taylor_series_ad(EXP, a, [b] * n)[k]
        target = matrix_exp(a + b)
        # truncation after order 6 leaves ~|b|^7 e / 7!
        assert rel_err(total, target) <= 5e-9

    def test_one_derivative_quadrature_per_shell(self, monkeypatch, circle_checks):
        # both sums read the same f^(n+s)(a): each derivative order is
        # integrated once, every one on the circle checked once for the series
        orders = []
        inner = ncseries._f_bidiagonal

        def counted(f, diag, sup, c, known):
            orders.append(f.name)
            return inner(f, diag, sup, c, known)

        monkeypatch.setattr(ncseries, "_f_bidiagonal", counted)
        a = 0.4 * gen_matrix("random", 2, 84)
        taylor_series_ad(EXP, a, [0.4 * gen_matrix("random", 2, 85)])
        assert len(orders) > 3 and len(set(orders)) == len(orders)
        assert len(circle_checks) == 1

    def test_last_shell_reached_raises(self, monkeypatch):
        # a generic exp case needs 10-15 shells; shells 0..2 leave the series truncated
        monkeypatch.setattr(ncseries, "AD_SHELLS", 2)
        a = 0.4 * gen_matrix("random", 2, 84)
        with pytest.raises(QuadratureNoConvergence, match="up to size 2"):
            taylor_series_ad(EXP, a, [0.4 * gen_matrix("random", 2, 85)])

    def test_shells_that_grow_then_fall_converge(self):
        # |ad_a^s(b)| = 8^s, so the shells e^4 8^s / (s+1)! grow up to s = 6
        # and then fall; the pairing [a, a] exp (b) is the divided difference
        # (e^4 - e^-4) / 8 off the diagonal
        a = np.diag([4.0, -4.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        want = (np.exp(4.0) - np.exp(-4.0)) / 8.0 * b
        for got in taylor_series_ad(EXP, a, [b]):
            assert rel_err(got, want) <= 1e-11

    def test_divergent_series_raises(self):
        # |ad_a^s(b)| = 2^s and log^(1+s)(1) = (-1)^s s!, so the shells grow like 2^s / (s+1)
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(QuadratureNoConvergence, match="up to size 40"):
            taylor_series_ad(named_function("log"), np.diag([1.0, 3.0]), [b])


class TestCirclesSizedForTheFunction:
    """The expansions build their circles from the handle: they accept at
    fewer nodes than on the tight circle R0 = 1.1 s + 0.1 (1 + s) of the
    points alone, within 10 times its error."""

    @staticmethod
    def run(monkeypatch, expansion, tight: bool):
        """``expansion()`` and the most nodes any of its contour quadratures
        accepted, on the tight circles when ``tight``."""
        nodes = []
        inner = funcalc.contour_quadrature

        def counting(batch_fn, center, radius, **kwargs):
            stats = {}
            value = inner(batch_fn, center, radius, **{**kwargs, "stats": stats})
            nodes.append(stats["contour_nodes"])
            return value

        with monkeypatch.context() as m:
            m.setattr(funcalc, "contour_quadrature", counting)
            if tight:
                m.setattr(ncseries, "contour_around",
                          lambda points, f=None, contour=None: contour_around(points,
                                                                              contour=contour))
            return expansion(), max(nodes)

    def both(self, monkeypatch, expansion):
        return [self.run(monkeypatch, expansion, tight) for tight in (False, True)]

    @pytest.mark.parametrize("name", ["exp", "resolvent:3,0"])
    def test_newton_interpolate(self, monkeypatch, name):
        f = named_function(name)
        mats = [gen_matrix("random", 3, j) for j in range(3)]
        want = apply_via_eig(f, mats[-1])
        (wide, wide_nodes), (tight, tight_nodes) = self.both(
            monkeypatch, lambda: newton_interpolate(f, mats))
        assert wide_nodes < tight_nodes
        assert rel_err(wide.target, want) <= 10.0 * rel_err(tight.target, want)
        assert (rel_err(wide.partial_sums[-1], want)
                <= 10.0 * rel_err(tight.partial_sums[-1], want))

    def test_newton_recursion_check(self, monkeypatch):
        mats = [gen_matrix("random", 2, 40 + j) for j in range(4)]
        bs = [gen_matrix("random", 2, 50 + j) for j in range(2)]
        (wide, wide_nodes), (_, tight_nodes) = self.both(
            monkeypatch, lambda: newton_recursion_check(EXP, mats, bs))
        assert wide_nodes < tight_nodes and wide <= 1e-13

    @pytest.mark.parametrize("name", ["exp", "resolvent:3,0"])
    def test_taylor_expand(self, monkeypatch, name):
        # only the quadrature moves: c2 is still read on the tight circle
        f = named_function(name)
        a, b = gen_matrix("random", 3, 0), 0.1 * gen_matrix("random", 3, 1)
        want = apply_via_eig(f, a + b)
        (wide, wide_nodes), (tight, tight_nodes) = self.both(
            monkeypatch, lambda: taylor_expand(f, a, b, N=8))
        assert wide_nodes < tight_nodes
        assert wide.meta["c2"] == tight.meta["c2"]
        assert rel_err(wide.target, want) <= 10.0 * rel_err(tight.target, want)
        assert (rel_err(wide.partial_sums[-1], want)
                <= 10.0 * rel_err(tight.partial_sums[-1], want))

    def test_taylor_series_ad(self, monkeypatch):
        # the pairing [a, a] exp (b) in the eigenbasis of a: the divided
        # differences of exp at its eigenvalues times b there (Daleckii-Krein)
        a, b = 0.4 * gen_matrix("random", 2, 84), 0.4 * gen_matrix("random", 2, 85)
        lam, v, vinv = eigen_decompose(a)
        dd = (np.exp(lam)[:, None] - np.exp(lam)[None, :]) / (lam[:, None] - lam[None, :]
                                                              + np.eye(2))
        np.fill_diagonal(dd, np.exp(lam))
        want = v @ (dd * (vinv @ b @ v)) @ vinv
        (wide, wide_nodes), (tight, tight_nodes) = self.both(
            monkeypatch, lambda: taylor_series_ad(EXP, a, [b]))
        assert wide_nodes < tight_nodes
        for got, ref in zip(wide, tight):
            assert rel_err(got, want) <= 10.0 * rel_err(ref, want)


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

    def test_target_is_pade_exponential(self, monkeypatch):
        # the target is the corner block of the one exponential of B
        a = gen_matrix("random", 2, 99)
        b = 0.1 * gen_matrix("random", 2, 100)
        calls = []
        monkeypatch.setattr(ncseries, "matrix_exp", lambda m: calls.append(m) or matrix_exp(m))
        report = dyson_exp(a, b, N=2)
        assert len(calls) == 1
        assert rel_err(report.target, matrix_exp(a + b)) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_block_terms_match_simplex_quadrature(self, d, N):
        # orders 4 and 5 integrate on the 5- and 6-simplex, which a product
        # rule of q^n points cannot reach at this accuracy
        a = gen_matrix("random", d, 101 + N)
        b = 0.25 * gen_matrix("random", d, 105 + N)
        report = dyson_exp(a, b, N=N)
        terms, remainder = dyson_terms_simplex(a, b, N)
        for n, term in enumerate(terms, start=1):
            block = report.partial_sums[n] - report.partial_sums[n - 1]
            assert opnorm(block - term) <= 1e-12
        # target minus the last partial sum is the block remainder up to the
        # identity defect
        closing = report.target - report.partial_sums[-1]
        assert opnorm(closing - remainder) <= 1e-12
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

            return v @ grundmann_moller_integrate(integrand, order) @ vinv

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


class TestOneResolventTablePerSeries:
    """Every shell of a commutator series reads one table of resolvents of a,
    built in the call: the bits of a per-shell build, and no state shared
    between calls or threads."""

    CASES = [  # (f, a, bs)
        (EXP, 0.4 * gen_matrix("random", 2, 84), [0.4 * gen_matrix("random", 2, 85)]),
        (EXP, 0.3 * gen_matrix("random", 3, 86), [0.2 * gen_matrix("random", 3, 87 + j) for j in range(2)]),
        (named_function("log"), np.eye(2) + 0.2 * gen_matrix("random", 2, 90),
         [0.1 * gen_matrix("random", 2, 91)]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_equals_the_per_shell_build(self, case, monkeypatch):
        f, a, bs = self.CASES[case]
        shared = taylor_series_ad(f, a, bs)
        inner, tables = ncseries._f_bidiagonal, []

        def per_shell(g, diag, sup, c, known):
            tables.append(known)
            return inner(g, diag, sup, c, None)

        monkeypatch.setattr(ncseries, "_f_bidiagonal", per_shell)
        fresh = taylor_series_ad(f, a, bs)
        assert len(tables) > 3 and all(t is tables[0] for t in tables)
        assert [x.tobytes() for x in shared] == [x.tobytes() for x in fresh]

    def test_each_node_is_inverted_once_per_call(self, monkeypatch):
        f, a, bs = self.CASES[0]
        inner, batches = funcalc._resolvents, []
        monkeypatch.setattr(funcalc, "_resolvents",
                            lambda zeta, m: batches.append(zeta.tobytes()) or inner(zeta, m))
        taylor_series_ad(f, a, bs)
        first = len(batches)
        assert first > 0 and len(set(batches)) == first
        taylor_series_ad(f, a, bs)  # nothing kept from the first call
        assert batches[first:] == batches[:first]

    def test_two_threads_return_the_serial_bits(self):
        f, a, bs = self.CASES[1]
        m = gen_matrix("random", 2, 0)
        want_series = [x.tobytes() for x in taylor_series_ad(f, a, bs)]
        want_apply = apply_function(exp_function(), m).tobytes()
        got, errors = {"series": [], "apply": []}, []

        def run(name, call, repeats):
            try:
                for _ in range(repeats):
                    got[name].append(call())
            except Exception as exc:  # reported below, so the join cannot hide it
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(
                    "series", lambda: [x.tobytes() for x in taylor_series_ad(f, a, bs)], 10)),
                threading.Thread(target=run, args=(
                    "apply", lambda: apply_function(exp_function(), m).tobytes(), 100)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert got["series"] == [want_series] * 10
        assert got["apply"] == [want_apply] * 100
