import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import opcalc
from opcalc import (
    Contour,
    Disc,
    HoloFunction,
    Sector,
    bang_shriek,
    compositions,
    dd_contour,
    dd_explicit,
    dd_hermite,
    dd_power,
    dd_recursive,
    exp_function,
    family_from_exponents,
    log_function,
    multinomial_identity,
    power_function,
    resolvent_function,
    simplex_moment_s,
    taylor_series_ad,
)
from opcalc.quadrature import contour_around, iter_simplex_rule
from opcalc.errors import (
    CoincidentNodes,
    ContourTooTight,
    ContourViolation,
    DomainViolation,
    InvalidInput,
    QuadratureNoConvergence,
    ZeroNodeNegativePower,
)

EXP = exp_function()


def disc_nodes(rng, count, radius=0.8, min_gap=0.05):
    while True:
        pts = radius * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
        gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(count, 1)]
        if gaps.size == 0 or gaps.min() > min_gap:
            return pts


class TestRecursive:
    def test_square_two_nodes(self):
        # (f(1) - f(2)) / (1 - 2) = 3 for f = z^2
        assert dd_recursive(power_function(2), [1.0, 2.0]) == pytest.approx(3.0)

    def test_constant_vanishes(self):
        f = HoloFunction(lambda z: np.full(np.shape(z), 2.5 + 0j))
        assert dd_recursive(f, [0.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-14)

    def test_matches_power_closed_form(self):
        rng = np.random.default_rng(0)
        xs = disc_nodes(rng, 3) + 1.2
        assert dd_recursive(power_function(5), xs) == pytest.approx(
            dd_power(xs, 5), rel=1e-10
        )

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentNodes):
            dd_recursive(EXP, [0.5, 0.5 + 1e-12])


class TestExplicit:
    def test_square_two_nodes(self):
        assert dd_explicit(power_function(2), [1.0, 2.0]) == pytest.approx(3.0)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        xs = disc_nodes(rng, 4)
        base = dd_explicit(EXP, xs)
        for perm in ([2, 0, 3, 1], [3, 2, 1, 0]):
            assert dd_explicit(EXP, xs[perm]) == pytest.approx(base, rel=1e-12)

    def test_recursive_agreement(self):
        val_r = dd_recursive(EXP, [0.0, 1.0, 2.0])
        val_e = dd_explicit(EXP, [0.0, 1.0, 2.0])
        assert abs(val_r - val_e) <= 1e-12 * abs(val_e)

    def test_recursive_permutation_stability(self):
        rng = np.random.default_rng(2)
        xs = disc_nodes(rng, 4)
        base = dd_recursive(EXP, xs)
        assert dd_recursive(EXP, xs[::-1]) == pytest.approx(base, rel=1e-10)


class TestContour:
    def test_confluent_derivative(self):
        # first divided difference at a doubled node is the derivative
        assert dd_contour(EXP, [0.0, 0.0]) == pytest.approx(1.0, rel=1e-11)

    def test_cube_at_123(self):
        # monomial sum of degree 1 over three nodes: 1 + 2 + 3
        assert dd_contour(power_function(3), [1.0, 2.0, 3.0]) == pytest.approx(6.0, rel=1e-11)

    def test_explicit_agreement(self):
        xs = [0.1, 0.7, 1.3]
        assert dd_contour(EXP, xs) == pytest.approx(dd_explicit(EXP, xs), rel=1e-10)

    def test_too_tight(self):
        # one node grazes the integration circle at a quadrature angle
        with pytest.raises(ContourTooTight):
            dd_contour(EXP, [0.0, 1.0 - 1e-9], Contour(0.0, 1.0, 16))

    def test_node_outside(self):
        with pytest.raises(ContourViolation):
            dd_contour(EXP, [0.0, 3.0], Contour(0.0, 1.0, 16))

    def test_domain_guard(self):
        f = resolvent_function(1.5)  # disc domain of radius 1.425
        with pytest.raises(ContourViolation):
            dd_contour(f, [0.0, 1.3])  # auto circle pokes out of the disc

    def test_refinement_monotone(self):
        rng = np.random.default_rng(3)
        xs = disc_nodes(rng, 3)
        exact = dd_explicit(EXP, xs)
        c = contour_around(xs)
        errs = [
            abs(dd_contour(EXP, xs, Contour(c.center, c.radius, m), refine=False) - exact)
            for m in (16, 32, 64, 128, 256)
        ]
        floor = 1e-13 * max(abs(exact), 1.0)
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 <= e0 or e1 <= floor
        assert errs[-1] <= floor


class TestHermite:
    def test_confluent_all_zero(self):
        for n in (1, 2, 3):
            got = dd_hermite(EXP, [0.0] * (n + 1))
            assert got == pytest.approx(1.0 / math.factorial(n), rel=1e-9)

    def test_square_two_nodes(self):
        assert dd_hermite(power_function(2), [1.0, 2.0]) == pytest.approx(3.0, rel=1e-11)

    def test_recursive_agreement(self):
        xs = [0.0, 0.5, 1.0]
        assert dd_hermite(EXP, xs) == pytest.approx(dd_recursive(EXP, xs), rel=1e-9)

    def test_domain_violation(self):
        f = HoloFunction(np.exp, Disc(0.0, 1.0), deriv=lambda k, z: np.exp(z))
        with pytest.raises(DomainViolation):
            dd_hermite(f, [0.0, 1.5])

    def test_hull_across_the_log_slit_is_refused(self):
        # every node is in the slit plane, but the hull crosses (-inf, 0]
        calls = []
        log = log_function()
        f = HoloFunction(np.log, log.domain,
                         deriv=lambda k, z: calls.append(k) or log.deriv(k, z))
        with pytest.raises(DomainViolation, match="convex hull"):
            dd_hermite(f, [0.002 - 0.075j, -0.522 - 0.495j, -0.767 + 0.639j])
        assert calls == []

    def test_log_hull_clear_of_the_slit(self):
        # left half-plane nodes on one side of the slit, and a hull around 1
        log = log_function()
        for xs in ([-0.5 + 0.1j, -0.8 + 0.9j, -0.1 + 0.5j], [0.4 - 0.6j, 1.5, 0.6 + 0.7j]):
            assert dd_hermite(log, xs) == pytest.approx(dd_recursive(log, xs), rel=1e-9)

    @pytest.mark.parametrize("delta", [np.pi * (1 - 1e-12), 0.75 * np.pi, np.pi / 3])
    def test_sector_hull_test_matches_dense_segments(self, delta):
        # oracle: the continuous argument along every node-to-node segment,
        # sampled densely and unwrapped from its start, stays in (-delta, delta)
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, 4001)[:, None, None]
        verdicts = set()
        for _ in range(300):
            p = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            args = np.unwrap(np.angle((1 - t) * p[:, None] + t * p[None, :]), axis=0)
            want = bool(np.all(np.abs(args) < delta))
            assert Sector(delta).contains_hull(p) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_handle_without_derivatives_is_refused(self):
        # derivatives come from the handle alone: without ``deriv`` the simplex
        # route and the commutator series refuse before f is evaluated anywhere
        calls = []
        f = HoloFunction(lambda z: calls.append(z) or np.exp(z), Disc(0.0, 4.0), name="bare")
        with pytest.raises(InvalidInput, match="'bare' has no derivative handle"):
            f.derivative(1, 0.1)
        with pytest.raises(InvalidInput, match="'bare' has no derivative handle"):
            dd_hermite(f, [0.1, 0.4, 0.8])
        with pytest.raises(InvalidInput, match="'bare' has no derivative handle"):
            taylor_series_ad(f, 0.1 * np.eye(2), [np.eye(2)])
        assert calls == []
        assert dd_hermite(f, [0.3]) == pytest.approx(np.exp(0.3))  # f itself, n = 0

    def test_eight_nodes_refused_before_integrating(self):
        # the point budget leaves one simplex order at n = 7: no error estimate
        calls = []
        f = HoloFunction(np.exp, deriv=lambda k, z: calls.append(k) or np.exp(z))
        with pytest.raises(QuadratureNoConvergence):
            dd_hermite(f, np.linspace(0.0, 0.7, 8))
        assert calls == []


class TestPowerClosedForm:
    def test_frozen_values(self):
        assert dd_power([1.0, 2.0], 2) == pytest.approx(3.0)
        assert dd_power([1.0, 2.0, 3.0], 1) == 0.0
        assert dd_power([1.0, 2.0], -1) == pytest.approx(-0.5)

    def test_leading_coefficient(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            xs = disc_nodes(rng, n + 1)
            assert dd_power(xs, n) == pytest.approx(1.0, rel=1e-12)

    def test_zero_node_negative(self):
        with pytest.raises(ZeroNodeNegativePower):
            dd_power([0.0, 1.0], -2)

    def test_recursion_sweep(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 3):
            xs = disc_nodes(rng, n + 1) + 1.5
            for N in range(-3, 9):
                closed = dd_power(xs, N)
                via_rec = dd_recursive(power_function(N), xs)
                assert abs(closed - via_rec) <= 1e-10 * max(abs(closed), 1.0)


class TestResolvent:
    # closed form: [x_0..x_n] (lam - z)^-1 = prod_j (lam - x_j)^-1
    def test_frozen(self):
        assert dd_recursive(resolvent_function(3.0), [0.0, 1.0]) == pytest.approx(1.0 / 6.0)

    def test_single_node(self):
        assert dd_explicit(resolvent_function(2.0), [0.5]) == pytest.approx(1.0 / 1.5)

    def test_pole(self):
        # a node on the pole: the integral routes refuse before integrating
        with pytest.raises(ContourViolation):
            dd_contour(resolvent_function(1.0), [0.0, 1.0])
        with pytest.raises(DomainViolation):
            dd_hermite(resolvent_function(1.0), [0.0, 1.0])

    @pytest.mark.parametrize("route", [dd_recursive, dd_explicit])
    @pytest.mark.parametrize("f, xs", [(resolvent_function(1.0), [0.0, 1.0]),
                                       (power_function(-2), [0.0, 1.0, 2.0]),
                                       (log_function(), [1.0, 0.0])])
    def test_node_on_a_pole_is_refused_by_the_sum_routes(self, route, f, xs):
        # f is not finite at a node: a typed error, not NaN, and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainViolation, match="not finite at node"):
                route(f, xs)

    def test_recursive_agreement(self):
        rng = np.random.default_rng(6)
        xs = disc_nodes(rng, 3)
        lam = 3.0
        got = dd_recursive(resolvent_function(lam), xs)
        want = np.prod(1.0 / (lam - xs))
        assert abs(got - want) <= 1e-12 * abs(want)


def t_moment(alpha):
    """Moment of the ordered-coordinate monomial t^alpha over the n-simplex
    (n = len(alpha)): one over the shifted tail partial sums
    (a_n + 1)(a_n + a_{n-1} + 2) ... (|a| + n)."""
    denom, tail = 1, 0
    for j, part in enumerate(reversed(alpha), start=1):
        tail += part
        denom *= tail + j
    return Fraction(1, denom)


class TestSimplexMoments:
    def test_frozen_s(self):
        assert simplex_moment_s((0, 0, 0)) == pytest.approx(0.5)
        assert simplex_moment_s((1, 0)) == pytest.approx(0.5)
        assert simplex_moment_s((1, 1, 1), exact=True) == Fraction(1, 120)

    def test_float_path_meets_the_exact_value(self):
        # every alpha of the combinatorics check, against the exact Fraction
        alphas = [alpha for n in (1, 2, 3, 4) for total in range(0, 7)
                  for alpha in compositions(total, n + 1)]
        for alpha in alphas:
            exact = simplex_moment_s(alpha, exact=True)
            got = simplex_moment_s(alpha)
            assert isinstance(got, float)
            assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact

    def test_import_leaves_scipy_special_out(self):
        src = os.path.dirname(os.path.dirname(opcalc.__file__))
        code = f"import sys; sys.path.insert(0, {src!r}); import opcalc; " \
               "print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    def test_s_exactness(self):
        for n in range(1, 5):
            for total in range(7):
                for alpha in compositions(total, n + 1):
                    val = simplex_moment_s(alpha, exact=True)
                    fact = 1
                    for part in alpha:
                        fact *= math.factorial(part)
                    assert val * math.factorial(total + n) == fact

    def test_t_two_expressions_agree(self):
        # product of tail partial sums vs (|a|+n+1) a! / a?! with a = (a0, a');
        # the value cannot depend on the padding entry a0
        for a0 in (0, 2, 5):
            for aprime in [(1,), (2, 1), (1, 2), (0, 3), (2, 0, 1)]:
                n = len(aprime)
                alpha = (a0,) + aprime
                fact = 1
                for part in alpha:
                    fact *= math.factorial(part)
                stated = Fraction((sum(alpha) + n + 1) * fact, int(bang_shriek(alpha)[1]))
                assert t_moment(aprime) == stated

    def test_quadrature_agrees_with_closed_form(self):
        # independent oracle: integrate monomials with the simplex rule itself
        s, w = (np.concatenate(part) for part in zip(*iter_simplex_rule(3, 12)))
        for alpha in [(0, 0, 0, 0), (1, 0, 2, 0), (2, 1, 1, 1)]:
            quad = float(np.sum(w * np.prod(s ** np.asarray(alpha), axis=1)))
            assert quad == pytest.approx(simplex_moment_s(alpha), rel=1e-12)
        t = np.cumsum(s[:, :0:-1], axis=1)[:, ::-1]  # t_j = s_j + ... + s_n
        for alpha in [(1, 0, 0), (1, 2, 0), (2, 1, 1)]:
            quad = float(np.sum(w * np.prod(t ** np.asarray(alpha), axis=1)))
            assert quad == pytest.approx(float(t_moment(alpha)), rel=1e-12)


class TestBangShriek:
    def test_empty(self):
        assert bang_shriek(()) == (1.0, 1.0)

    def test_frozen_pair(self):
        assert bang_shriek((1, 2)) == (20.0, 30.0)

    def test_single_part_symmetric(self):
        # one part: both products collapse to k! * (k + 1)
        for k in (0, 1, 2, 3, 5):
            expected = float(math.factorial(k) * (k + 1))
            assert bang_shriek((k,)) == (expected, expected)

    def test_reversal_swaps(self):
        alpha = (2, 0, 3)
        fwd, bwd = bang_shriek(alpha)
        rfwd, rbwd = bang_shriek(alpha[::-1])
        assert (fwd, bwd) == (rbwd, rfwd)


@pytest.mark.parametrize("call", [
    lambda: simplex_moment_s((1.5, 2)),
    lambda: simplex_moment_s((1, 2.5), exact=True),
    lambda: simplex_moment_s(()),
    lambda: bang_shriek((2, 0.5)),
    lambda: multinomial_identity((1.5, 1), 4),
    lambda: multinomial_identity((), 3, "="),
    lambda: multinomial_identity((), 3, "<="),
    lambda: family_from_exponents([1.5, 1]),
], ids=["moment-fractional", "moment-exact-fractional", "moment-empty",
        "bang-shriek-fractional", "multinomial-fractional", "multinomial-empty-eq",
        "multinomial-empty-le", "family-fractional"])
def test_multiindex_inputs_refused_typed(call):
    # a fractional part used to be truncated by int(), an empty one to end
    # in a math domain error
    with pytest.raises(InvalidInput):
        call()


class TestMultinomial:
    def test_frozen(self):
        assert multinomial_identity((0,), 2, "<=") == (3, 3)
        assert multinomial_identity((1,), 3, "<=") == (6, 6)
        assert multinomial_identity((1, 0), 2, "=") == (3, 3)

    def test_exhaustive(self):
        for n in range(1, 5):
            for btot in range(5):
                for beta in compositions(btot, n):
                    for m in range(btot, 9):
                        for mode in ("<=", "="):
                            brute, closed = multinomial_identity(beta, m, mode)
                            assert brute == closed


class TestNearCoincidence:
    def test_integral_routes_stay_consistent(self):
        # just above the coincidence gate the recursion loses digits by
        # design; the two integral routes must still agree with each other
        h = 1e-5
        xs = [0.3, 0.3 + h, 0.9]
        via_contour = dd_contour(EXP, xs)
        via_simplex = dd_hermite(EXP, xs)
        assert abs(via_contour - via_simplex) <= 1e-8 * abs(via_contour)
        # and with the exactly confluent limit
        limit = dd_contour(EXP, [0.3, 0.3, 0.9])
        assert abs(via_contour - limit) <= 1e-4 * abs(limit)


class TestFourWay:
    @pytest.mark.parametrize("fname", ["exp", "pow5", "res3"])
    def test_agreement(self, fname):
        f = {"exp": EXP, "pow5": power_function(5), "res3": resolvent_function(3.0)}[fname]
        rng = np.random.default_rng(hash(fname) % 2**32)
        for n in (1, 2, 3, 4):
            xs = disc_nodes(rng, n + 1)
            vals = [
                dd_recursive(f, xs),
                dd_explicit(f, xs),
                dd_contour(f, xs),
                dd_hermite(f, xs),
            ]
            scale = max(max(abs(v) for v in vals), 1e-300)
            spread = max(abs(v - w) for v in vals for w in vals)
            assert spread / scale <= 1e-8
