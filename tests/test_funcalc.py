import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc import (
    CommutingTuple,
    Contour,
    Disc,
    Entire,
    HoloFunction,
    MultivariateFunction,
    apply_function,
    apply_via_eig,
    bidiagonal,
    contour_around,
    dd_contour,
    dd_apply,
    dd_recursive,
    dd_tensor,
    exp_function,
    funcalc_elementary,
    funcalc_n,
    gen_matrix,
    matrix_exp,
    named_function,
    newton_interpolate,
    opnorm,
    pair,
    power_function,
    rel_err,
    resolvent_function,
    taylor_expand,
)
from opcalc.errors import (
    ArityCap,
    ContourViolation,
    DimensionMismatch,
    InvalidInput,
    NonCommutingTuple,
    QuadratureNoConvergence,
)
from opcalc import cli, funcalc
from opcalc.core import matrix_to_json
from opcalc.quadrature import circle_points, contour_quadrature
from opcalc.verify import IDENTITIES

EXP = exp_function()
RULE = IDENTITIES["tensor-product-rule"]


def one_variable(f):
    """A univariate handle as the one-variable function funcalc_n takes."""
    return MultivariateFunction(f, (f.domain,))


def circle_for(*mats, nodes=16):
    """The automatic circle around the union of the spectra, starting at ``nodes``."""
    c = contour_around(np.concatenate([np.linalg.eigvals(m) for m in mats]))
    return Contour(c.center, c.radius, nodes)


def counting(h, sizes):
    """``h`` with the same domain and derivatives, appending each argument's size to ``sizes``."""
    def fn(z):
        sizes.append(np.size(z))
        return h(z)
    return HoloFunction(fn, h.domain, h.deriv, h.name)


def normal_matrix(seed, eigs):
    """U diag(eigs) U^H for a seeded unitary U."""
    rng = np.random.default_rng(seed)
    d = len(eigs)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (u * np.asarray(eigs)) @ u.conj().T


def wide_circles(tup, scale=2.0):
    """One circle per matrix at ``scale`` times the automatic radius: fewer nodes per axis."""
    return [Contour(c.center, scale * c.radius)
            for c in (contour_around(np.linalg.eigvals(m)) for m in tup)]


class TestContourType:
    def test_validation(self):
        with pytest.raises(ContourViolation):
            Contour(0.0, -1.0)
        with pytest.raises(ContourViolation):
            Contour(0.0, 1.0, nodes=8)
        with pytest.raises(ContourViolation):
            Contour(0.0, 1.0, nodes=24)  # not a power of two

    @pytest.mark.parametrize("nodes, match", [
        (16.0, "contour nodes must be an integer, got 16.0"),
        ("16", "contour nodes must be an integer"),
        (np.float64(32.0), "contour nodes must be an integer"),
        (8192, "contour nodes 8192 exceed 4096, half of the 8192 a circle refines to"),
        (2**30, "contour nodes 1073741824 exceed 4096"),
    ], ids=["float", "str", "numpy-float", "cap", "2^30"])
    def test_node_count_refused_typed(self, nodes, match):
        # 16.0 used to escape as an untyped TypeError, and 2^30 used to pass,
        # leaving the first level to build 2^30 nodes
        with pytest.raises(ContourViolation, match=match):
            Contour(0.0, 2.0, nodes)

    @pytest.mark.parametrize("center, radius, named", [
        (0, "1", "contour radius must be a finite positive number, got '1'"),
        ("x", 1.0, "contour center must be a finite number, got 'x'"),
        (0, 1j, "contour radius"),
        (0, None, "contour radius"),
        ([0.5, 0.0], 1.0, "contour center"),
        (None, 1.0, "contour center"),
        (0, 10**400, "contour radius"),
        (10**400, 1.0, "contour center"),
    ], ids=["radius-str", "center-str", "radius-complex", "radius-none", "center-list",
            "center-none", "radius-past-float-range", "center-past-float-range"])
    def test_a_center_or_radius_that_is_not_a_number_is_refused_naming_it(self, center, radius,
                                                                          named):
        # each escaped as a bare TypeError (or, past the float range, an
        # OverflowError) from math.isfinite or cmath.isfinite
        with pytest.raises(ContourViolation, match=named):
            Contour(center, radius)

    @pytest.mark.parametrize("nodes", [16.0, 8192])
    def test_node_count_refused_before_the_integrand_is_called(self, nodes):
        # 8192 used to pass, so one level of 8192 nodes was evaluated with no
        # second level to compare it with
        calls = []
        with pytest.raises(ContourViolation, match="contour nodes"):
            apply_function(counting(EXP, calls), np.eye(2), Contour(0.0, 2.0, nodes))
        assert calls == []

    @pytest.mark.parametrize("nodes", [np.int64(32), np.int32(4096), 4096])
    def test_integer_node_counts_up_to_half_the_cap(self, nodes):
        a = np.diag([0.25, -0.5])
        got = apply_function(EXP, a, Contour(0.0, 2.0, nodes))
        assert rel_err(got, np.diag(np.exp([0.25, -0.5]))) <= 1e-12

    def test_contour_for_point_spectrum(self):
        c = circle_for(np.zeros((2, 2)))
        assert c.center == 0.0
        assert c.radius == pytest.approx(0.1)

    def test_contour_for_two_eigenvalues(self):
        c = circle_for(np.diag([-1.0, 1.0]))
        assert c.center == pytest.approx(0.0)
        assert c.radius == pytest.approx(1.3)

    def test_margin_holds(self):
        a = gen_matrix("random", 4, 0)
        c = circle_for(a)
        lam = np.linalg.eigvals(a)
        assert np.all(c.radius - np.abs(lam - c.center) >= 0.05 * c.radius)


class TestCommutingTuple:
    def test_accepts_commuting(self):
        CommutingTuple(gen_matrix("commuting-pair", 3, 1))

    def test_rejects_noncommuting(self):
        with pytest.raises(NonCommutingTuple):
            CommutingTuple([gen_matrix("random", 3, 2), gen_matrix("random", 3, 3)])

    def test_empty_tuple_is_invalid_input(self):
        # an empty tuple is refused like every other empty matrix list
        with pytest.raises(InvalidInput):
            CommutingTuple([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            CommutingTuple([np.eye(2), np.eye(3)])


class TestFuncalcN:
    def test_exp_diagonal(self):
        got = funcalc_n(one_variable(EXP), (np.diag([0.0, 1.0]),))
        assert rel_err(got, np.diag([1.0, np.e])) < 1e-11

    def test_unit_function(self):
        one = MultivariateFunction(lambda z1, z2: np.ones_like(z1), (Entire(), Entire()))
        tup = CommutingTuple(gen_matrix("commuting-pair", 2, 4))
        assert rel_err(funcalc_n(one, tup), np.eye(2)) < 1e-11

    def test_product_function(self):
        f = MultivariateFunction(lambda z1, z2: z1 * z2, (Entire(), Entire()))
        mats = gen_matrix("commuting-pair", 3, 5)
        got = funcalc_n(f, CommutingTuple(mats))
        assert rel_err(got, mats[0] @ mats[1]) < 1e-10

    def test_polynomial_rule(self):
        # multi-term polynomial evaluates to the same monomial combination
        p = MultivariateFunction(
            lambda z1, z2: 2.0 + z1**2 - 0.5 * z1 * z2 + 0.3 * z2**3, (Entire(), Entire())
        )
        a1, a2 = gen_matrix("commuting-pair", 3, 9)
        got = funcalc_n(p, CommutingTuple([a1, a2]))
        eye = np.eye(3, dtype=complex)
        want = (
            2.0 * eye
            + a1 @ a1
            - 0.5 * a1 @ a2
            + 0.3 * a2 @ a2 @ a2
        )
        assert rel_err(got, want) < 1e-9

    def test_arity_cap(self):
        f = MultivariateFunction(lambda *z: np.ones_like(z[0]), (Entire(),) * 5)
        eye = np.eye(2)
        with pytest.raises(ArityCap):
            funcalc_n(f, CommutingTuple([eye * k for k in range(1, 6)]))

    def test_commuting_triple(self):
        h = gen_matrix("hermitian", 2, 50)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([0.5 * h, 0.3 * h @ h + 0.1 * eye, h - 0.2 * eye])
        f = MultivariateFunction(lambda a, b, c: a * b * c, (Entire(),) * 3)
        got = funcalc_n(f, tup)
        assert rel_err(got, tup[0] @ tup[1] @ tup[2]) <= 1e-9

    def test_block_budget_independent(self, monkeypatch):
        # tiling the grid into many blocks must not change the value
        h = gen_matrix("hermitian", 2, 51)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([0.5 * h, 0.3 * h @ h + 0.1 * eye, h - 0.2 * eye])
        f = MultivariateFunction(lambda a, b, c: np.exp(a) * b * c, (Entire(),) * 3)
        whole = funcalc_n(f, tup)
        monkeypatch.setattr(funcalc, "BLOCK", 512)
        blocked = funcalc_n(f, tup)
        assert rel_err(blocked, whole) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_evaluation_exceeds_the_block(self, n, monkeypatch):
        # at 4x the automatic radius a polynomial converges at 32 nodes; with
        # 3 * 8**(n-1) points a block holds whole trailing axes, a clipped run
        # of the next axis and single nodes before it
        h = gen_matrix("hermitian", 2, 53)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([h + k * eye for k in range(n)])
        sizes = []

        def fn(*zs):
            sizes.append(np.broadcast(*zs).size)
            return math.prod(1 + z for z in zs)

        f = MultivariateFunction(fn, (Entire(),) * n)
        whole = funcalc_n(f, tup, wide_circles(tup, 4.0))
        assert max(sizes) == min(32**n, funcalc.BLOCK)
        sizes.clear()
        monkeypatch.setattr(funcalc, "BLOCK", 3 * 8 ** (n - 1))
        blocked = funcalc_n(f, tup, wide_circles(tup, 4.0))
        assert max(sizes) <= funcalc.BLOCK
        assert rel_err(blocked, whole) <= 1e-12
        assert rel_err(blocked, functools.reduce(np.matmul, [eye + m for m in tup])) <= 1e-9

    def test_three_variables_at_128_nodes_hold_one_cache_sized_block(self):
        # levels of 64 and 128 nodes per axis agree on a polynomial; the
        # 2^21-point level is evaluated and contracted one BLOCK at a time
        # (8.3 MB traced), where a single 2^22-point block held 48 MB
        h = gen_matrix("hermitian", 2, 53)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([h + k * eye for k in range(3)])
        f = MultivariateFunction(lambda a, b, c: (1 + a) * (1 + b) * (1 + c), (Entire(),) * 3)
        cs = [dataclasses.replace(c, nodes=64) for c in wide_circles(tup)]
        tracemalloc.start()
        try:
            got = funcalc_n(f, tup, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rel_err(got, functools.reduce(np.matmul, [eye + m for m in tup])) <= 1e-9
        assert peak < 16 * 2**20

    def test_four_variables(self):
        h = 0.5 * gen_matrix("hermitian", 2, 52)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([h, 0.3 * h @ h + 0.1 * eye, h - 0.2 * eye, eye - h])
        f = MultivariateFunction(lambda a, b, c, e: np.exp(a) * b * np.exp(c) * e,
                                 (Entire(),) * 4)
        got = funcalc_n(f, tup, wide_circles(tup))
        want = matrix_exp(tup[0]) @ tup[1] @ matrix_exp(tup[2]) @ tup[3]
        assert rel_err(got, want) <= 1e-9

    def test_output_that_does_not_span_the_grid(self):
        # f ignores z2, so it returns one column that broadcasts over the grid
        a1, a2 = gen_matrix("commuting-pair", 3, 6)
        f = MultivariateFunction(lambda z1, z2: np.exp(z1), (Entire(), Entire()))
        got = funcalc_n(f, CommutingTuple([a1, a2]))
        assert rel_err(got, matrix_exp(a1)) <= 1e-9

    def test_eig_oracle(self):
        for k in range(5):
            a = gen_matrix("diagonalizable", 3, 10 + k)
            for f in (EXP, resolvent_function(3.0)):
                assert rel_err(funcalc_n(one_variable(f), (a,)), apply_via_eig(f, a)) <= 1e-9

    def test_homomorphism(self):
        f = MultivariateFunction(lambda z1, z2: np.exp(z1) * z2, (Entire(), Entire()))
        g = MultivariateFunction(lambda z1, z2: z1 + 2.0 * z2, (Entire(), Entire()))
        fg = MultivariateFunction(lambda z1, z2: f(z1, z2) * g(z1, z2), (Entire(), Entire()))
        tup = CommutingTuple(gen_matrix("commuting-pair", 3, 6))
        lhs = funcalc_n(fg, tup)
        rhs = funcalc_n(f, tup) @ funcalc_n(g, tup)
        assert rel_err(lhs, rhs) <= 1e-8

    def test_linearity(self):
        # identical quadrature paths: start high so the first doubling converges
        a = gen_matrix("random", 3, 7)
        c = [circle_for(a, nodes=128)]
        f = EXP
        g = resolvent_function(3.0)
        h = HoloFunction(lambda z: 2.0 * np.exp(z) - 0.5 / (3.0 - z), Disc(0.0, 2.8))
        combo = funcalc_n(one_variable(h), (a,), c)
        parts = (2.0 * funcalc_n(one_variable(f), (a,), c)
                 - 0.5 * funcalc_n(one_variable(g), (a,), c))
        assert rel_err(combo, parts) < 1e-12

    @pytest.mark.parametrize("nodes", [256, 512, 4096])
    def test_a_circle_past_half_the_axis_cap_is_refused_before_f_is_called(self, nodes):
        # every axis doubles up to MAX_AXIS_NODES: a circle starting past half
        # of it used to evaluate one whole level of nodes^n points, with no
        # second level to compare it with
        sizes = []
        f = MultivariateFunction(lambda z1, z2: sizes.append(np.size(z1)) or np.exp(z1 + z2),
                                 (Entire(), Entire()))
        tup = CommutingTuple([np.diag([0.5, 0.25]), np.diag([0.25, -0.5])])
        big = Contour(0.0, 2.0, nodes)
        for cs in ([big, big], [big, None], [None, big]):
            with pytest.raises(ContourViolation, match=f"contour nodes {nodes} exceed 128, "
                                                       "half of the MAX_AXIS_NODES = 256"):
                funcalc_n(f, tup, cs)
        assert sizes == []

    def test_a_circle_at_half_the_axis_cap_runs(self):
        f = MultivariateFunction(lambda z1, z2: np.exp(z1 + z2), (Entire(), Entire()))
        tup = CommutingTuple([np.diag([0.5, 0.25]), np.diag([0.25, -0.5])])
        got = funcalc_n(f, tup, [Contour(0.0, 2.0, 128)] * 2)
        assert rel_err(got, np.diag(np.exp([0.75, -0.25]))) <= 1e-12

    def test_contour_violation(self):
        a = np.diag([0.0, 5.0])
        with pytest.raises(ContourViolation):
            funcalc_n(one_variable(EXP), (a,), [Contour(0.0, 1.0)])

    @pytest.mark.parametrize("route", ["apply_function", "funcalc_n", "dd_tensor", "dd_apply"])
    def test_every_route_refuses_a_circle_that_misses_the_spectrum(self, route):
        # the routes that take a circle: a funcalc job file can give one
        a, c = np.diag([0.0, 5.0]), Contour(0.0, 1.0)
        calls = {
            "apply_function": lambda: apply_function(EXP, a, c),
            "funcalc_n": lambda: funcalc_n(one_variable(EXP), (a,), [c]),
            "dd_tensor": lambda: dd_tensor(EXP, [a, a], c),
            "dd_apply": lambda: dd_apply(EXP, [a, a], [a], c),
        }
        with pytest.raises(ContourViolation, match="enclose"):
            calls[route]()

    def test_continuity_bound(self):
        # resolvent-identity bound: |f(a)-f(a')| <= eps * sup-integral of
        # |f| |R_a| |R_a'| on the shared contour
        a = gen_matrix("random", 3, 8)
        eps = 1e-4
        da = gen_matrix("random", 3, 9)
        a2 = a + eps * da
        c = circle_for(a, a2)
        got = opnorm(apply_function(EXP, a, c) - apply_function(EXP, a2, c))
        zeta, w = circle_points(c.center, c.radius, 256)
        eye = np.eye(3)
        ra = np.linalg.inv(zeta[:, None, None] * eye - a)
        rb = np.linalg.inv(zeta[:, None, None] * eye - a2)
        bound = float(
            np.sum(
                np.abs(w)
                * np.abs(np.exp(zeta))
                * np.linalg.norm(ra, ord=2, axis=(1, 2))
                * np.linalg.norm(rb, ord=2, axis=(1, 2))
            )
        )
        assert got <= eps * opnorm(da) * bound * 1.01


class TestElementary:
    def test_inverse_exponentials(self):
        x = gen_matrix("hermitian", 2, 10)
        tup = CommutingTuple([x, -x])
        got, joint = funcalc_elementary([EXP, EXP], tup, check_tol=RULE)
        assert rel_err(got, np.eye(2)) < 1e-8
        assert rel_err(joint, np.eye(2)) < 1e-8

    def test_identity_functions(self):
        mats = gen_matrix("commuting-pair", 2, 11)
        got, joint = funcalc_elementary([power_function(1), power_function(1)],
                                        CommutingTuple(mats), check_tol=RULE)
        assert rel_err(got, mats[0] @ mats[1]) < 1e-8
        assert rel_err(joint, mats[0] @ mats[1]) < 1e-8

    def test_resolvent_rule(self):
        mats = gen_matrix("commuting-pair", 3, 12)
        lam = 3.0
        fs = [resolvent_function(lam), resolvent_function(lam)]
        got, _ = funcalc_elementary(fs, CommutingTuple(mats), check_tol=RULE)
        eye = np.eye(3)
        oracle = np.linalg.inv(lam * eye - mats[0]) @ np.linalg.inv(lam * eye - mats[1])
        assert rel_err(got, oracle) < 1e-9

    def test_three_variables_in_the_leading_axis_loop(self, monkeypatch):
        # past 16 nodes per axis the leading axis is split into runs (4 nodes
        # at 32, single nodes at 64) next to whole trailing axes; on the
        # circles widened for exp and id the tuple converges at 32
        monkeypatch.setattr(funcalc, "BLOCK", 4096)
        h = 0.1 * gen_matrix("hermitian", 2, 51)
        eye = np.eye(2, dtype=complex)
        tup = CommutingTuple([0.5 * h, 0.3 * h @ h + 0.1 * eye, h - 0.2 * eye])
        got, joint = funcalc_elementary([EXP, power_function(1), EXP], tup, check_tol=RULE)
        want = matrix_exp(tup[0]) @ tup[1] @ matrix_exp(tup[2])
        assert rel_err(got, want) < 1e-9
        assert rel_err(joint, want) < 1e-9


class TestCirclesSizedForTheFunction:
    """Automatic circles widen for the handle they are built for."""

    TRIPLE = (["resolvent:3,0", "exp", "pow:2"],
              [[0.3, -0.4 + 0.2j, 0.1j], [0.5 + 0.5j, -1.0, 0.2], [1.0, 2.0, 1.5 - 0.5j]])

    def triple(self):
        rng = np.random.default_rng(17)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        return CommutingTuple([(u * np.asarray(e)) @ u.conj().T for e in self.TRIPLE[1]])

    def test_commuting_triple_converges_at_64_nodes_per_axis(self):
        tup = self.triple()
        sizes = []
        fs = [counting(named_function(n), sizes) for n in self.TRIPLE[0]]
        got, joint = funcalc_elementary(fs, tup, check_tol=RULE)
        # the last level's axis grids: 64 nodes each (256 on the tight circles)
        assert max(sizes) == 64
        want = np.eye(3, dtype=complex)
        for name, m in zip(self.TRIPLE[0], tup):
            want = want @ apply_via_eig(named_function(name), m)
        assert rel_err(got, want) < 1e-12
        assert rel_err(joint, want) < 1e-12

    def test_bare_multivariate_function_widens_its_torus(self):
        # funcalc_n holds no handles, but with no circles given it widens the
        # whole torus by the rule of the circles, probing f on a grid of 16
        # nodes per axis at n = 3 (4096 points)
        tup = self.triple()
        fs = [named_function(n) for n in self.TRIPLE[0]]
        calls = []

        def value(*zs):
            return functools.reduce(np.multiply, [fj(z) for fj, z in zip(fs, zs)])

        def product(*zs):
            calls.append(zs)
            return value(*zs)

        f = MultivariateFunction(product, tuple(fj.domain for fj in fs))
        tight = [contour_around(np.linalg.eigvals(m)) for m in tup]
        funcalc_n(f, tup, tight)
        assert max(np.size(z) for zs in calls for z in zs) == 256
        calls.clear()
        got = funcalc_n(f, tup)

        def radii(zs):
            return [float(np.max(np.abs(np.ravel(z) - c.center))) for z, c in zip(zs, tight)]

        def peak(zs):
            return np.max(np.abs(value(*zs)))

        # the levels: 16, 32 and 64 nodes per axis
        probes, last = calls[:-3], calls[-1]
        assert [[np.size(z) for z in zs] for zs in calls[-3:]] == [[16] * 3, [32] * 3, [64] * 3]
        assert 2 <= len(probes) <= 6 and all(np.size(z) == 16 for zs in probes for z in zs)
        assert radii(probes[0]) == pytest.approx([c.radius for c in tight], rel=1e-12)
        assert radii(probes[-1]) == pytest.approx(radii(last), rel=1e-12)
        assert peak(probes[-1]) <= 10.0 * peak(probes[0])
        for r, c, fj in zip(radii(last), tight, fs):
            assert c.radius * (1 - 1e-12) <= r <= 2.0 * c.radius * (1 + 1e-12)
            assert r < fj.domain.clearance(c.center)
        assert max(r / c.radius for r, c in zip(radii(last), tight)) > 1.5
        want = np.eye(3, dtype=complex)
        for fj, m in zip(fs, tup):
            want = want @ apply_via_eig(fj, m)
        assert rel_err(got, want) < 1e-12

    def test_a_given_torus_axis_stays(self):
        # only the default circles widen; an axis given its circle keeps it
        tup = CommutingTuple(self.triple()[:2])
        fs = [named_function(n) for n in self.TRIPLE[0][:2]]
        grids = []

        def product(z1, z2):
            grids.append((z1, z2))
            return fs[0](z1) * fs[1](z2)

        tight = [contour_around(np.linalg.eigvals(m)) for m in tup]
        got = funcalc_n(MultivariateFunction(product, (fs[0].domain, fs[1].domain)), tup,
                        [tight[0], None])
        z1, z2 = (np.ravel(z) for z in grids[-1])
        assert np.max(np.abs(z1 - tight[0].center)) == pytest.approx(tight[0].radius, rel=1e-12)
        assert np.max(np.abs(z2 - tight[1].center)) > 1.5 * tight[1].radius
        want = apply_via_eig(fs[0], tup[0]) @ apply_via_eig(fs[1], tup[1])
        assert rel_err(got, want) < 1e-12

    def test_single_matrix_needs_fewer_nodes(self):
        a = normal_matrix(5, [0.8, -0.5 + 0.6j, 0.2 - 0.9j])
        stats, tight_stats = {}, {}
        got = apply_function(EXP, a, stats=stats)
        tight = apply_function(EXP, a, contour_around(np.linalg.eigvals(a)), stats=tight_stats)
        assert tight_stats["contour_nodes"] == 256
        assert stats["contour_nodes"] == 64
        want = apply_via_eig(EXP, a)
        assert rel_err(got, want) < 1e-13 and rel_err(tight, want) < 1e-13

    @pytest.mark.parametrize("radius", [10.0, 30.0])
    def test_wide_spectrum_exp_stays_within_10x_of_the_tight_error(self, radius):
        # exp grows by e^(R - R0) across the widening and so does its round-off
        # floor; the |f| cap keeps that within 10x
        rng = np.random.default_rng(2)
        eigs = radius * np.exp(2j * np.pi * rng.random(4)) * np.sqrt(rng.random(4))
        eigs[0] = radius
        a = normal_matrix(2, eigs)
        want = normal_matrix(2, np.exp(eigs))
        tight = contour_around(np.linalg.eigvals(a))
        assert contour_around(np.linalg.eigvals(a), EXP).radius > tight.radius
        err = rel_err(apply_function(EXP, a), want)
        assert err <= 10.0 * rel_err(apply_function(EXP, a, tight), want)

    def test_overflow_on_the_circle_is_refused(self):
        # the level sums overflow, and inf <= inf must not read as agreement
        # (accepted, the value had entries near 1e216 where e^300 is 1e130).
        # The level norms (and, at 700, e^z on the circle) overflow; tier-1
        # turns a RuntimeWarning into an error, so this also checks that
        # none escapes ahead of the typed refusal
        eigs = [300.0, 272.5 + 58.4j, -28.1 - 219.0j]
        for a in (normal_matrix(4, eigs), np.diag(eigs), np.diag([700.0, 1.0])):
            with pytest.raises(QuadratureNoConvergence, match="non-finite level"):
                apply_function(EXP, a)

    def test_taylor_contraction_constant_is_read_on_the_tight_circle(self):
        a = normal_matrix(8, [0.5, -0.3 + 0.4j])
        b = 0.05 * normal_matrix(9, [1.0, -1.0j])
        report = taylor_expand(EXP, a, b, N=3)
        c = contour_around(np.concatenate([np.linalg.eigvals(a), np.linalg.eigvals(a + b)]))
        zeta = circle_points(c.center, c.radius, 128)[0]
        c2 = max(opnorm(np.linalg.inv(z * np.eye(2) - a)) for z in zeta)
        assert report.meta["c2"] == pytest.approx(c2, rel=1e-12)


class TestDeclaredDomains:
    """Every function a contour integrates declares its domain: without one,
    a circle goes unchecked or widens as if f were entire, and where it then
    encloses a pole the sum reads 0."""

    def test_nothing_is_built_without_its_domain(self):
        with pytest.raises(TypeError):
            HoloFunction(lambda z: 1.0 / (1.4 - z))
        with pytest.raises(TypeError):
            MultivariateFunction(lambda z: z)
        with pytest.raises(TypeError):
            Disc(0.0)
        with pytest.raises(InvalidInput, match="declares its Domain"):
            HoloFunction(np.exp, None)

    def test_an_undeclared_domain_is_refused(self):
        # unchecked, the tight circle about 0.5 encloses the pole: funcalc_n
        # would read about 1e-16 on diag(0, 1), where the answer is (1 - i, -1 - i)
        with pytest.raises(InvalidInput, match="Domain per variable"):
            MultivariateFunction(lambda z: 1.0 / (0.5 + 0.5j - z), (None,))
        with pytest.raises(InvalidInput, match="Domain per variable"):
            MultivariateFunction(lambda z1, z2: z1 * z2, (Entire(), None))

    def test_dd_contour_refuses_a_bare_callable(self):
        # the pole 0.4 + 0.3i lies inside every circle about 0.5 that encloses
        # the nodes (unchecked, the sum reads 2e-16 where dd_recursive gives
        # -2.933 + 0.533i), so a domain that excludes it refuses the circle
        pole = 0.4 + 0.3j
        with pytest.raises(InvalidInput, match="function handle"):
            dd_contour(lambda z: 1.0 / (pole - z), [0.0, 1.0])
        with pytest.raises(ContourViolation, match="domain"):
            dd_contour(HoloFunction(lambda z: 1.0 / (pole - z), Disc(0.0, abs(pole))), [0.0, 1.0])

    def test_funcalc_n_needs_one_domain_per_matrix(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        for domains in ((), (Entire(), Entire())):
            with pytest.raises(InvalidInput, match="need 1 domains"):
                funcalc_n(MultivariateFunction(lambda z: np.exp(z), domains), CommutingTuple([a]))

    @pytest.mark.parametrize("pole", [1.4, 1.5, 1.6])
    def test_a_declared_disc_gives_the_exact_values(self, pole):
        # R0 = 0.7 about 0.5 stays in the disc; widened as for an entire f it
        # would reach 1.4, onto the pole at 1.4, and every route would read 0
        a = np.diag([0.0, 1.0]).astype(complex)
        f = HoloFunction(lambda z: 1.0 / (pole - z), Disc(0.0, pole))
        want = 1.0 / (pole - np.array([0.0, 1.0]))  # (0.714, 2.5) at 1.4
        assert rel_err(apply_function(f, a), np.diag(want)) < 1e-12
        assert rel_err(funcalc_n(one_variable(f), CommutingTuple([a])), np.diag(want)) < 1e-12
        dd = want[1] - want[0]  # 1.786 at 1.4
        assert abs(dd_contour(f, [0.0, 1.0]) - dd) < 1e-12 * abs(dd)


class TestDDTensor:
    def test_single_slot(self):
        a = gen_matrix("random", 2, 13)
        op = dd_tensor(EXP, [a])
        assert op.slots == 1
        assert rel_err(op.matrix, matrix_exp(a)) < 1e-10

    def test_confluent_scalar_slots(self):
        # all slots x*I: the operator is the scalar confluent value times identity
        x = 0.3
        eye = np.eye(2)
        for n in (1, 2):
            op = dd_tensor(EXP, [x * eye] * (n + 1))
            want = np.exp(x) / math.factorial(n) * np.eye(2 ** (n + 1))
            assert rel_err(op.matrix, want) < 1e-10

    def test_resolvent_factorizes(self):
        mats = [gen_matrix("random", 2, 14 + j) for j in range(3)]
        lam = 4.0
        op = dd_tensor(dataclasses.replace(resolvent_function(lam), domain=Disc(0.0, 3.5)), mats)
        eye = np.eye(2)
        oracle = functools.reduce(np.kron, [np.linalg.inv(lam * eye - m) for m in mats])
        assert rel_err(op.matrix, oracle) < 1e-9

    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 5])
    def test_matches_the_full_kronecker_integrand(self, slots):
        # the split sum of each level against f(z) (z - a_0)^-1 (x) ... formed per node
        mats = [gen_matrix("random", 2, 40 + j) for j in range(slots)]
        c = circle_for(*mats)

        def full(zeta):
            return np.exp(zeta)[:, None, None] * np.stack(
                [functools.reduce(np.kron, [np.linalg.inv(z * np.eye(2) - m) for m in mats])
                 for z in zeta])

        want = contour_quadrature(full, c.center, c.radius, start=c.nodes, rtol=1e-12)
        assert rel_err(dd_tensor(EXP, mats).matrix, want) < 1e-12

    def test_stacks_split_into_node_batches(self, monkeypatch):
        mats = [gen_matrix("random", 2, 50 + j) for j in range(3)]
        whole = dd_tensor(EXP, mats).matrix
        monkeypatch.setattr(funcalc, "ENTRIES", 64)   # 3 nodes per batch
        assert rel_err(dd_tensor(EXP, mats).matrix, whole) < 1e-13

    @pytest.mark.parametrize("slots, dim, entries", [(4, 2, 64), (5, 8, funcalc.ENTRIES),
                                                      (4, 8, funcalc.ENTRIES)])
    def test_a_tensor_past_entries_is_refused_before_f_is_called(self, monkeypatch, slots,
                                                                 dim, entries):
        # 5 slots at d = 8 would hold 8^10 complex entries, about 17 GB, per
        # level; f raises, so without the bound nothing that large is built
        monkeypatch.setattr(funcalc, "ENTRIES", entries)

        def fn(z):
            raise AssertionError("f was called")

        mats = [gen_matrix("random", dim, 60 + j) for j in range(slots)]
        with pytest.raises(InvalidInput, match=f"{slots}-slot tensor at d = {dim} has "
                                               f"{dim ** (2 * slots)} entries, more than "
                                               f"{entries}"):
            dd_tensor(dataclasses.replace(EXP, fn=fn), mats)

    def test_a_ddtensor_job_past_entries_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(funcalc, "ENTRIES", 64)
        job = {"function": "exp", "mode": "ddtensor",
               "matrices": [matrix_to_json(gen_matrix("random", 2, 60 + j)) for j in range(4)]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code = cli.main(["funcalc", "--job", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: a 4-slot tensor at d = 2 has 256 entries, more than 64\n"


class TestDDApply:
    def test_no_factors(self):
        a = gen_matrix("random", 3, 17)
        assert rel_err(dd_apply(EXP, [a], []), matrix_exp(a)) < 1e-10

    def test_low_power_vanishes(self):
        a = gen_matrix("random", 2, 18)
        bs = [gen_matrix("random", 2, 19), gen_matrix("random", 2, 20)]
        got = dd_apply(power_function(1), [a, a, a], bs)
        assert opnorm(got) < 1e-12

    def test_pair_of_tensor(self):
        mats = [gen_matrix("random", 3, 21 + j) for j in range(3)]
        bs = [gen_matrix("random", 3, 30 + j) for j in range(2)]
        direct = dd_apply(EXP, mats, bs)
        tensored = pair(dd_tensor(EXP, mats), bs)
        assert rel_err(direct, tensored) <= 1e-8

    @pytest.mark.parametrize("pattern", ["repeated", "distinct", "non-commuting"])
    def test_exp_is_a_block_of_the_bidiagonal_exponential(self, pattern):
        # contour-free oracle: block (0, n) of the Pade exponential of B
        a, c = gen_matrix("hermitian", 2, 44), gen_matrix("random", 2, 45)
        mats = {
            "repeated": [a, a, a, a],
            "distinct": [a, 0.5 * a + np.eye(2), -a, 2.0 * a],
            "non-commuting": [a, a, c, a],
        }[pattern]
        bs = [gen_matrix("random", 2, 46 + j) for j in range(3)]
        want = matrix_exp(bidiagonal(mats, bs))[:2, -2:]
        assert rel_err(dd_apply(EXP, mats, bs), want) <= 1e-10

    def test_mixed_dimensions_raise_typed(self):
        mats = [gen_matrix("random", 2, 47), gen_matrix("random", 3, 48)]
        with pytest.raises(DimensionMismatch):
            dd_apply(EXP, mats, [np.eye(2)])
        with pytest.raises(DimensionMismatch):
            newton_interpolate(EXP, mats)
        with pytest.raises(DimensionMismatch):
            bidiagonal(mats[:1], [np.eye(3)])

    # contour-free oracles: a rational f of B is a rational expression in B,
    # and exp and log of B are scipy's dense expm and logm (a logm warning
    # that its result may be inaccurate fails the test)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, rational", [
        ("pow:3", lambda big: np.linalg.matrix_power(big, 3)),
        ("pow:-1", np.linalg.inv),
        ("pow:-2", lambda big: np.linalg.matrix_power(np.linalg.inv(big), 2)),
        ("resolvent:3,0", lambda big: np.linalg.inv(3.0 * np.eye(len(big)) - big)),
        ("rational:2",
         lambda big: np.linalg.matrix_power(np.linalg.inv(np.eye(len(big)) + big), 2)),
        ("exp", scipy.linalg.expm),
        ("log", scipy.linalg.logm),
    ])
    def test_rational_f_is_a_block_of_the_rational_expression(self, name, rational):
        # contour-free oracle: block (0, n) of f(B), B = bidiagonal(mats, bs),
        # over 40 seeded pairings with spectra within 0.3 of 1.5
        f = named_function(name)
        worst = 0.0
        for k in range(40):
            d, n = 2 + k % 3, 1 + k // 3 % 3
            mats = [1.5 * np.eye(d) + 0.3 * gen_matrix("random", d, 900 + 10 * k + j)
                    for j in range(n + 1)]
            bs = [0.5 * gen_matrix("random", d, 1400 + 10 * k + j) for j in range(n)]
            want = rational(bidiagonal(mats, bs))[:d, -d:]
            worst = max(worst, rel_err(dd_apply(f, mats, bs), want))
        assert worst <= 1e-13

    def test_linearity_in_f(self):
        mats = [gen_matrix("random", 2, 35 + j) for j in range(2)]
        bs = [gen_matrix("random", 2, 40)]
        c = circle_for(*mats, nodes=128)
        h = HoloFunction(lambda z: np.exp(z) + 0.7 * z**2, Entire())
        combo = dd_apply(h, mats, bs, c)
        parts = dd_apply(EXP, mats, bs, c) + 0.7 * dd_apply(power_function(2), mats, bs, c)
        assert rel_err(combo, parts) < 1e-12


def bidiagonal_integrand(f, diag, sup, contour):
    """The per-node integrand ``_f_bidiagonal`` hands to the circle quadrature."""
    seen, shape = [], bidiagonal(diag, sup).shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcalc, "contour_quadrature",
                   lambda fn, *args, **kwargs: seen.append(fn) or np.zeros(shape))
        funcalc._f_bidiagonal(f, diag, sup, contour, None)
    return seen[0]


def worst_node_error(f, diag, sup, contour, nodes=32):
    """Largest relative difference, over ``nodes`` circle nodes, between the
    integrand and f(zeta) times the dense inverse of zeta - ``bidiagonal``."""
    zeta, _ = contour.points(nodes)
    got = bidiagonal_integrand(f, diag, sup, contour)(zeta)
    big = bidiagonal(diag, sup)
    eye = np.eye(big.shape[0])
    return max(rel_err(g, f(z) * np.linalg.inv(z * eye - big)) for g, z in zip(got, zeta))


def departure_from_normality(m) -> float:
    """sqrt(|m|_F^2 - sum |lambda|^2), Henrici's measure."""
    return math.sqrt(max(np.linalg.norm(m) ** 2 - np.sum(np.abs(np.linalg.eigvals(m)) ** 2), 0.0))


class TestBidiagonalResolvent:
    """f(zeta) (zeta - B)^-1 from d x d resolvents equals the dense inverse."""

    @pytest.mark.parametrize("pattern", ["repeated", "distinct", "non-commuting"])
    def test_diagonal_block_patterns(self, pattern):
        a, c = gen_matrix("random", 3, 60), gen_matrix("random", 3, 61)
        diag = {
            "repeated": [a, a, a, a],
            "distinct": [a, 0.5 * a + np.eye(3), -a, 2.0 * a],
            "non-commuting": [a, c, a, c],
        }[pattern]
        sup = [gen_matrix("random", 3, 62 + j) for j in range(3)]
        assert worst_node_error(EXP, diag, sup, Contour(0.2, 4.0)) <= 1e-12

    def test_single_block_is_the_resolvent(self):
        a = gen_matrix("random", 4, 63)
        assert worst_node_error(EXP, [a], [], Contour(0.0, 2.0)) <= 1e-12

    def test_scalar_blocks(self):
        diag = [np.array([[x]]) for x in (0.3, -0.5 + 0.2j, 0.3, 0.9j)]
        sup = [np.array([[y]]) for y in (1.5, -0.7j, 2.0)]
        assert worst_node_error(EXP, diag, sup, Contour(0.0, 2.0)) <= 1e-12

    def test_strongly_non_normal_blocks(self):
        u, _ = np.linalg.qr(gen_matrix("random", 3, 64))
        t = np.array([[1.0, 120.0, 0.0], [0.0, 1.3, 0.0], [0.0, 0.0, 0.7]])
        a = u @ t @ u.conj().T
        b = gen_matrix("random", 3, 65)
        assert departure_from_normality(a) >= 1e2
        diag = [a, a + 1e-3 * b, a]
        sup = [gen_matrix("random", 3, 66), 10.0 * b]
        reach = max(np.max(np.abs(np.linalg.eigvals(m) - 1.0)) for m in diag)
        assert worst_node_error(EXP, diag, sup, Contour(1.0, 2.0 * reach + 0.5)) <= 1e-12

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(blocks=st.integers(1, 6), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           repeat=st.booleans())
    def test_matches_the_dense_inverse(self, blocks, d, seed, repeat):
        rng = np.random.default_rng(seed)

        def mat():  # Gaussian blocks: non-normal with probability one
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        diag = [mat() for _ in range(blocks)]
        if repeat:  # Taylor's pattern: one block repeated, another last
            diag = [diag[0]] * (blocks - 1) + diag[-1:]
        sup = [mat() for _ in range(blocks - 1)]
        reach = max(np.max(np.abs(np.linalg.eigvals(m))) for m in diag)
        assert worst_node_error(EXP, diag, sup, Contour(0.0, 1.5 * reach + 0.5), 16) <= 1e-12

    def _inverted_shapes(self, monkeypatch, call):
        shapes = []
        inv = np.linalg.inv

        def recording(x):
            shapes.append(np.shape(x))
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", recording)
        call()
        return shapes

    @pytest.mark.parametrize("route", ["taylor", "newton", "dd_apply"])
    def test_only_d_by_d_blocks_are_inverted(self, monkeypatch, route):
        d = 3
        mats = [gen_matrix("random", d, 70 + j) for j in range(4)]
        call = {
            "taylor": lambda: taylor_expand(EXP, mats[0], 0.05 * mats[1], 5),
            "newton": lambda: newton_interpolate(EXP, mats),
            "dd_apply": lambda: dd_apply(EXP, mats, mats[1:]),
        }[route]
        shapes = self._inverted_shapes(monkeypatch, call)
        assert shapes and all(s[-2:] == (d, d) for s in shapes)

    def test_taylor_inverts_its_two_distinct_blocks_per_batch(self, monkeypatch):
        a, b = gen_matrix("random", 2, 75), 0.05 * gen_matrix("random", 2, 76)
        shapes = self._inverted_shapes(monkeypatch, lambda: taylor_expand(EXP, a, b, 6))
        stacks = [s[0] for s in shapes if len(s) == 4]  # batched over distinct blocks
        assert set(stacks) == {2}  # the target f(a + b) is a block of the same f(B)


def non_normal(seed, departure, d=4):
    """Q (D + T) Q^H: D diagonal within about 0.15 of 1.5, T strictly upper
    triangular with |T|_F = ``departure``, Q a seeded random unitary."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    diag = 1.5 + 0.15 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
    t = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
    return q @ (np.diag(diag) + t * (departure / np.linalg.norm(t))) @ q.conj().T


class TestSingularResolvent:
    """At departure 1e6 from normality the computed eigenvalues lie far from
    the true ones, and a trapezoid node can make zeta - a numerically
    singular: a typed refusal naming the node, not numpy's LinAlgError."""

    def test_the_refusal_names_the_node(self):
        with pytest.raises(ContourViolation, match=r"contour node 2\+0j$"):
            funcalc._resolvents(np.array([1.0, 2.0, 3.5], dtype=complex),
                                np.diag([2.0, 3.0]).astype(complex))

    @pytest.mark.parametrize("name", ["exp", "log", "pow:-1"])
    def test_a_non_normal_matrix_is_refused_typed(self, name):
        with pytest.raises(ContourViolation, match="singular resolvent at contour node"):
            apply_function(named_function(name), non_normal(16, 1e6))

    def test_the_cli_reports_the_typed_refusal(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"function": "exp",
                                    "matrices": [matrix_to_json(non_normal(16, 1e6))]}))
        assert cli.main(["funcalc", "--job", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: singular resolvent at contour node")
        assert err.count("\n") == 1


class TestCirclesAroundASingularity:
    """Known wrong answers: the default circle passes when 64 probe points on
    it lie in the domain, though its disc holds a pole or the circle crosses
    log's branch cut between two probes.  Each case is held against a
    contour-free value and fails today (strict: a mend turns it into a pass)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the circle around 1 and -1 + 0.3i encloses the pole at 0")
    def test_inverse_of_a_diagonal_around_the_pole(self):
        m = np.diag([1.0, -1.0 + 0.3j])
        assert rel_err(apply_function(named_function("pow:-1"), m), np.linalg.inv(m)) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the circle around 1 and -1 + 1e-3i encloses the pole at 0")
    def test_divided_difference_of_the_inverse_across_the_pole(self):
        x0, x1 = 1.0, -1.0 + 1e-3j
        want = -1.0 / (x0 * x1)  # [x0, x1] 1/z
        assert abs(dd_contour(named_function("pow:-1"), [x0, x1]) - want) <= 1e-10 * abs(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.xfail(strict=True, raises=QuadratureNoConvergence,
                       reason="the circle around -1 + 1e-3i and 1 crosses log's branch cut")
    def test_log_next_to_its_branch_cut(self):
        m = np.diag([-1.0 + 1e-3j, 1.0])
        want = scipy.linalg.logm(m)
        assert rel_err(apply_function(named_function("log"), m), want) <= 1e-10


class TestLevelAcceptedOnItsRoundOffFloor:
    """A known wrong answer: on diag(300, 1) the circle's refinement accepts a
    level whose difference (2.2e-3 of the value) is below its round-off floor,
    which the e^300 entry sets far above the e^1 entry; both entries are
    wrong.  Held against the exact values; each fails today (strict: a mend
    turns it into a pass, or a refusal test)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the e^1 entry reads -2.578e127 + 6.32e126i")
    def test_exp_of_a_diagonal_with_a_wide_spectrum(self):
        value = apply_function(exp_function(), np.diag([300.0, 1.0]))[1, 1]
        assert abs(value - math.e) <= 1e-10 * math.e

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the e^300 entry reads (0.98681 + 0.00127i) e^300")
    def test_exp_of_a_diagonal_with_a_wide_spectrum_dominant_entry(self):
        # the accepted level is wrong in the entry that sets the floor too,
        # so a gate on entries small beside the largest would not catch it
        value = apply_function(exp_function(), np.diag([300.0, 1.0]))[0, 0]
        assert abs(value / math.exp(300.0) - 1.0) <= 1e-10


class TestDaletskiKrein:
    """Contour-free oracle for pairings: for diagonalisable a_0 = V diag(lam) V^-1
    and a_1 = W diag(mu) W^-1, [a_0, a_1] f (b) = V ((V^-1 b W) o D) W^-1 with
    D_ij = [lam_i, mu_j] f (the first-order noncommutative Taylor term)."""

    @staticmethod
    def diagonalisable(rng, d):
        v = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        eigs = 2.0 + 0.6 * np.sqrt(rng.uniform(0, 1, d)) * np.exp(2j * np.pi * rng.uniform(0, 1, d))
        return eigs, v

    @pytest.mark.parametrize("name", ["exp", "log", "pow:-1"])
    def test_first_order_pairing(self, name):
        f = named_function(name)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            lam, v = self.diagonalisable(rng, 3)
            mu, w = self.diagonalisable(rng, 3)
            a0, a1 = (v * lam) @ np.linalg.inv(v), (w * mu) @ np.linalg.inv(w)
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert opnorm(a0 @ a1 - a1 @ a0) > 1e-2  # the slots do not commute
            dd = (f(lam)[:, None] - f(mu)[None, :]) / (lam[:, None] - mu[None, :])
            want = v @ ((np.linalg.solve(v, b) @ w) * dd) @ np.linalg.inv(w)
            assert rel_err(dd_apply(f, [a0, a1], [b]), want) <= 1e-12, seed


class TestDDCommuting:
    # a commuting tuple's divided difference: dd_apply with identity factors
    def test_scalar_slots(self):
        eye = np.eye(3)
        got = dd_apply(EXP, [0.2 * eye, 0.9 * eye], [eye])
        want = dd_recursive(EXP, [0.2, 0.9]) * eye
        assert rel_err(got, want) < 1e-11

    def test_diagonal_eigenvalue_wise(self):
        d1 = np.diag([0.1, 0.5, -0.2])
        d2 = np.diag([0.4, -0.3, 0.2])
        got = dd_apply(EXP, [d1, d2], [np.eye(3)])
        want = np.diag(
            [dd_recursive(EXP, [d1[i, i], d2[i, i]]) for i in range(3)]
        )
        assert rel_err(got, want) < 1e-10

    def test_confluent_pair_is_derivative(self):
        a = gen_matrix("hermitian", 3, 41)
        got = dd_apply(EXP, [a, a], [np.eye(3)])
        assert rel_err(got, matrix_exp(a)) < 1e-10


def zero_filled_integrand(f, diag, sup):
    """``_f_bidiagonal``'s integrand as it was before its scratch stopped being
    zero-filled: the reference its bits are held to."""
    d, size = diag[0].shape[0], len(diag) * diag[0].shape[0]

    def integrand(zeta):
        r = [funcalc._resolvents(zeta, m) for m in diag]
        out = np.zeros((len(zeta), size, size), dtype=complex)
        for i in reversed(range(len(diag))):
            lo, hi = i * d, (i + 1) * d
            out[:, lo:hi, lo:hi] = np.asarray(f(zeta), dtype=complex)[:, None, None] * r[i]
            if hi < size:
                rb = (r[i].reshape(-1, d) @ sup[i]).reshape(-1, d, d)
                np.matmul(rb, out[:, hi:hi + d, hi:], out=out[:, lo:hi, hi:])
        return out

    return integrand


def funcalc_n_levels(f, tup, cs=None):
    """The ``(size, value, mass)`` levels ``funcalc_n`` hands to ``_refine``."""
    seen, refine = [], funcalc._refine

    def recorded(levels, rtol):
        def record():
            for level in levels:
                seen.append((level[0], level[1].copy(), level[2]))
                yield level
        return refine(record(), rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcalc, "_refine", recorded)
        funcalc_n(f, tup, cs)
    return seen


class TestEachResolventOnce:
    """A level inverts only its new nodes and reuses the rest, and the
    block-bidiagonal scratch is not zero-filled: the same bits as before."""

    @pytest.mark.parametrize("d, top", [(2, 8192), (3, 1024), (6, 256)])
    def test_level_resolvents_equal_a_fresh_inversion(self, d, top):
        a = gen_matrix("random", d, 70 + d)
        c = contour_around(np.linalg.eigvals(a), EXP)
        r, m = None, 16
        while m <= top:
            zeta = c.points(m)[0]
            r = funcalc._level_resolvents(zeta, a, r)
            assert r.tobytes() == funcalc._resolvents(zeta, a).tobytes(), m
            m *= 2

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_funcalc_n_levels_equal_fresh_inversions(self, arity, monkeypatch):
        h = gen_matrix("hermitian", 2, 31)
        tup = CommutingTuple([h + k * np.eye(2) for k in range(arity)])
        f = MultivariateFunction(lambda *zs: np.exp(sum(zs)) * np.cos(zs[0]), (Entire(),) * arity)
        cs = wide_circles(tup, 1.0)
        reused = funcalc_n_levels(f, tup, cs)
        monkeypatch.setattr(funcalc, "_level_resolvents", lambda zeta, a, prev: funcalc._resolvents(zeta, a))
        fresh = funcalc_n_levels(f, tup, cs)
        assert len(reused) == len(fresh) >= 3
        for (m, value, mass), (m2, value2, mass2) in zip(reused, fresh):
            assert m == m2 and mass == mass2 and value.tobytes() == value2.tobytes()

    @pytest.mark.parametrize("pattern", ["one slot", "repeated", "distinct"])
    def test_bidiagonal_integrand_equals_the_zero_filled_one(self, pattern):
        a, b = gen_matrix("random", 3, 63), gen_matrix("random", 3, 64)
        diag = {"one slot": [a], "repeated": [a, a, a, a + b], "distinct": [a, b, -a]}[pattern]
        sup = [gen_matrix("random", 3, 65 + j) for j in range(len(diag) - 1)]
        contour = Contour(0.1, 9.0)
        got_fn = bidiagonal_integrand(EXP, diag, sup, contour)
        want_fn = zero_filled_integrand(EXP, diag, sup)
        for m in (16, 64):
            zeta = contour.points(m)[0]
            for nodes in (zeta, zeta[1::2]):
                got, want = got_fn(nodes), want_fn(nodes)
                assert got.tobytes() == want.tobytes()  # the blocks below the diagonal are 0 too

    def test_known_inverts_each_node_batch_once(self, monkeypatch):
        a = gen_matrix("random", 2, 66)
        c = contour_around(np.linalg.eigvals(a), EXP)
        fresh = [funcalc._f_bidiagonal(g, [a], [], c, None)
                 for g in (EXP, EXP.deriv_function(1), EXP.deriv_function(2))]
        batches = []
        inner = funcalc._resolvents
        monkeypatch.setattr(funcalc, "_resolvents", lambda zeta, m: batches.append(len(zeta)) or inner(zeta, m))
        known = {}
        shared = [funcalc._f_bidiagonal(g, [a], [], c, known)
                  for g in (EXP, EXP.deriv_function(1), EXP.deriv_function(2))]
        assert [x.tobytes() for x in shared] == [x.tobytes() for x in fresh]
        # one inversion per node batch, each kept once: none repeated by a later call
        assert sorted(batches) == sorted(r.shape[-3] for r in known.values())
