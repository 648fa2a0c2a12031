import dataclasses
import functools
import itertools
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcalc import (
    eigenbasis,
    gen_matrix,
    kernel_F,
    kernel_G,
    matrix_exp,
    opnorm,
    pair,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
    rel_err,
)
from opcalc import rearrange
from opcalc.core import TensorOperator, eigen_decompose, stack_times
from opcalc.quadrature import halfline_integrate
from opcalc.functions import rational_function
from opcalc.errors import (
    DecayViolation,
    DimensionMismatch,
    InvalidInput,
    NonDiagonalizable,
    QuadratureNoConvergence,
    SectorViolation,
)


def kron_oracle(qs, A, bs, route):
    """The rhs routes through the (p+1)-fold Kronecker eigenbasis: one scalar
    kernel per eigenvalue tuple on the diagonal, then the slotwise pairing."""
    p, d = len(bs), A.shape[0]
    lam, v, vinv = eigen_decompose(A)
    vals = np.empty(d ** (p + 1), dtype=complex)
    for flat, idx in enumerate(itertools.product(range(d), repeat=p + 1)):
        s = lam[list(idx)]
        vals[flat] = (kernel_F(qs, s) if route == "F"
                      else kernel_G(qs, s[1:] / s[0]))
    w, winv = (functools.reduce(np.kron, [m] * (p + 1)) for m in (v, vinv))
    value = pair(TensorOperator((w * vals) @ winv, d, p + 1), bs)
    return value if route == "F" else np.linalg.inv(A) @ value


def per_tuple_kernel_F(qs, s):
    """``kernel_F`` with every factor evaluated on every tuple: the integrand
    that evaluation per distinct slot argument is held to bit for bit."""
    fs = rearrange._check_decay(qs)
    pts = np.asarray(s, dtype=complex)

    def integrand(u):
        vals = fs[0](np.multiply.outer(u, pts[..., 0]))
        for j, f in enumerate(fs[1:], start=1):
            vals = vals * f(np.multiply.outer(u, pts[..., j]))
        return vals

    value = halfline_integrate(integrand)
    return complex(value) if pts.ndim == 1 else value


def modular_products(a, p):
    """exp(-nabla^(1)) ... exp(-nabla^(j)) for j = 1..p on p+1 slots, where
    nabla^(j) is the slot-(j-1) lift of ``a`` minus its slot-j lift."""
    eye = np.eye(a.shape[0])
    lifts = [functools.reduce(np.kron, [a if k == j else eye for k in range(p + 1)])
             for j in range(p + 1)]
    steps = [matrix_exp(lifts[j] - lifts[j - 1]) for j in range(1, p + 1)]
    return list(itertools.accumulate(steps, np.matmul))


class TestSectorGeometry:
    def test_exp_lands_in_sector(self):
        # strip bound on the log gives the sector bound on the exponential
        delta = 0.4
        a = gen_matrix("hermitian", 3, 1) + 0.2j * np.eye(3)
        assert np.all(np.abs(np.linalg.eigvals(a).imag) < delta)
        lam = np.linalg.eigvals(matrix_exp(a))
        assert np.all(np.abs(np.angle(lam)) < delta)


class TestFamily:
    def test_tags(self):
        # the family is its exponent list: member q is rational_function(q),
        # (1 + s)^-q for an integer q, bit for bit
        f, g = rearrange._check_decay([3, 1.0])
        assert (f.name, g.name) == ("rational:3", "rational:1")
        s = np.array([0.5, 2.0 + 1.0j, 10.0])
        assert np.array_equal(f(s), (1.0 + s) ** -3)
        assert np.array_equal(g(s), 1.0 / (1.0 + s))

    def test_decay_gate(self):
        # sum of exponents exactly 1 must be rejected, 2 accepted
        with pytest.raises(DecayViolation):
            kernel_F([1, 0], [1.0, 1.0])
        kernel_F([1, 1], [1.0, 1.0])


class TestModularFamily:
    # the joint eigenbasis in which rearrange_rhs_G evaluates kernel G
    def test_diagonal_pattern(self):
        lam = np.array([0.3, -0.5])
        # product j in the joint eigenbasis: entries exp(lam_{i_j} - lam_{i_0})
        for j, prod in enumerate(modular_products(np.diag(lam), 2), start=1):
            diag = np.diagonal(prod)
            k = 0
            for i0 in range(2):
                for i1 in range(2):
                    for i2 in range(2):
                        idx = (i0, i1, i2)
                        expected = np.exp(lam[idx[j]] - lam[i0])
                        assert diag[k] == pytest.approx(expected, rel=1e-12)
                        k += 1

    def test_slot_factorization_directly(self):
        # A^(0) exp(-nabla^(1)) ... exp(-nabla^(j)) = A^(j) for A = exp(a)
        a = gen_matrix("hermitian", 2, 3)
        eye = np.eye(2)
        A = matrix_exp(a)
        for j, prod in enumerate(modular_products(a, 2), start=1):
            lift = [A if k == j else eye for k in range(3)]
            assert rel_err(functools.reduce(np.kron, [A, eye, eye]) @ prod,
                           functools.reduce(np.kron, lift)) <= 1e-10


class TestKernels:
    def test_F_frozen(self):
        fam = [1, 1]
        # int (1+u)^-2 du = 1
        assert kernel_F(fam, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-9)

    def test_G_frozen(self):
        fam = [1, 1]
        assert kernel_G(fam, [1.0]) == pytest.approx(1.0, rel=1e-9)
        # partial fractions: int (1+u)^-1 (1+2u)^-1 du = ln 2
        assert kernel_G(fam, [2.0]) == pytest.approx(np.log(2.0), rel=1e-9)

    def test_F_equals_G_at_one(self):
        fam = [2, 1]
        assert kernel_F(fam, [1.0, 1.0]) == pytest.approx(
            kernel_G(fam, [1.0]), rel=1e-9
        )

    def test_scaling_identity(self):
        rng = np.random.default_rng(4)
        fam = [1, 1]
        for _ in range(25):
            s = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(-0.3, 0.3, 2))
            F = kernel_F(fam, s)
            G = kernel_G(fam, [s[1] / s[0]])
            assert abs(F - G / s[0]) <= 1e-9 * abs(F)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        fam = [2, 1]
        s = np.array([1.3, 0.7 + 0.2j])
        F = kernel_F(fam, s)
        for _ in range(10):
            c = rng.uniform(0.3, 3.0)
            assert abs(kernel_F(fam, c * s) - F / c) <= 1e-9 * abs(F)


    @staticmethod
    def _meshgrid(d, p, seed):
        lam = np.linalg.eigvals(matrix_exp(gen_matrix("hermitian", d, seed)))
        return np.stack(np.meshgrid(*[lam] * (p + 1), indexing="ij"), axis=-1)

    @pytest.mark.parametrize("qs, s", [
        pytest.param((2, 1, 2, 1), _meshgrid(5, 3, 1), id="meshgrid-p3-d5"),
        pytest.param((1, 2), _meshgrid(6, 1, 2), id="meshgrid-p1-d6"),
        pytest.param((1, 1, 2), [[1.0, 0.5 + 0.2j, 2.0], [0.3, 0.5 + 0.2j, 1.5j + 0.1],
                                 [1.0, 0.7, 2.0]], id="explicit-tuples"),
        pytest.param((2,), [[0.5], [0.5], [2.0 + 1j], [0.5]], id="repeated-one-slot"),
        pytest.param((1, 1), np.full((3, 4, 2), 0.8 - 0.1j), id="one-value-per-slot"),
        pytest.param((1, 1), [[complex(2.0, 0.0), complex(0.5, -0.0)],
                              [complex(2.0, -0.0), complex(0.5, 0.0)],
                              [complex(2.0, -0.0), complex(0.5, -0.0)]], id="signed-zeros"),
        pytest.param((2, 1), (1.3, 0.7 + 0.2j), id="one-tuple"),
    ])
    def test_F_equals_the_per_tuple_integrand(self, qs, s):
        # bit for bit, leading shape and type included
        got, want = kernel_F(qs, s), per_tuple_kernel_F(qs, s)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_each_factor_sees_only_distinct_arguments(self, monkeypatch):
        # d values per slot on the d^(p+1) tuples of a route; +0.0 and -0.0
        # are two arguments, not one
        seen = []

        def recorded(q):
            f = rational_function(q)

            def call(z):
                seen.append(z.shape[-1])
                return f(z)

            return call

        monkeypatch.setattr(rearrange, "rational_function", recorded)
        kernel_F((2, 1, 2, 1), self._meshgrid(5, 3, 1))
        assert seen and set(seen) == {5}
        seen.clear()
        kernel_F((1, 1), [[2.0, complex(0.5, 0.0)], [2.0, complex(0.5, -0.0)]])
        assert seen[:2] == [1, 2]

    @pytest.mark.parametrize("qs, s", [
        ((1, 1), (1.0, 0.7 * np.exp(1.55j))),
        ((2, 1), (0.5 * np.exp(1.55j), 3.0 * np.exp(-1.2j))),
        ((1, 2, 1), (1.0, 0.7 * np.exp(1.55j), 1.3 * np.exp(-1.55j))),
    ])
    def test_F_at_the_sector_edge_against_mpmath(self, qs, s):
        # |arg s| = 1.55 against pi/2: the poles u = -1/s_j sit near the imaginary axis
        with mpmath.workdps(30):
            want = complex(mpmath.quad(
                lambda u: mpmath.fprod((1 + u * mpmath.mpc(z)) ** -q for q, z in zip(qs, s)),
                [0, 1, mpmath.inf]))
        assert abs(kernel_F(qs, s) - want) <= 1e-15 * abs(want)

class TestThreeWay:
    def test_diagonal_resolvent_square(self):
        # A diagonal, b = 1: int (1 + u lam)^-2 du = 1/lam entrywise
        fam = [1, 1]
        lam = np.array([0.5, 2.0])
        got = rearrange_lhs(eigenbasis(fam, np.diag(lam), [np.eye(2)]))
        assert rel_err(got, np.diag(1.0 / lam)) <= 1e-9

    def test_identity_argument_factors_out(self):
        fam = [1, 1]
        b = gen_matrix("random", 2, 6)
        got = rearrange_lhs(eigenbasis(fam, np.eye(2), [b]))
        assert rel_err(got, b) <= 1e-9  # F(1,1) = 1

    def test_rhs_F_diagonal_weights(self):
        # p = 1 diagonal: entry (i, j) weighs b by F(lam_i, lam_j)
        fam = [1, 1]
        lam = np.array([0.5, 1.5])
        b = gen_matrix("random", 2, 7)
        got = rearrange_rhs_F(eigenbasis(fam, np.diag(lam), [b]))
        want = np.array(
            [[kernel_F(fam, [lam[i], lam[j]]) * b[i, j] for j in range(2)]
             for i in range(2)]
        )
        assert rel_err(got, want) <= 1e-9

    def test_rhs_F_trivial_log(self):
        fam = [1, 1]
        b = gen_matrix("random", 2, 10)
        got = rearrange_rhs_F(eigenbasis(fam, np.eye(2), [b]))
        assert rel_err(got, kernel_F(fam, [1.0, 1.0]) * b) <= 1e-9

    def test_rhs_G_trivial_log(self):
        fam = [1, 1]
        b = gen_matrix("random", 2, 8)
        got = rearrange_rhs_G(eigenbasis(fam, np.eye(2), [b]))
        assert rel_err(got, b) <= 1e-9

    def test_rhs_G_diagonal_pattern(self):
        fam = [1, 1]
        lam = np.array([0.5, 1.5])
        b = gen_matrix("random", 2, 9)
        got = rearrange_rhs_G(eigenbasis(fam, np.diag(lam), [b]))
        want = np.array(
            [[kernel_G(fam, [lam[j] / lam[i]]) / lam[i] * b[i, j] for j in range(2)]
             for i in range(2)]
        )
        assert rel_err(got, want) <= 1e-9

    @pytest.mark.parametrize("p,dim,qs", [(1, 2, [1, 1]), (1, 3, [2, 1]), (2, 2, [1, 1, 1])])
    def test_three_way_agreement(self, p, dim, qs):
        fam = qs
        a = gen_matrix("hermitian", dim, 11 * p + dim)
        A = matrix_exp(a)
        bs = [gen_matrix("random", dim, 20 + j) for j in range(p)]
        basis = eigenbasis(fam, A, bs, delta=0.3)
        lhs = rearrange_lhs(basis)
        rf = rearrange_rhs_F(basis)
        rg = rearrange_rhs_G(basis)
        scale = max(opnorm(lhs), 1e-300)
        assert opnorm(lhs - rf) / scale <= 1e-6
        assert opnorm(lhs - rg) / scale <= 1e-6
        assert opnorm(rf - rg) / scale <= 1e-6

    def test_non_hermitian_inside_sector(self):
        # small skew part keeps the spectrum in the sector; still three-way
        fam = [1, 1]
        a = gen_matrix("hermitian", 2, 30) + 0.1j * gen_matrix("hermitian", 2, 31)
        assert np.all(np.abs(np.linalg.eigvals(a).imag) < 0.3)
        A = matrix_exp(a)
        b = gen_matrix("random", 2, 32)
        basis = eigenbasis(fam, A, [b], delta=0.3)
        lhs = rearrange_lhs(basis)
        rf = rearrange_rhs_F(basis)
        assert rel_err(lhs, rf) <= 1e-6

    def test_sector_gate(self):
        fam = [1, 1]
        bad = np.diag([-1.0, 1.0])  # negative real eigenvalue: outside any sector
        with pytest.raises(SectorViolation):
            eigenbasis(fam, bad, [np.eye(2)])


class TestJointEigenbasis:
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(p=st.integers(0, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           spread=st.floats(0.0, 1.5), q0=st.integers(2, 3),
           qs=st.lists(st.integers(1, 3), min_size=3, max_size=3))
    @example(p=3, d=3, seed=44, spread=1.5, q0=2, qs=[1, 1, 1])
    def test_rhs_matches_kronecker_oracle(self, p, d, seed, spread, q0, qs):
        # f_0 decays like s^-2 or faster, so every p passes the decay gate
        fam = [q0, *qs[:p]]
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = z + z.conj().T
        A = matrix_exp(spread * h / max(opnorm(h), 1e-300))
        bs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for _ in range(p)]
        for route, fn in (("F", rearrange_rhs_F), ("G", rearrange_rhs_G)):
            want = kron_oracle(fam, A, bs, route)
            assert rel_err(fn(eigenbasis(fam, A, bs)), want) <= 1e-12

    @pytest.mark.parametrize("route", [rearrange_rhs_F, rearrange_rhs_G])
    def test_one_halfline_quadrature_per_route(self, route, monkeypatch):
        calls = []
        halfline = rearrange.halfline_integrate

        def counting(fn, **kwargs):
            calls.append(fn)
            return halfline(fn, **kwargs)

        monkeypatch.setattr(rearrange, "halfline_integrate", counting)
        A = matrix_exp(gen_matrix("hermitian", 3, 40))
        bs = [gen_matrix("random", 3, 41 + j) for j in range(3)]
        route(eigenbasis([1, 1, 1, 1], A, bs))
        assert len(calls) == 1

    def test_p0_is_kernel_of_A(self):
        # no factors: V diag(K(lam)) V^-1, here K(s) = int (1+us)^-2 du = 1/s
        fam = [2]
        A = matrix_exp(gen_matrix("hermitian", 3, 42))
        inv = np.linalg.inv(A)
        basis = eigenbasis(fam, A, [])
        assert rel_err(rearrange_rhs_F(basis), inv) <= 1e-9
        assert rel_err(rearrange_rhs_G(basis), inv) <= 1e-9
        assert rel_err(rearrange_lhs(basis), inv) <= 1e-9

    def test_batched_kernel_F_matches_per_tuple(self):
        fam = [2, 1, 1]
        rng = np.random.default_rng(43)
        s = (rng.uniform(0.3, 3.0, (4, 5, 3))
             * np.exp(1j * rng.uniform(-0.4, 0.4, (4, 5, 3))))
        batch = kernel_F(fam, s)
        assert batch.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            single = kernel_F(fam, s[idx])
            assert isinstance(single, complex)
            assert abs(batch[idx] - single) <= 1e-13 * abs(single)

    def test_kernel_G_is_kernel_F_at_one(self):
        fam = [1, 2, 1]
        lam = [0.7 + 0.1j, 1.9 - 0.2j]
        assert kernel_G(fam, lam) == kernel_F(fam, [1, *lam])

    def test_jordan_block_refused_by_every_route(self):
        # every route takes the record, so its constructor's refusal is theirs
        fam = [1, 1]
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NonDiagonalizable):
            eigenbasis(fam, jordan, [np.eye(2)])

    def test_pole_on_the_half_line_raises(self):
        # (1 - u)^-1 (1 + u)^-1 has a pole at u = 1, a Kronrod node
        fam = [1, 1]
        with np.errstate(all="ignore"):
            with pytest.raises(QuadratureNoConvergence):
                kernel_F(fam, [-1, 1])
            with pytest.raises(QuadratureNoConvergence):
                kernel_F(fam, [[1, 1], [-1, 1], [2, 1]])


def every_factor_lhs(qs, A, bs):
    """``rearrange_lhs`` as it was before the record: every member's factor
    evaluated on every panel, from a fresh eigendecomposition.  The integrand
    that one factor per distinct exponent is held to bit for bit."""
    fs = rearrange._check_decay(qs)
    lam, v, vinv = eigen_decompose(A)
    bmats = [np.asarray(b, dtype=complex) for b in bs]

    def factor(f, u):
        vals = np.asarray(f(np.multiply.outer(u, lam)), dtype=complex)
        return np.einsum("ij,kj,jl->kil", v, vals, vinv)

    def integrand(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        x = factor(fs[0], u)
        for f, b in zip(fs[1:], bmats):
            x = stack_times(x, b)
            x = x @ factor(f, u)
        return x

    return halfline_integrate(integrand)


def fresh_joint_diagonal(qs, A, bs, route):
    """The kernel routes as they were before the record: a fresh
    eigendecomposition, meshgrid and V^-1 b_j V on every call."""
    lam, v, vinv = eigen_decompose(A)
    p = len(bs)
    s = np.stack(np.meshgrid(*[lam] * (p + 1), indexing="ij"), axis=-1)
    k = (kernel_F(qs, s) if route == "F"
         else kernel_G(qs, s[..., 1:] / s[..., :1]) / s[..., 0])
    if p == 0:
        return (v * k) @ vinv
    idx = "abcd"[: p + 1]
    subscripts = ",".join([idx] + [idx[j : j + 2] for j in range(p)]) + f"->{idx[0]}{idx[p]}"
    return v @ np.einsum(subscripts, k, *[vinv @ b @ v for b in bs]) @ vinv


def _job(p, d, seed=7):
    A = matrix_exp(gen_matrix("hermitian", d, seed))
    return A, [gen_matrix("random", d, seed + 1 + j) for j in range(p)]


class TestEigenbasisRecord:
    @pytest.mark.parametrize("qs", [(2, 1, 2, 1), (1, 2, 1)], ids=["2121", "121"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lhs_equals_the_every_factor_loop(self, qs, d):
        A, bs = _job(len(qs) - 1, d)
        got = rearrange_lhs(eigenbasis(qs, A, bs, delta=0.35))
        assert got.tobytes() == every_factor_lhs(qs, A, bs).tobytes()

    @pytest.mark.parametrize("qs", [(2, 1, 2, 1), (1, 2, 1), (2,), (1, 1)])
    def test_kernel_routes_equal_a_fresh_decomposition(self, qs):
        A, bs = _job(len(qs) - 1, 3)
        basis = eigenbasis(qs, A, bs)
        for name, route in (("F", rearrange_rhs_F), ("G", rearrange_rhs_G)):
            assert route(basis).tobytes() == fresh_joint_diagonal(qs, A, bs, name).tobytes()

    def test_lhs_evaluates_each_distinct_exponent_once_per_panel(self, monkeypatch):
        # family 2,1,2,1 has two distinct members: two factors per panel, not four
        evaluated, panels = [], []

        def recorded(q):
            f = rational_function(q)

            def call(z):
                evaluated.append(q)
                return f(z)

            return call

        halfline = rearrange.halfline_integrate

        def counting(fn, **kwargs):
            def integrand(u):
                panels.append(u)
                return fn(u)

            return halfline(integrand, **kwargs)

        monkeypatch.setattr(rearrange, "rational_function", recorded)
        monkeypatch.setattr(rearrange, "halfline_integrate", counting)
        A, bs = _job(3, 3)
        rearrange_lhs(eigenbasis((2, 1, 2, 1), A, bs))
        assert panels and sorted(evaluated) == sorted([1, 2] * len(panels))

    def test_the_record_is_frozen_and_the_callers_arrays_are_not(self):
        A, bs = _job(2, 3)
        basis = eigenbasis([1, 2, 1], A, bs)
        with pytest.raises(AttributeError):
            basis.lam = basis.lam
        arrays = [basis.lam, basis.v, basis.vinv, *basis.bs, *basis.blocks]
        assert not any(x.flags.writeable for x in arrays)
        assert A.flags.writeable and all(b.flags.writeable for b in bs)
        # the kernels read their tuples off lam, so the record keeps no tuple grid
        assert [f.name for f in dataclasses.fields(basis)] == [
            "qs", "fs", "lam", "v", "vinv", "bs", "blocks"]
        assert basis.qs == (1, 2, 1) and basis.lam.shape == (3,)
        for b, block in zip(bs, basis.blocks):
            assert block.tobytes() == (basis.vinv @ b @ basis.v).tobytes()
        before = [x.copy() for x in arrays]
        for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G):
            route(basis)
        assert all(np.array_equal(x, y) for x, y in zip(arrays, before))

    @pytest.mark.parametrize("delta", ["x", 1j, [0.3], np.array(0.3), float("nan"), -float("inf"),
                                       10 ** 400],
                             ids=["str", "complex", "list", "array", "nan", "-inf", "huge-int"])
    def test_delta_not_a_finite_real_is_refused(self, delta):
        # "x", 1j and [0.3] escaped as a bare TypeError from math.isfinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="delta"):
                eigenbasis([1, 1], np.eye(2), [np.eye(2)], delta=delta)

    @pytest.mark.parametrize("delta", [3.2, np.pi + 1e-12, 1e300])
    def test_a_sector_past_pi_is_refused(self, delta):
        # |arg z| < delta then takes in the negative axis, where (1 + us)^-q
        # has a pole on the half-line: diag(-1, 2) was accepted at 3.2, and
        # rearrange_lhs failed with a non-finite level
        with pytest.raises(InvalidInput, match="up to pi"):
            eigenbasis([1, 1], np.diag([-1.0, 2.0]), [np.eye(2)], delta=delta)

    def test_pi_is_the_widest_sector(self):
        basis = eigenbasis([1, 1], np.diag([1.0, 2.0j]), [np.eye(2)], delta=np.pi)
        assert basis.lam.tolist() == [1.0, 2.0j]
        with pytest.raises(SectorViolation):
            eigenbasis([1, 1], np.diag([-1.0, 2.0]), [np.eye(2)], delta=np.pi)

    def test_the_sector_refusal_is_one_line(self):
        # numpy's array repr wrapped the eigenvalues over several lines
        A = np.diag(np.exp(np.linspace(-1.0, 1.0, 8)))
        with pytest.raises(SectorViolation) as info:
            eigenbasis([1, 1], A, [np.eye(8)], delta=-1)
        assert "\n" not in str(info.value) and str(info.value).count(",") == 7

    @pytest.mark.parametrize("delta", [0.3, 1, np.float64(0.3), np.float32(0.3), None])
    def test_delta_real_numbers_are_read(self, delta):
        A, bs = _job(1, 2)
        got = rearrange_rhs_F(eigenbasis([1, 1], A, bs, delta=delta))
        assert got.tobytes() == rearrange_rhs_F(eigenbasis([1, 1], A, bs)).tobytes()

    def test_an_iterator_family_is_read_once(self):
        # the exponents were iterated twice, so an iterator read as the empty
        # family: a false DecayViolation, sum 0
        assert kernel_F((q for q in [1, 1]), [1.0, 2.0]) == kernel_F([1, 1], [1.0, 2.0])
        assert kernel_G(iter([1, 2]), [0.5]) == kernel_G([1, 2], [0.5])
        A, bs = _job(1, 3)
        got, want = eigenbasis(iter([1, 1]), A, bs), eigenbasis([1, 1], A, bs)
        assert got.qs == want.qs == (1, 1)
        for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G):
            assert route(got).tobytes() == route(want).tobytes()

    @pytest.mark.parametrize("call, error", [
        (lambda: eigenbasis([1, 0], np.eye(2), [np.eye(2)]), DecayViolation),
        (lambda: eigenbasis([1, 1], np.eye(2), []), SectorViolation),
        (lambda: eigenbasis([1, 1], np.eye(2), [np.eye(3)]), DimensionMismatch),
        (lambda: eigenbasis([1.5, 1], np.eye(2), [np.eye(2)]), InvalidInput),
        (lambda: eigenbasis([1, 1], np.eye(2), [np.eye(2)], delta=0.0), SectorViolation),
    ], ids=["decay", "factor-count", "factor-dim", "exponent", "empty-sector"])
    def test_the_constructor_refuses_for_every_route(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("route", [rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G])
    def test_a_route_takes_only_the_record(self, route):
        with pytest.raises(InvalidInput, match="eigenbasis"):
            route([1, 1])


def _records(qs):
    """Records of family ``qs`` at d = 1..6, with an exactly repeated
    eigenvalue and with eigenvalues that differ only in the sign of a zero
    imaginary part."""
    p = len(qs) - 1
    for d in range(1, 7):
        A, bs = _job(p, d)
        yield eigenbasis(qs, A, bs)
    repeated = np.diag([1.5, 0.7, 1.5, 0.7, 2.0]).astype(complex)
    signed = np.diag([complex(2.0, -0.0), complex(2.0, 0.0), complex(0.5, -0.0), 1.5 + 0.2j])
    for A in (repeated, signed):
        yield eigenbasis(qs, A, [np.eye(len(A))] * p)


def _dense_tuples(e):
    """The joint eigenvalue tuples of a record as a dense (d,) * (p+1) + (p+1,) array."""
    return np.stack(np.meshgrid(*[e.lam] * len(e.qs), indexing="ij"), axis=-1)


FAMILIES = [(1, 1), (2, 1), (1, 2, 1), (2, 1, 2, 1)]


class TestKernelsOnTheRecord:
    def test_the_records_hold_the_edge_spectra(self):
        *_, repeated, signed = _records((1, 1))
        assert len(set(repeated.lam.tolist())) == 3
        assert len({z.tobytes() for z in signed.lam}) == 4 and len(set(signed.lam.tolist())) == 3

    @pytest.mark.parametrize("qs", FAMILIES, ids=lambda qs: "".join(map(str, qs)))
    def test_record_equals_the_dense_tuples_bit_for_bit(self, qs):
        for e in _records(qs):
            s = _dense_tuples(e)
            for got, want in ((kernel_F(qs, e), kernel_F(qs, s)),
                              (kernel_G(qs, e), kernel_G(qs, s[..., 1:] / s[..., :1]))):
                assert got.shape == want.shape == (e.lam.size,) * len(qs)
                assert got.tobytes() == want.tobytes()

    def test_a_record_refuses_another_family(self):
        # the record checked its own family once; it holds no other
        A, bs = _job(2, 4)
        e = eigenbasis((1, 2, 1), A, bs)
        assert kernel_F(iter([1, 2, 1]), e).tobytes() == kernel_F((1.0, 2, 1), e).tobytes()
        for kernel in (kernel_F, kernel_G):
            for qs in ((3, 1, 1), (1, 1), (1.5, 1, 1)):
                with pytest.raises(DecayViolation, match=r"holds the family \[1, 2, 1\], not "
                                   + re.escape(str(list(qs)))):
                    kernel(qs, e)

    def test_each_slot_reads_its_arguments_off_lam(self, monkeypatch):
        # F: the d eigenvalues per slot; G: the one argument 1 for slot 0, the
        # d x d ratio table for every later slot; and no bit-pattern dedup
        seen = []

        def recorded(q):
            f = rational_function(q)

            def call(z):
                seen.append(z.shape[1:])
                return f(z)

            return call

        monkeypatch.setattr(rearrange, "rational_function", recorded)
        A, bs = _job(3, 5)
        e = eigenbasis((2, 1, 2, 1), A, bs)

        def refused(*args, **kwargs):
            raise AssertionError("np.unique called on the record path")

        monkeypatch.setattr(np, "unique", refused)
        kernel_F(e.qs, e)
        assert seen and set(seen) == {(5,)}
        seen.clear()
        kernel_G(e.qs, e)
        assert seen[:4] == [(1,), (25,), (25,), (25,)]
        assert set(seen) == {(1,), (25,)}

    @pytest.mark.parametrize("route, counts", [
        (rearrange_rhs_F, {"kernel_F": 1}), (rearrange_rhs_G, {"kernel_G": 1})])
    def test_a_route_calls_its_kernel_once(self, route, counts, monkeypatch):
        # the module globals are what perfbench's tracer wraps: rhs_G counted
        # kernel_F as well, since kernel_G called it through its global
        calls = {"kernel_F": 0, "kernel_G": 0}
        for name in calls:
            inner = getattr(rearrange, name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(rearrange, name, counted)
        A, bs = _job(2, 3)
        route(eigenbasis((1, 2, 1), A, bs))
        assert calls == {"kernel_F": 0, "kernel_G": 0, **counts}


@pytest.mark.parametrize("d", range(1, 9))
def test_the_three_way_residuals_are_opnorm_bit_for_bit(d):
    # one stacked SVD gives the four norms of verify.rearrangement
    from opcalc import verify

    rng = np.random.default_rng(d)
    z = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    tol = verify.tolerances(1.0)
    for lhs, F, G in ((z[0], z[0] + 1e-9 * z[1], z[0] + 1e-7 * z[2]), (0 * z[0], z[1], z[2])):
        got = verify.rearrangement(lhs, F, G, tol)
        scale = max(opnorm(lhs), 1e-300)
        want = [("rearrangement:lhs=rhs-F", opnorm(lhs - F) / scale),
                ("rearrangement:lhs=rhs-G", opnorm(lhs - G) / scale),
                ("rearrangement:rhs-F=rhs-G", opnorm(F - G) / scale)]
        assert [(r.identity, r.value) for r in got] == want
        assert [r.passed for r in got] == [v <= tol[name] for name, v in want]
