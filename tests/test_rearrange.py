import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcalc import (
    family_from_exponents,
    gen_matrix,
    kernel_F,
    kernel_G,
    matrix_exp,
    multikron,
    opnorm,
    pair,
    power_rational,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
    rel_err,
)
from opcalc import rearrange
from opcalc.core import TensorOperator, eigen_decompose
from opcalc.errors import (
    DecayViolation,
    NonDiagonalizable,
    QuadratureNoConvergence,
    SectorViolation,
)


def kron_oracle(fs, A, bs, route):
    """The rhs routes through the (p+1)-fold Kronecker eigenbasis: one scalar
    kernel per eigenvalue tuple on the diagonal, then the slotwise pairing."""
    p, d = len(bs), A.shape[0]
    lam, v, vinv = eigen_decompose(A)
    vals = np.empty(d ** (p + 1), dtype=complex)
    for flat, idx in enumerate(itertools.product(range(d), repeat=p + 1)):
        s = lam[list(idx)]
        vals[flat] = (kernel_F(fs, s) if route == "F"
                      else kernel_G(fs, s[1:] / s[0]))
    w, winv = multikron([v] * (p + 1)), multikron([vinv] * (p + 1))
    value = pair(TensorOperator((w * vals) @ winv, d, p + 1), bs)
    return value if route == "F" else np.linalg.inv(A) @ value


def modular_products(a, p):
    """exp(-nabla^(1)) ... exp(-nabla^(j)) for j = 1..p on p+1 slots, where
    nabla^(j) is the slot-(j-1) lift of ``a`` minus its slot-j lift."""
    eye = np.eye(a.shape[0])
    lifts = [multikron([a if k == j else eye for k in range(p + 1)]) for j in range(p + 1)]
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
        f = power_rational(q=3, p=1)
        assert f.decay_far == 2.0
        assert f.decay_near == -1.0

    def test_decay_gate(self):
        # sum of far exponents exactly 1 must be rejected, 2 accepted
        with pytest.raises(DecayViolation):
            kernel_F(family_from_exponents([1, 0]), [1.0, 1.0])
        kernel_F(family_from_exponents([1, 1]), [1.0, 1.0])
        # near-side gate: s^-1 factors push the small-u exponent sum to 1
        bad = [power_rational(2, p=-1), power_rational(2)]
        with pytest.raises(DecayViolation):
            kernel_F(bad, [1.0, 1.0])


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
            assert rel_err(multikron([A, eye, eye]) @ prod, multikron(lift)) <= 1e-10


class TestKernels:
    def test_F_frozen(self):
        fam = family_from_exponents([1, 1])
        # int (1+u)^-2 du = 1
        assert kernel_F(fam, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-9)

    def test_G_frozen(self):
        fam = family_from_exponents([1, 1])
        assert kernel_G(fam, [1.0]) == pytest.approx(1.0, rel=1e-9)
        # partial fractions: int (1+u)^-1 (1+2u)^-1 du = ln 2
        assert kernel_G(fam, [2.0]) == pytest.approx(np.log(2.0), rel=1e-9)

    def test_F_equals_G_at_one(self):
        fam = family_from_exponents([2, 1])
        assert kernel_F(fam, [1.0, 1.0]) == pytest.approx(
            kernel_G(fam, [1.0]), rel=1e-9
        )

    def test_scaling_identity(self):
        rng = np.random.default_rng(4)
        fam = family_from_exponents([1, 1])
        for _ in range(25):
            s = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(-0.3, 0.3, 2))
            F = kernel_F(fam, s)
            G = kernel_G(fam, [s[1] / s[0]])
            assert abs(F - G / s[0]) <= 1e-9 * abs(F)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        fam = family_from_exponents([2, 1])
        s = np.array([1.3, 0.7 + 0.2j])
        F = kernel_F(fam, s)
        for _ in range(10):
            c = rng.uniform(0.3, 3.0)
            assert abs(kernel_F(fam, c * s) - F / c) <= 1e-9 * abs(F)


class TestThreeWay:
    def test_diagonal_resolvent_square(self):
        # A diagonal, b = 1: int (1 + u lam)^-2 du = 1/lam entrywise
        fam = family_from_exponents([1, 1])
        lam = np.array([0.5, 2.0])
        got = rearrange_lhs(fam, np.diag(lam), [np.eye(2)])
        assert rel_err(got, np.diag(1.0 / lam)) <= 1e-9

    def test_identity_argument_factors_out(self):
        fam = family_from_exponents([1, 1])
        b = gen_matrix("random", 2, 6)
        got = rearrange_lhs(fam, np.eye(2), [b])
        assert rel_err(got, b) <= 1e-9  # F(1,1) = 1

    def test_rhs_F_diagonal_weights(self):
        # p = 1 diagonal: entry (i, j) weighs b by F(lam_i, lam_j)
        fam = family_from_exponents([1, 1])
        lam = np.array([0.5, 1.5])
        b = gen_matrix("random", 2, 7)
        got = rearrange_rhs_F(fam, np.diag(lam), [b])
        want = np.array(
            [[kernel_F(fam, [lam[i], lam[j]]) * b[i, j] for j in range(2)]
             for i in range(2)]
        )
        assert rel_err(got, want) <= 1e-9

    def test_rhs_F_trivial_log(self):
        fam = family_from_exponents([1, 1])
        b = gen_matrix("random", 2, 10)
        got = rearrange_rhs_F(fam, np.eye(2), [b])
        assert rel_err(got, kernel_F(fam, [1.0, 1.0]) * b) <= 1e-9

    def test_rhs_G_trivial_log(self):
        fam = family_from_exponents([1, 1])
        b = gen_matrix("random", 2, 8)
        got = rearrange_rhs_G(fam, np.eye(2), [b])
        assert rel_err(got, b) <= 1e-9

    def test_rhs_G_diagonal_pattern(self):
        fam = family_from_exponents([1, 1])
        lam = np.array([0.5, 1.5])
        b = gen_matrix("random", 2, 9)
        got = rearrange_rhs_G(fam, np.diag(lam), [b])
        want = np.array(
            [[kernel_G(fam, [lam[j] / lam[i]]) / lam[i] * b[i, j] for j in range(2)]
             for i in range(2)]
        )
        assert rel_err(got, want) <= 1e-9

    @pytest.mark.parametrize("p,dim,qs", [(1, 2, [1, 1]), (1, 3, [2, 1]), (2, 2, [1, 1, 1])])
    def test_three_way_agreement(self, p, dim, qs):
        fam = family_from_exponents(qs)
        a = gen_matrix("hermitian", dim, 11 * p + dim)
        A = matrix_exp(a)
        bs = [gen_matrix("random", dim, 20 + j) for j in range(p)]
        lhs = rearrange_lhs(fam, A, bs, delta=0.3)
        rf = rearrange_rhs_F(fam, A, bs, delta=0.3)
        rg = rearrange_rhs_G(fam, A, bs, delta=0.3)
        scale = max(opnorm(lhs), 1e-300)
        assert opnorm(lhs - rf) / scale <= 1e-6
        assert opnorm(lhs - rg) / scale <= 1e-6
        assert opnorm(rf - rg) / scale <= 1e-6

    def test_non_hermitian_inside_sector(self):
        # small skew part keeps the spectrum in the sector; still three-way
        fam = family_from_exponents([1, 1])
        a = gen_matrix("hermitian", 2, 30) + 0.1j * gen_matrix("hermitian", 2, 31)
        assert np.all(np.abs(np.linalg.eigvals(a).imag) < 0.3)
        A = matrix_exp(a)
        b = gen_matrix("random", 2, 32)
        lhs = rearrange_lhs(fam, A, [b], delta=0.3)
        rf = rearrange_rhs_F(fam, A, [b], delta=0.3)
        assert rel_err(lhs, rf) <= 1e-6

    def test_sector_gate(self):
        fam = family_from_exponents([1, 1])
        bad = np.diag([-1.0, 1.0])  # negative real eigenvalue: outside any sector
        with pytest.raises(SectorViolation):
            rearrange_lhs(fam, bad, [np.eye(2)])


class TestJointEigenbasis:
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(p=st.integers(0, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           spread=st.floats(0.0, 1.5), q0=st.integers(2, 3),
           qs=st.lists(st.integers(1, 3), min_size=3, max_size=3))
    @example(p=3, d=3, seed=44, spread=1.5, q0=2, qs=[1, 1, 1])
    def test_rhs_matches_kronecker_oracle(self, p, d, seed, spread, q0, qs):
        # f_0 decays like s^-2 or faster, so every p passes the decay gate
        fs = family_from_exponents([q0, *qs[:p]])
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = z + z.conj().T
        A = matrix_exp(spread * h / max(opnorm(h), 1e-300))
        bs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for _ in range(p)]
        for route, fn in (("F", rearrange_rhs_F), ("G", rearrange_rhs_G)):
            want = kron_oracle(fs, A, bs, route)
            assert rel_err(fn(fs, A, bs), want) <= 1e-12

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
        route(family_from_exponents([1, 1, 1, 1]), A, bs)
        assert len(calls) == 1

    def test_p0_is_kernel_of_A(self):
        # no factors: V diag(K(lam)) V^-1, here K(s) = int (1+us)^-2 du = 1/s
        fs = family_from_exponents([2])
        A = matrix_exp(gen_matrix("hermitian", 3, 42))
        inv = np.linalg.inv(A)
        assert rel_err(rearrange_rhs_F(fs, A, []), inv) <= 1e-9
        assert rel_err(rearrange_rhs_G(fs, A, []), inv) <= 1e-9
        assert rel_err(rearrange_lhs(fs, A, []), inv) <= 1e-9

    def test_batched_kernel_F_matches_per_tuple(self):
        fs = family_from_exponents([2, 1, 1])
        rng = np.random.default_rng(43)
        s = (rng.uniform(0.3, 3.0, (4, 5, 3))
             * np.exp(1j * rng.uniform(-0.4, 0.4, (4, 5, 3))))
        batch = kernel_F(fs, s)
        assert batch.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            single = kernel_F(fs, s[idx])
            assert isinstance(single, complex)
            assert abs(batch[idx] - single) <= 1e-13 * abs(single)

    def test_kernel_G_is_kernel_F_at_one(self):
        fs = family_from_exponents([1, 2, 1])
        lam = [0.7 + 0.1j, 1.9 - 0.2j]
        assert kernel_G(fs, lam) == kernel_F(fs, [1, *lam])

    def test_jordan_block_refused_by_every_route(self):
        fs = family_from_exponents([1, 1])
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        for route in (rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G):
            with pytest.raises(NonDiagonalizable):
                route(fs, jordan, [np.eye(2)])

    def test_pole_on_the_half_line_raises(self):
        # (1 - u)^-1 (1 + u)^-1 has a pole at u = 1, a Kronrod node
        fs = family_from_exponents([1, 1])
        with np.errstate(all="ignore"):
            with pytest.raises(QuadratureNoConvergence):
                kernel_F(fs, [-1, 1])
            with pytest.raises(QuadratureNoConvergence):
                kernel_F(fs, [[1, 1], [-1, 1], [2, 1]])
