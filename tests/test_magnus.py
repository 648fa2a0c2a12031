import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from opcalc import (
    bernoulli,
    gen_matrix,
    magnus_rhs,
    magnus_solve,
    matrix_exp,
    opnorm,
    rel_err,
    rk_reference,
)
from opcalc import magnus
from opcalc.core import as_matrix, commutator
from opcalc.errors import (
    BranchRadiusExceeded,
    DimensionMismatch,
    InvalidInput,
    QuadratureNoConvergence,
    StepRejected,
)
from opcalc.magnus import builtin_field, field_from_samples, perturbed_triangular_field, triangular_field
from opcalc.quadrature import gauss_legendre_01


def _nested_commutator_rhs(om, a, order):
    """The series summed as written: nested commutators, term by term."""
    series = magnus._coefficients(order)
    x, total = a, series[0] * a
    for n in range(1, order + 1):
        x = om @ x - x @ om
        if series[n] != 0.0:
            total = total + series[n] * x
    return total


def _outer_product_ad(om):
    """ad_Omega = Omega (x) I - I (x) Omega^T from two outer products: row
    (i, k), column (j, l) holds Omega[i, j] delta_kl - delta_ij Omega[l, k]."""
    d = om.shape[0]
    eye = magnus._identity(d)
    ad = np.multiply.outer(om, eye) - np.multiply.outer(eye, om.T)
    return ad.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _matmul_rhs(omega, a_t, order):
    """``magnus_rhs`` with its Krylov rows and series through ``np.matmul``:
    the ``ndarray.dot`` rows are held to it bit for bit."""
    coefficients = magnus._coefficients(order)
    om = as_matrix(omega)
    d = om.shape[0]
    x = as_matrix(a_t, dim=d)
    if d > 8:
        total = coefficients[0] * x
        for c in coefficients[1:]:
            x = commutator(om, x)
            if c != 0.0:
                total = total + c * x
        return total
    ad = _outer_product_ad(om)
    block = np.empty((order + 1, d * d), dtype=complex)
    block[0] = x.ravel()
    for previous, row in zip(block, block[1:]):
        np.matmul(ad, previous, out=row)
    return (coefficients @ block).reshape(d, d)


def _matmul_reference_pass(A, y0, stops, h):
    """``magnus._reference_pass`` with its states multiplied up through ``@``."""
    grid = magnus._grid(stops, h)
    k1, a_mid, a_end = magnus._stage_fields(A, grid, y0.shape[0])
    moving = [(t, step) for t, step, _ in grid if step != 0.0]
    s = np.array([step for _, step in moving]).reshape(-1, 1, 1)
    k2 = a_mid + (0.5 * s) * (a_mid @ k1)
    k3 = a_mid + (0.5 * s) * (a_mid @ k2)
    k4 = a_end + s * (a_end @ k3)
    matrices = iter(magnus._identity(y0.shape[0]) + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    y, states, path = y0, [], []
    for _, step, stop in grid:
        if step == 0.0:
            states.append(y)
            continue
        path.append(next(matrices) @ y)
        if stop >= 0:
            states.append(path[-1])
        else:
            y = path[-1]
    if path:
        finite = np.isfinite(np.array(path)).all(axis=(1, 2))
        if not finite.all():
            t0, s0 = moving[int(np.argmin(finite))]
            raise StepRejected(f"non-finite state at t = {t0 + s0:g}")
    return states


def _four_read_rk4(field, rhs, y0, stops, h):
    """The RK4 stepper that reads the field at every stage: the oracle of
    both passes, the solve's (``rhs`` the series) and the reference's
    (``rhs`` the product)."""
    t_end = stops[-1]

    def stage(t, y):
        return rhs(field(t), y)

    def advance(t, y, step, k1):
        k2 = stage(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = stage(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = stage(t + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y.view(float))):
            raise StepRejected(f"non-finite state at t = {t + step:g}")
        return y

    y = y0.copy()
    t = 0.0
    states = []
    while True:
        step = min(h, t_end - t)
        k1 = None
        while len(states) < len(stops):
            stop = stops[len(states)]
            if t >= stop - 1e-14 * max(1.0, stop):
                states.append(y)
            elif stop - t < step:
                k1 = stage(t, y) if k1 is None else k1
                states.append(advance(t, y, stop - t, k1))
            else:
                break
        if len(states) == len(stops):
            return states
        y = advance(t, y, step, stage(t, y) if k1 is None else k1)
        t += step


def _four_read_solve(A, t_end, h, order, checkpoints=None):
    """``magnus_solve``'s return for a 2 x 2 field, from the stage-wise stepper."""
    omegas = _four_read_rk4(A, lambda a, om: magnus_rhs(om, a, order),
                            np.zeros((2, 2), dtype=complex), magnus._stops(t_end, checkpoints), h)
    if checkpoints is None:
        return omegas[-1], matrix_exp(omegas[-1])
    return [(om, matrix_exp(om)) for om in omegas[:-1]]


class TestBernoulli:
    def test_frozen_values(self):
        tab = bernoulli(8)
        assert len(tab) == 9
        assert all(type(b) is Fraction for b in tab)
        assert tab[0] == 1
        assert tab[1] == Fraction(-1, 2)
        assert tab[2] == Fraction(1, 6)
        assert tab[4] == Fraction(-1, 30)
        assert tab[6] == Fraction(1, 42)
        assert tab[8] == Fraction(-1, 30)

    def test_odd_vanish(self):
        tab = bernoulli(15)
        for k in range(3, 16, 2):
            assert tab[k] == 0

    def test_cap(self):
        bernoulli(30)
        with pytest.raises(ValueError):
            bernoulli(31)


class TestRhs:
    def test_zero_log(self):
        a = gen_matrix("random", 3, 0)
        got = magnus_rhs(np.zeros((3, 3)), a, order=8)
        assert rel_err(got, a) < 1e-14

    def test_commuting(self):
        h = gen_matrix("hermitian", 2, 1)
        got = magnus_rhs(0.3 * h, h, order=10)
        assert rel_err(got, h) < 1e-13

    def test_series_is_the_per_term_quotient(self):
        # the coefficients bit for bit B_n / n!, divided out at every term;
        # the sum, taken through the ad matrix, to rounding of the
        # nested-commutator sum
        tab = bernoulli(28)
        assert magnus._coefficients(28).tolist() == [
            float(tab[n]) / math.factorial(n) for n in range(29)
        ]
        om = 0.3 * gen_matrix("random", 2, 13)
        a = gen_matrix("random", 2, 14)
        expected = _nested_commutator_rhs(om, a, 28)
        assert rel_err(magnus_rhs(om, a, order=28), expected) <= 1e-14

    @pytest.mark.parametrize("order", [0, 1, 2, 8, 28, 30])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_ad_matrix_is_the_nested_commutators(self, d, order):
        # both sides of the d <= 8 gate, with |Omega| up to 0.99 pi
        rng = np.random.default_rng(d)
        for scale in (0.3, 0.99 * np.pi):
            om, a = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
            om = scale * om / opnorm(om)
            expected = _nested_commutator_rhs(om, a, order)
            assert rel_err(magnus_rhs(om, a, order), expected) <= 1e-14

    @pytest.mark.parametrize("order", [0, 1, 8, 28, 30])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_rows_equal_the_matmul_rows(self, d, order):
        # bit for bit: ndarray.dot reaches the gemv that np.matmul does; above
        # d = 8 the nested commutators are unchanged
        rng = np.random.default_rng(100 + d)
        complex_om = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        real_om = rng.standard_normal((d, d))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        omegas = [complex_om, real_om]
        if d > 1:
            # departure from normality sqrt(|Omega|_F^2 - sum |lambda|^2) >= 1e2
            skewed = np.diag(rng.standard_normal(d)) + 100.0 * np.triu(np.ones((d, d)), 1)
            eigs = np.linalg.eigvals(skewed)
            assert np.sqrt(np.vdot(skewed, skewed).real - np.vdot(eigs, eigs).real) >= 1e2
            omegas.append(skewed)
        for om in omegas:
            for x in (a, a.real):
                assert np.array_equal(magnus_rhs(om, x, order), _matmul_rhs(om, x, order))

    def test_series_tail(self):
        om = 0.1 * gen_matrix("random", 2, 2)
        a = gen_matrix("random", 2, 3)
        low = magnus_rhs(om, a, order=6)
        high = magnus_rhs(om, a, order=12)
        assert opnorm(low - high) <= 1e-9


class TestWorkspace:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_gathered_ad_equals_the_outer_products(self, d):
        # value for value; a structural zero may differ only in its sign
        rng = np.random.default_rng(200 + d)
        omegas = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                  rng.standard_normal((d, d)), np.zeros((d, d))]
        if d > 1:
            skewed = np.diag(rng.standard_normal(d)) + 100.0 * np.triu(np.ones((d, d)), 1)
            eigs = np.linalg.eigvals(skewed)
            assert np.sqrt(np.vdot(skewed, skewed).real - np.vdot(eigs, eigs).real) >= 1e2
            omegas.append(skewed)
        a = rng.standard_normal((d, d))
        for order in (1, 8):
            for om in omegas:
                magnus_rhs(om, a, order)
                ad = magnus._WORKSPACES.by_size[order, d][7]  # the ad_Omega buffer
                assert np.array_equal(ad, _outer_product_ad(as_matrix(om)))

    def test_a_result_never_aliases_the_workspace(self):
        rng = np.random.default_rng(7)
        om1, a1, om2, a2 = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        first = magnus_rhs(om1, a1, 8)
        kept = first.copy()
        magnus_rhs(om2, a2, 8)
        assert np.array_equal(first, kept)
        assert not any(np.shares_memory(first, part)
                       for part in magnus._WORKSPACES.by_size[8, 3] if isinstance(part, np.ndarray))

    def test_concurrent_threads_get_the_serial_results(self):
        # two threads per (order, d) and inputs that differ: a workspace shared
        # between threads would mix their stages
        rng = np.random.default_rng(11)
        cases = []
        for order, d in ((28, 2), (28, 2), (8, 3), (8, 3)):
            om, a = 0.3 * (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
            cases.append((om, a, order, magnus_rhs(om, a, order)))
        barrier = threading.Barrier(len(cases))
        mismatches = [0] * len(cases)

        def work(k):
            om, a, order, expected = cases[k]
            barrier.wait(timeout=60)
            for _ in range(300):
                mismatches[k] += not np.array_equal(magnus_rhs(om, a, order), expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [0] * len(cases)

    def test_above_d_8_builds_none(self):
        rng = np.random.default_rng(9)
        om, a = rng.standard_normal((2, 9, 9))
        sizes = []

        def work():
            magnus_rhs(om, a, 8)
            sizes.append(dict(magnus._WORKSPACES.by_size))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and sizes == [{}]


def _stage_inputs(case: str, d: int):
    """(Omega, A(t)) of one malformed stage: each case breaks one thing."""
    rng = np.random.default_rng(300 + d)
    om, a = 0.3 * (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
    if case == "omega-nan":
        om[0, -1] = np.nan
    elif case == "omega-inf-imag":
        om[-1, 0] = complex(0.0, np.inf)
    elif case == "a-nan":
        a[-1, -1] = np.nan
    elif case == "a-inf":
        a[0, 0] = -np.inf
    elif case == "both-not-finite":
        om[0, 0] = a[0, 0] = np.nan
    elif case == "real-a-nan":
        a = a.real.copy()
        a[0, -1] = np.nan
    elif case == "a-dimension":
        a = np.eye(d + 1)
    elif case == "omega-not-square":
        om = np.ones((d, d + 1))
    elif case == "omega-vector":
        om = om[0]
    elif case == "empty":
        om = a = np.zeros((0, 0))
    elif case == "list-omega-nan":
        om[1, 1] = np.nan
        om = om.tolist()
    elif case == "list-a-dimension":
        a = np.eye(d - 1).tolist()
    return om, a


_BAD_STAGES = ["omega-nan", "omega-inf-imag", "a-nan", "a-inf", "both-not-finite", "real-a-nan",
               "a-dimension", "omega-not-square", "omega-vector", "empty", "list-omega-nan",
               "list-a-dimension"]


class TestStageInputs:
    """A stage's Omega and A(t) are copied side by side into the workspace
    and checked there in one scan; a bad input raises what ``as_matrix``
    raises, and leaves nothing behind."""

    @pytest.mark.parametrize("order", [0, 12])
    @pytest.mark.parametrize("d", [2, 9])
    @pytest.mark.parametrize("case", _BAD_STAGES)
    def test_a_bad_input_raises_what_as_matrix_raises(self, case, d, order):
        # d = 9 takes the nested commutators; order 0 has no Krylov row
        om, a = _stage_inputs(case, d)
        with pytest.raises(DimensionMismatch) as want:
            as_matrix(a, dim=as_matrix(om).shape[0])
        with pytest.raises(DimensionMismatch) as got:
            magnus_rhs(om, a, order)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("order", [0, 12])
    @pytest.mark.parametrize("d", [2, 9])
    def test_lists_and_real_arrays_give_the_array_bits(self, d, order):
        rng = np.random.default_rng(400 + d)
        om, a = 0.3 * rng.standard_normal((2, d, d))
        for args in ((om, a), (om.tolist(), a.tolist()), (om.astype(int), a)):
            want_args = [np.asarray(x, dtype=complex) for x in args]
            assert magnus_rhs(*args, order).tobytes() == magnus_rhs(*want_args, order).tobytes()

    @pytest.mark.parametrize("order", [0, 12])
    @pytest.mark.parametrize("d", [2, 3])
    def test_a_refused_call_leaves_no_trace(self, d, order):
        # the next call returns the bits of a thread whose workspace is new
        rng = np.random.default_rng(500 + d)
        om, a = 0.3 * (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(magnus_rhs(om, a, order)))
        thread.start()
        thread.join(timeout=60)
        for case in ("omega-nan", "a-inf", "both-not-finite"):
            with pytest.raises(DimensionMismatch):
                magnus_rhs(*_stage_inputs(case, d), order)
            assert magnus_rhs(om, a, order).tobytes() == fresh[0].tobytes()


class TestTriangularClosedForm:
    """The triangular field [[2, t], [0, -1]] has the exact propagator
    Y11 = e^(2t), Y22 = e^(-t), Y12 = e^(2t) (1 - e^(-3t) (1 + 3t)) / 9,
    an oracle that shares no code with either Magnus pass.  Both are
    compared with it at the checkpoints of ``opcalc magnus --rows 20``
    (h = 0.005, t_end = 1: every tenth step)."""

    H = 0.005
    TIMES = [k * 0.005 for k in range(10, 200, 10)] + [1.0]

    @staticmethod
    def exact(t: float) -> np.ndarray:
        y12 = np.exp(2.0 * t) * (1.0 - np.exp(-3.0 * t) * (1.0 + 3.0 * t)) / 9.0
        return np.array([[np.exp(2.0 * t), y12], [0.0, np.exp(-t)]])

    def worst(self, ys) -> float:
        return max(rel_err(y, self.exact(t)) for t, y in zip(self.TIMES, ys, strict=True))

    # truncation errors measured at these checkpoints: 1.3e-11, 3.2e-8, 2.1e-5
    @pytest.mark.parametrize("order, bound", [(28, 5e-11), (16, 1e-7), (8, 5e-5)])
    def test_magnus_solve(self, order, bound):
        path = magnus_solve(triangular_field(), 1.0, self.H, order, checkpoints=self.TIMES)
        assert self.worst([y for _, y in path]) <= bound

    def test_rk_reference(self):
        # measured 6.2e-13 at these checkpoints
        assert self.worst(rk_reference(triangular_field(), 1.0, checkpoints=self.TIMES)) <= 5e-12


class TestSolve:
    def test_constant_field(self):
        a0 = 0.5 * gen_matrix("random", 2, 4)
        omega, y = magnus_solve(lambda t: a0, 2.0, h=0.01, order=8)
        assert rel_err(omega, 2.0 * a0) < 1e-10
        assert rel_err(y, matrix_exp(2.0 * a0)) < 1e-9

    def test_scalar_cosine(self):
        omega, _ = magnus_solve(
            lambda t: np.array([[np.cos(t)]], dtype=complex), 1.0, h=1 / 200, order=8
        )
        assert omega[0, 0] == pytest.approx(np.sin(1.0), rel=1e-10)

    def test_triangular_vs_reference(self):
        field = triangular_field()
        _, y = magnus_solve(field, 1.0, h=1 / 200, order=28)
        ref = rk_reference(field, 1.0)
        assert opnorm(y - ref) <= 1e-6

    def test_branch_radius(self):
        big = np.array([[0.0, 4.0], [-4.0, 0.0]], dtype=complex)
        with pytest.raises(BranchRadiusExceeded):
            magnus_solve(lambda t: big, 2.0, h=0.01, order=8)

    @pytest.mark.parametrize("entries, refused_at, svds", [
        ([[0.5, 6.0], [0.0, -0.5]], "0.53", 1),
        # |Omega|_F >= pi from t = 1.29 while |Omega|_2 < pi until 1.31
        ([[1.0, 2.0], [0.0, -1.0]], "1.31", 3),
    ])
    def test_branch_radius_without_trace(self, monkeypatch, entries, refused_at, svds):
        # without a trace the SVD runs only once |Omega|_F reaches pi, and
        # refuses at the step, with the message, of the SVD at every step
        a0 = np.array(entries, dtype=complex)
        norms = []

        def counted_opnorm(m):
            norms.append(opnorm(m))
            return norms[-1]

        with pytest.raises(BranchRadiusExceeded) as traced:
            magnus_solve(lambda t: a0, 2.0, h=0.01, order=8, trace=[])
        monkeypatch.setattr(magnus, "opnorm", counted_opnorm)
        with pytest.raises(BranchRadiusExceeded) as untraced:
            magnus_solve(lambda t: a0, 2.0, h=0.01, order=8)
        assert str(untraced.value) == str(traced.value)
        assert str(traced.value).endswith(f"at t = {refused_at}")
        assert len(norms) == svds and norms[-1] >= np.pi > max(norms[:-1], default=0.0)

    def test_nan_rejected(self):
        def field(t):
            return np.array([[np.nan if t > 0.4 else 0.1]], dtype=complex)

        with pytest.raises(StepRejected):
            magnus_solve(field, 1.0, h=0.1, order=4)

    def test_step_halving_order(self):
        field = triangular_field()
        ref = rk_reference(field, 1.0)
        d1 = opnorm(magnus_solve(field, 1.0, h=0.1, order=28)[1] - ref)
        d2 = opnorm(magnus_solve(field, 1.0, h=0.05, order=28)[1] - ref)
        assert d2 > 1e-11  # above the floor, the ratio is meaningful
        assert d1 / d2 >= 8.0

    def test_commuting_field_exactness(self):
        # A(t) = cos(t) C: the log is the plain integral sin(t) C
        c = gen_matrix("hermitian", 2, 5)
        omega, _ = magnus_solve(lambda t: np.cos(t) * c, 1.0, h=1 / 200, order=8)
        assert rel_err(omega, np.sin(1.0) * c) <= 1e-9

    def test_antihermitian_field_preserves_unitarity(self):
        h0 = gen_matrix("hermitian", 3, 9)
        h1 = gen_matrix("hermitian", 3, 10)

        def field(t):
            return 1j * (h0 + np.sin(t) * h1)

        omega, y = magnus_solve(field, 1.0, h=1 / 200, order=12)
        assert opnorm(omega + omega.conj().T) <= 1e-9  # anti-Hermitian log
        assert opnorm(y.conj().T @ y - np.eye(3)) <= 1e-9
        assert opnorm(y - rk_reference(field, 1.0)) <= 1e-6

    def test_trace_rows(self):
        trace = []
        magnus_solve(triangular_field(), 0.5, h=0.1, order=8, trace=trace)
        assert len(trace) == 5
        assert trace[-1][0] == pytest.approx(0.5)


class TestCheckpoints:
    def test_each_checkpoint_is_its_own_solve(self):
        # bit for bit: one pass reads the states a solve ending there returns
        field = perturbed_triangular_field(3)
        h = 0.006
        times = [0.0, 7 * h, 0.1, 0.25, 50 * h, 0.7, 1.0]
        path = magnus_solve(field, 1.0, h, 16, checkpoints=times)
        assert len(path) == len(times)
        for t, (omega, y) in zip(times, path):
            single = magnus_solve(field, t, h, 16)
            assert np.array_equal(omega, single[0])
            assert np.array_equal(y, single[1])

    def test_reference_checkpoints_agree(self):
        field = perturbed_triangular_field(4)
        times = [0.1, 0.37, 0.5, 1.0]
        path = rk_reference(field, 1.0, checkpoints=times)
        assert np.array_equal(path[-1], rk_reference(field, 1.0))
        for t, y in zip(times, path):
            assert opnorm(y - rk_reference(field, t)) <= 1e-10 * opnorm(y)

    def test_halving_stops_when_every_checkpoint_converged(self):
        # y1 oscillates on [0, 1/2], then decays by e^-10, so |Y(1)| no longer
        # sees its error: converging at t = 1 alone would leave t = 1/2 at 1e-10
        def field(t):
            return np.diag([30 * np.cos(60 * t) - 80 * max(t - 0.5, 0.0), 0.0]).astype(complex)

        y = rk_reference(field, 1.0, checkpoints=[0.5])[0]
        exact = np.diag([np.exp(0.5 * np.sin(30.0)), 1.0])
        assert rel_err(y, exact) <= 1e-11

    def test_near_coincident_stops_take_no_empty_step(self):
        # 15 * 0.03 = 0.44999999999999996 sits within rounding of t_end = 0.45
        h, t_end = 0.03, 0.45
        times = [k * h for k in range(1, 16)] + [t_end]
        trace = []
        path = magnus_solve(triangular_field(), t_end, h, 8, trace=trace, checkpoints=times)
        assert len(path) == len(times)
        stepped = [t for t, _ in trace]
        assert all(b > a for a, b in zip(stepped, stepped[1:]))
        assert np.array_equal(path[-1][0], magnus_solve(triangular_field(), t_end, h, 8)[0])

    def test_end_time_on_grid_takes_no_extra_step(self):
        field, calls = triangular_field(), []

        def A(t):
            calls.append(t)
            return field(t)

        magnus_solve(A, 0.5, 0.125, 4, checkpoints=[0.125, 0.25, 0.375, 0.5])
        # the dimension read, the first stage, then a midpoint and an end per step
        assert len(calls) == 1 + 1 + 2 * 4

    def test_landing_steps_share_the_first_stage(self, monkeypatch):
        # the 21 checkpoints of `magnus --rows 20 --h 0.008` sit off the grid
        # by rounding, so 19 are reached by a landing step from the grid time
        # before them; each landing step reads the field at 2 times and adds
        # 3 stages to the 500 of the plain 125-step solve.  One that
        # recomputed the first stage would make 576 stages.
        field, calls, stages = triangular_field(), [], []

        def A(t):
            calls.append(t)
            return field(t)

        def counted_rhs(*args):
            stages.append(1)
            return magnus_rhs(*args)

        h = 0.008
        times = [k * h for k in range(6, 125, 6)] + [1.0]
        monkeypatch.setattr(magnus, "magnus_rhs", counted_rhs)
        path = magnus_solve(A, 1.0, h, 8, checkpoints=times)
        monkeypatch.undo()
        assert len(times) == 21
        assert len(calls) == 252 + 2 * 19 and len(stages) == 500 + 3 * 19
        assert np.array_equal(path[-1][0], magnus_solve(triangular_field(), 1.0, h, 8)[0])

    def test_zero_end_time(self):
        path = rk_reference(triangular_field(), 0.0, checkpoints=[0.0])
        assert np.array_equal(path[0], np.eye(2))

    @pytest.mark.parametrize("t_end", [-1.0, np.inf, np.nan])
    def test_bad_end_time(self, t_end):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), t_end, 0.01, 8)
        with pytest.raises(ValueError):
            rk_reference(triangular_field(), t_end)

    @pytest.mark.parametrize("times", [[0.5, 0.25], [-0.1, 0.5], [0.5, 2.0]])
    def test_bad_checkpoints(self, times):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), 1.0, 0.01, 8, checkpoints=times)
        with pytest.raises(ValueError):
            rk_reference(triangular_field(), 1.0, checkpoints=times)

    def test_zero_step(self):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), 1.0, 0.0, 8)

    def test_step_count_past_the_cap(self):
        # 1e12 steps: refused before the grid is laid out or the field read
        calls = []

        def A(t):
            calls.append(t)
            return triangular_field()(t)

        with pytest.raises(InvalidInput, match=r"t_end / h = 1e\+12 steps, more than 2\*\*20"):
            magnus_solve(A, 1.0, 1e-12, 8)
        assert calls == []


class TestFieldReads:
    """One field read per distinct time, with the states of four reads per step."""

    @staticmethod
    def counted(field):
        calls = []

        def A(t):
            calls.append(t)
            return field(t)

        return A, calls

    @pytest.mark.parametrize("name", ["triangular", "perturbed:7"])
    @pytest.mark.parametrize("times", [None, [7 * 0.006, 0.1, 0.25, 0.5, 0.7, 1.0]])
    def test_states_equal_the_four_read_stepper(self, name, times):
        # the solve only: the reference's passes are held to the stage-wise
        # stepper in TestReferencePass
        field = builtin_field(name)
        h = 0.006
        got_log = magnus_solve(field, 1.0, h, 16, checkpoints=times)
        want_log = _four_read_solve(field, 1.0, h, 16, checkpoints=times)
        if times is None:
            got_log, want_log = [got_log], [want_log]
        for (om, y), (om_want, y_want) in zip(got_log, want_log, strict=True):
            assert np.array_equal(om, om_want) and np.array_equal(y, y_want)

    def test_read_times_are_the_distinct_stage_times(self):
        new, new_calls = self.counted(triangular_field())
        magnus_solve(new, 1.0, 0.008, 8)
        old, old_calls = self.counted(triangular_field())
        _four_read_solve(old, 1.0, 0.008, 8)
        assert set(new_calls) == set(old_calls)

    def test_plain_solve(self):
        # 125 steps: the dimension read, the first stage, 2 per step (was 501)
        A, calls = self.counted(triangular_field())
        magnus_solve(A, 1.0, 0.008, 8)
        assert len(calls) == 1 + 1 + 2 * 125

    def test_reference_solve(self):
        # 64 + 128 + 256 steps in three passes: the dimension read, then the
        # 129, 257 and 513 distinct stage times of each pass, read afresh
        A, calls = self.counted(triangular_field())
        rk_reference(A, 1.0)
        assert len(calls) == 1 + 129 + 257 + 513 == 900
        passes = [calls[1:130], calls[130:387], calls[387:]]
        assert [len(set(times)) for times in passes] == [129, 257, 513]
        assert all(times == sorted(times) for times in passes)

    @pytest.mark.parametrize("name", ["triangular", "perturbed:7"])
    @pytest.mark.parametrize("t_end", [1.0, 0.3, 0.45])
    def test_each_pass_reads_its_own_stage_times(self, monkeypatch, name, t_end):
        # one stack per pass of the distinct stage times of its own grid, in
        # increasing order, whether the grids of consecutive passes share
        # their times (t_end = 1) or round apart (0.3 and 0.45); the states
        # are bit for bit the pass's own
        field, reference_pass, passes, stacks = builtin_field(name), magnus._reference_pass, [], []
        stack = field.stack

        def counted_stack(times):
            stacks.append(times.tolist())
            return stack(times)

        def recorded_pass(A, y0, stops, h):
            states = reference_pass(A, y0, stops, h)
            passes.append((stops, h, states))
            return states

        field.stack = counted_stack
        monkeypatch.setattr(magnus, "_reference_pass", recorded_pass)
        rk_reference(field, t_end)
        monkeypatch.undo()
        # the dimension read A(0.0), then one stack per pass
        assert len(passes) == 3 and stacks[0] == [0.0] and len(stacks) == 4
        fresh, eye = builtin_field(name), np.eye(2, dtype=complex)
        for (stops, h, states), times in zip(passes, stacks[1:], strict=True):
            staged = []

            def staged_field(t):
                staged.append(t)
                return fresh(t)

            _four_read_rk4(staged_field, np.matmul, eye, stops, h)
            assert times == sorted(set(staged))
            want = _matmul_reference_pass(fresh, eye, stops, h)
            assert [y.tobytes() for y in states] == [y.tobytes() for y in want]


_SAMPLE_SETS = {
    "two": ([0.0, 1.0], [gen_matrix("hermitian", 2, 9), gen_matrix("hermitian", 2, 10)]),
    "unsorted-real": ([0.7, -0.2, 0.3, 0.05], [np.diag([1.0, 2.0 + k]) for k in range(4)]),
    "d3": ([0.0, 0.125, 0.5, 0.75, 1.0], [0.5 * gen_matrix("random", 3, 20 + k) for k in range(5)]),
}


def _sampled(name):
    return field_from_samples(*_SAMPLE_SETS[name])


class TestStackReads:
    """A field the library builds reads an array of times as one stack, bit
    for bit its per-time values, and each pass reads it once."""

    @pytest.mark.parametrize("field", [
        pytest.param(lambda: triangular_field(), id="triangular"),
        pytest.param(lambda: builtin_field("perturbed:7"), id="perturbed-7"),
        pytest.param(lambda: perturbed_triangular_field(123), id="perturbed-123"),
        *[pytest.param(lambda name=name: _sampled(name), id=f"samples-{name}")
          for name in _SAMPLE_SETS],
    ])
    def test_the_stack_is_the_per_time_values(self, field):
        field = field()
        rng = np.random.default_rng(5)
        samples = [t for ts, _ in _SAMPLE_SETS.values() for t in ts]
        # at, before and after every sample time, and between them
        times = np.sort(np.concatenate([
            rng.uniform(-0.5, 1.5, 400), samples, np.nextafter(samples, -np.inf),
            np.nextafter(samples, np.inf), [-3.0, 0.0, 1.0, 7.0, 2.0**-30]]))
        got = field.stack(times)
        want = np.array([field(t) for t in times.tolist()], dtype=complex)
        assert got.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert field.stack(times[:0]).shape == (0,) + want.shape[1:]

    @pytest.mark.parametrize("name", ["triangular", "perturbed:7", "samples"])
    @pytest.mark.parametrize("times", [None, [7 * 0.006, 0.1, 0.25, 0.5, 0.7, 1.0]])
    def test_passes_equal_the_passes_on_a_plain_wrapper(self, name, times):
        field = _sampled("d3") if name == "samples" else builtin_field(name)

        def plain(t):
            return field(t)

        for got, want in [(magnus_solve(field, 1.0, 0.006, 16, checkpoints=times),
                           magnus_solve(plain, 1.0, 0.006, 16, checkpoints=times)),
                          (rk_reference(field, 1.0, checkpoints=times),
                           rk_reference(plain, 1.0, checkpoints=times))]:
            assert _flat_bytes(got) == _flat_bytes(want)

    @pytest.mark.parametrize("name", ["triangular", "perturbed:7", "samples"])
    def test_a_library_field_is_read_once_per_pass(self, name):
        field = _sampled("two") if name == "samples" else builtin_field(name)
        stack, stacks = field.stack, []

        def counted_stack(times):
            stacks.append(len(times))
            return stack(times)

        field.stack = counted_stack
        magnus_solve(field, 1.0, 0.008, 8)
        # the first read A(0.0), a stack of one time, sizes the pass; then one
        # stack of the distinct stage times: the first stage and two per step of 125
        assert stacks == [1, 1 + 2 * 125]
        stacks.clear()
        rk_reference(field, 1.0, checkpoints=[0.25, 0.5])
        # three passes, each reading all the distinct stage times of its own grid
        assert stacks == [1, 129, 257, 513]

    @pytest.mark.parametrize("field", [
        pytest.param(lambda: triangular_field(), id="triangular"),
        pytest.param(lambda: perturbed_triangular_field(123), id="perturbed-123"),
        *[pytest.param(lambda name=name: _sampled(name), id=f"samples-{name}")
          for name in _SAMPLE_SETS],
    ])
    def test_a_read_at_one_time_is_its_one_time_stack(self, field):
        # at, just before and just after every sample time: one formula, so
        # bit for bit; a read at or past a sample end is a new array, not a
        # view of the samples
        field = field()
        samples = np.array([t for ts, _ in _SAMPLE_SETS.values() for t in ts])
        times = np.concatenate([samples, np.nextafter(samples, -np.inf),
                                np.nextafter(samples, np.inf)])
        reads = []
        for t in times.tolist():
            value = field(t)
            assert value.shape == value.shape[-1:] * 2 and value.dtype == complex
            assert value.tobytes() == field.stack(np.array([t]))[0].tobytes()
            assert value.flags.writeable
            assert not any(np.shares_memory(value, read) for read in reads)
            reads.append(value)

    def test_a_plain_callable_is_read_one_float_at_a_time(self):
        field = triangular_field()

        def A(t):
            assert type(t) is float
            return field(t)

        magnus_solve(A, 1.0, 0.01, 8, checkpoints=[0.5])
        rk_reference(A, 1.0, checkpoints=[0.5])


def _flat_bytes(result):
    """The bytes of every matrix of a solve's or a reference's return."""
    if isinstance(result, np.ndarray):
        return [result.tobytes()]
    return [m.tobytes() for item in result
            for m in (item if isinstance(item, tuple) else (item,))]


class TestReferencePass:
    """One pass of the reference: stacked step matrices, the states of the
    stage-wise stepper, one read of the field per distinct stage time."""

    @pytest.mark.parametrize("t_end, h, times", [
        (1.0, 1 / 64, None),
        # stops on the grid and landing steps between grid times
        (1.0, 1 / 64, [0.0, 0.25, 0.3, 0.5, 0.71, 1.0]),
        # 15 * 0.03 sits within rounding of t_end = 0.45
        (0.45, 0.03, [k * 0.03 for k in range(1, 16)]),
        # landing steps from the grid time before each, one per grid interval
        (1.0, 0.008, [k * 0.008 for k in range(6, 125, 6)]),
        # near-coincident stops off the grid
        (0.7, 0.05, [0.123, 0.123 + 1e-15, 0.3, 0.3 + 1e-9, 0.7]),
        (0.0, 0.0, [0.0]),
    ], ids=["plain", "on-grid-and-landing", "near-t-end", "rows-20", "near-coincident",
            "zero-end-time"])
    @pytest.mark.parametrize("name", ["triangular", "perturbed:7"])
    def test_equals_the_stage_wise_stepper(self, name, t_end, h, times):
        field = builtin_field(name)
        stops = magnus._stops(t_end, times)
        eye = np.eye(2, dtype=complex)
        calls, staged = [], []

        def A(t):
            calls.append(t)
            return field(t)

        def staged_field(t):
            staged.append(t)
            return field(t)

        got = magnus._reference_pass(A, eye, stops, h)
        want = _four_read_rk4(staged_field, np.matmul, eye, stops, h)
        assert len(got) == len(want) == len(stops)
        for y, y_want in zip(got, want):
            assert rel_err(y, y_want) <= 1e-13
        assert len(calls) == len(set(calls)) and set(calls) == set(staged)

    @pytest.mark.parametrize("h", [1 / 64, 1 / 200])
    @pytest.mark.parametrize("times", [None, [0.0, 0.25, 0.3, 0.5, 0.71, 1.0]])
    @pytest.mark.parametrize("name", ["triangular", "perturbed:7"])
    def test_states_equal_the_matmul_chain(self, name, times, h):
        # bit for bit: each state is next(matrices).dot(y), as @ gives it
        field = builtin_field(name)
        stops = magnus._stops(1.0, times)
        eye = np.eye(2, dtype=complex)
        got = magnus._reference_pass(field, eye, stops, h)
        want = _matmul_reference_pass(field, eye, stops, h)
        assert len(got) == len(want) == len(stops)
        assert all(np.array_equal(y, y_want) for y, y_want in zip(got, want))

    @pytest.mark.parametrize("solve, bad, message", [
        pytest.param(solve, bad, message, id=f"{prefix}{kind}")
        for prefix, solve in [("", lambda A: rk_reference(A, 1.0)),
                              ("solve-", lambda A: magnus_solve(A, 1.0, 1 / 64, 8))]
        for kind, bad, message in [
            ("not-finite", lambda t: np.full((2, 2), np.nan), "field is not finite at t = 0.40625"),
            ("shape", lambda t: np.eye(3), "field returned shape (3, 3) at t = 0.40625"),
        ]
    ])
    def test_first_bad_time_is_named(self, solve, bad, message):
        # bad at t > 0.4 only: the first such stage time of a pass with step
        # 1/64 is the midpoint 52/128, in the solve's pass and the reference's first
        def A(t):
            return bad(t) if t > 0.4 else np.eye(2)

        with pytest.raises(StepRejected) as info:
            solve(A)
        assert str(info.value) == message

    def test_field_is_read_before_the_first_step(self):
        # |Omega| = 4t reaches pi at t = 0.79, before the field goes bad at
        # t > 1.503: the pass is read before its first step, so the bad field
        # is refused first
        big = np.array([[0.0, 4.0], [-4.0, 0.0]], dtype=complex)

        def A(t):
            return big if t <= 1.503 else np.full((2, 2), np.nan)

        with pytest.raises(StepRejected, match=r"field is not finite at t = 1\.505$"):
            magnus_solve(A, 2.0, h=0.01, order=8)
        with pytest.raises(BranchRadiusExceeded):
            magnus_solve(A, 1.5, h=0.01, order=8)


class TestReference:
    @pytest.mark.parametrize("name", ["triangular", "perturbed:5"])
    def test_three_passes_reach_a_fine_oracle(self, monkeypatch, name):
        # the extrapolated values of steps 1/64..1/256 agree to 1e-10, and the
        # last is within 1e-12 of the one from steps 1/4096 and 1/8192
        field, reference_pass, passes = builtin_field(name), magnus._reference_pass, []

        def counted_pass(*args):
            passes.append(args[3])
            return reference_pass(*args)

        monkeypatch.setattr(magnus, "_reference_pass", counted_pass)
        y = rk_reference(field, 1.0)
        monkeypatch.undo()
        assert passes == [1 / 64, 1 / 128, 1 / 256]

        def rk4(h):
            return _four_read_rk4(field, np.matmul, np.eye(2, dtype=complex), [1.0], h)[0]

        oracle = (16.0 * rk4(1 / 8192) - rk4(1 / 4096)) / 15.0
        assert rel_err(y, oracle) <= 1e-12

    @pytest.mark.parametrize("name", ["triangular", "perturbed:5"])
    def test_three_passes_with_checkpoints(self, monkeypatch, name):
        # the checkpoint stack is one level of the refinement: it settles with the end value
        field, reference_pass, passes = builtin_field(name), magnus._reference_pass, []

        def counted_pass(*args):
            passes.append(args[3])
            return reference_pass(*args)

        monkeypatch.setattr(magnus, "_reference_pass", counted_pass)
        path = rk_reference(field, 1.0, checkpoints=[0.25, 0.5, 1.0])
        assert passes == [1 / 64, 1 / 128, 1 / 256]
        assert len(path) == 3

    def test_unsettled_passes_raise(self, monkeypatch):
        # a pass whose state scales like 1/h: each extrapolated level doubles
        monkeypatch.setattr(magnus, "_reference_pass",
                            lambda A, y0, stops, h: [y0 / h for _ in stops])
        with pytest.raises(QuadratureNoConvergence,
                           match=r"up to size 1048576: last difference 7\.662e\+05, floor 1\.532e-04"):
            rk_reference(triangular_field(), 1.0)

    @pytest.mark.parametrize("t_end", [1.0, 3.0])
    def test_no_pass_exceeds_the_solve_cap(self, monkeypatch, t_end):
        # each pass holds its whole grid: halving stops at 2**20 steps, the
        # bound magnus_solve refuses past, before memory would run out
        steps = []

        def unsettled_pass(A, y0, stops, h):
            steps.append(round(stops[-1] / h))
            return [y0 / h for _ in stops]

        monkeypatch.setattr(magnus, "_reference_pass", unsettled_pass)
        with pytest.raises(QuadratureNoConvergence, match="up to size 1048576"):
            rk_reference(triangular_field(), t_end)
        assert steps == [64 << k for k in range(15)]
        assert max(steps) == 2**20

    def test_zero_field(self):
        y = rk_reference(lambda t: np.zeros((2, 2)), 1.0)
        assert np.array_equal(y, np.eye(2))

    def test_autonomous(self):
        a0 = 0.7 * gen_matrix("random", 3, 6)
        y = rk_reference(lambda t: a0, 1.5)
        assert rel_err(y, matrix_exp(1.5 * a0)) <= 1e-9

    def test_liouville(self):
        # det Y(t) = exp(int tr A); trace integral by high-order Gauss-Legendre
        a0 = gen_matrix("random", 2, 7)
        a1 = gen_matrix("random", 2, 8)

        def field(t):
            return a0 + np.sin(t) * a1

        t_end = 1.2
        y = rk_reference(field, t_end)
        x, w = gauss_legendre_01(64)
        tr = sum(wk * np.trace(field(t_end * xk)) for xk, wk in zip(x, w)) * t_end
        assert abs(np.linalg.det(y) - np.exp(tr)) <= 1e-7


class TestSampledField:
    def test_interpolation(self):
        from opcalc.magnus import field_from_samples

        a0 = gen_matrix("hermitian", 2, 9)
        a1 = gen_matrix("hermitian", 2, 10)
        field = field_from_samples([0.0, 1.0], [a0, a1])
        assert rel_err(field(0.0), a0) < 1e-15
        assert rel_err(field(1.0), a1) < 1e-15
        assert rel_err(field(0.25), 0.75 * a0 + 0.25 * a1) < 1e-14
        assert rel_err(field(2.0), a1) < 1e-15  # clamped beyond the samples

    def test_linear_field_solves(self):
        from opcalc.magnus import field_from_samples

        a0 = 0.4 * gen_matrix("hermitian", 2, 11)
        a1 = 0.4 * gen_matrix("hermitian", 2, 12)
        field = field_from_samples([0.0, 1.0], [a0, a1])
        _, y = magnus_solve(field, 1.0, h=1 / 100, order=12)
        assert opnorm(y - rk_reference(field, 1.0)) <= 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            from opcalc.magnus import field_from_samples

            field_from_samples([0.0], [np.eye(2)])

    def test_samples_share_one_dimension(self):
        # a 1 x 1 sample among 2 x 2 ones would broadcast into the field
        from opcalc.errors import DimensionMismatch
        from opcalc.magnus import field_from_samples

        with pytest.raises(DimensionMismatch):
            field_from_samples([0.0, 0.5, 1.0], [np.eye(2), [[3.0]], np.eye(2)])

    @pytest.mark.parametrize("times", [[0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                       [-1e308, 1e308], [1.7e308, -1.7e308, 1.79e308]],
                             ids=["repeated", "repeated-last", "repeated-unsorted",
                                  "overflowing-gap", "overflowing-gap-unsorted"])
    def test_sample_times_need_distinct_finite_gaps(self, times):
        # a repeated time sent the reference to 2**20 steps before it gave up;
        # a gap past the float range read 1 where the line through (-1e308, 1)
        # and (1e308, 2) gives 1.5, with an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="sample times must be distinct, with finite gaps"):
                field_from_samples(times, [k * np.eye(1) for k in range(1, len(times) + 1)])

    def test_widest_finite_gap_interpolates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = field_from_samples([-8e307, 8e307], [np.eye(1), 2.0 * np.eye(1)])
            assert field(0.0)[0, 0] == 1.5 and field(1.0)[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_an_overflowing_stage_is_a_rejected_step(self):
        # a finite field whose commutator series overflows in the first step:
        # refused as a non-finite state, with numpy's warnings kept off stderr
        field = field_from_samples([0.0, 1.0], [np.diag([1e300, 0.0]) + np.eye(2, k=1), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected, match=r"^non-finite state at t = 0\.02$"):
                magnus_solve(field, 0.1, 0.02, 8)

    def test_a_refusal_names_a_blown_up_norm_briefly(self):
        # |Omega| of about 1e195 in fixed point would be a 200-digit number
        field = field_from_samples([0.0, 1.0], [np.eye(2), np.diag([1e200, 1.0])])
        with pytest.raises(BranchRadiusExceeded) as info:
            magnus_solve(field, 1.0, 0.005, 28)
        assert str(info.value) == "|Omega| = 1.25e+195 >= 3.1416 at t = 0.005"
        assert len(str(info.value)) <= 60

    @pytest.mark.parametrize("times", [[0.0, 1.07e-241, -5.25e-153], [0.0, 1e-14, 1.0],
                                       [1e3, 1e3 + 5e-12, 2e3], [-2.0, -2.0 + 1e-14]],
                             ids=["below-the-snap", "at-the-snap", "relative-snap", "negative"])
    def test_sample_times_closer_than_the_grid_resolves(self, times):
        # the first sent rk_reference to 2**20 steps (about 4 s and 1 GB)
        # before it gave up: no grid resolves its kink, so it is refused
        with pytest.raises(InvalidInput, match="closer than a step grid resolves") as info:
            field_from_samples(times, [k * np.eye(2) for k in range(1, len(times) + 1)])
        assert "distinct" not in str(info.value)

    def test_sample_times_just_past_the_snap_are_a_field(self):
        field = field_from_samples([0.0, 2e-14, 1.0], [np.eye(1), 2.0 * np.eye(1), np.eye(1)])
        assert field(1e-14)[0, 0] == 1.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_times_are_finite(self, bad):
        from opcalc.errors import InvalidInput
        from opcalc.magnus import field_from_samples

        with pytest.raises(InvalidInput, match="sample times must be finite"):
            field_from_samples([0.0, bad, 1.0], [np.eye(2)] * 3)


class TestPerturbedFields:
    def test_log_consistency(self):
        for seed in (0, 1):
            field = perturbed_triangular_field(seed)
            omega, y = magnus_solve(field, 1.0, h=1 / 200, order=28)
            assert opnorm(omega) < np.pi
            ref = rk_reference(field, 1.0)
            assert opnorm(y - ref) <= 1e-6
