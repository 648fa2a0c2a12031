import math
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
from opcalc.errors import BranchRadiusExceeded, StepRejected
from opcalc.magnus import builtin_field, perturbed_triangular_field, triangular_field
from opcalc.quadrature import gauss_legendre_01


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
        # bit for bit the sum with B_n / n! divided out at every term
        om = 0.3 * gen_matrix("random", 2, 13)
        a = gen_matrix("random", 2, 14)
        tab = bernoulli(28)
        x, expected = a, float(tab[0]) * a
        for n in range(1, 29):
            x = om @ x - x @ om
            coeff = float(tab[n]) / math.factorial(n)
            if coeff != 0.0:
                expected = expected + coeff * x
        assert np.array_equal(magnus_rhs(om, a, order=28), expected)

    def test_series_tail(self):
        om = 0.1 * gen_matrix("random", 2, 2)
        a = gen_matrix("random", 2, 3)
        low = magnus_rhs(om, a, order=6)
        high = magnus_rhs(om, a, order=12)
        assert opnorm(low - high) <= 1e-9


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
        path = rk_reference(field, 1.0, h=1.0 / 32, checkpoints=times)
        assert np.array_equal(path[-1], rk_reference(field, 1.0, h=1.0 / 32))
        for t, y in zip(times, path):
            assert opnorm(y - rk_reference(field, t, h=t / 32)) <= 1e-10 * opnorm(y)

    def test_halving_stops_when_every_checkpoint_converged(self):
        # y1 oscillates on [0, 1/2], then decays by e^-10, so |Y(1)| no longer
        # sees its error: converging at t = 1 alone would leave t = 1/2 at 1e-10
        def field(t):
            return np.diag([30 * np.cos(60 * t) - 80 * max(t - 0.5, 0.0), 0.0]).astype(complex)

        y = rk_reference(field, 1.0, h=1.0 / 32, checkpoints=[0.5])[0]
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
        path = rk_reference(triangular_field(), 0.0, h=0.0, checkpoints=[0.0])
        assert np.array_equal(path[0], np.eye(2))

    @pytest.mark.parametrize("t_end", [-1.0, np.inf, np.nan])
    def test_bad_end_time(self, t_end):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), t_end, 0.01)
        with pytest.raises(ValueError):
            rk_reference(triangular_field(), t_end)

    @pytest.mark.parametrize("times", [[0.5, 0.25], [-0.1, 0.5], [0.5, 2.0]])
    def test_bad_checkpoints(self, times):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), 1.0, 0.01, checkpoints=times)
        with pytest.raises(ValueError):
            rk_reference(triangular_field(), 1.0, checkpoints=times)

    def test_zero_step(self):
        with pytest.raises(ValueError):
            magnus_solve(triangular_field(), 1.0, 0.0)
        with pytest.raises(ValueError):
            rk_reference(triangular_field(), 1.0, h=0.0)


def _four_read_rk4(field, rhs, y0, stops, h, monitor=None):
    """The RK4 stepper that reads the field at every stage: the reference."""
    t_end = stops[-1]

    def stage(t, y):
        return rhs(field(t), y)

    def advance(t, y, step, k1):
        k2 = stage(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = stage(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = stage(t + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
        if not np.all(np.isfinite(y.view(float))):
            raise StepRejected(f"non-finite state at t = {t:g}")
        if monitor is not None:
            monitor(t, y)
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
    def test_states_equal_the_four_read_stepper(self, monkeypatch, name, times):
        field = builtin_field(name)
        h = 0.006
        got_log = magnus_solve(field, 1.0, h, 16, checkpoints=times)
        got_ref = rk_reference(field, 1.0, checkpoints=times)
        monkeypatch.setattr(magnus, "_rk4", _four_read_rk4)
        want_log = magnus_solve(field, 1.0, h, 16, checkpoints=times)
        want_ref = rk_reference(field, 1.0, checkpoints=times)
        if times is None:
            got_log, want_log = [got_log], [want_log]
            got_ref, want_ref = [got_ref], [want_ref]
        for (om, y), (om_want, y_want) in zip(got_log, want_log, strict=True):
            assert np.array_equal(om, om_want) and np.array_equal(y, y_want)
        for y, y_want in zip(got_ref, want_ref, strict=True):
            assert np.array_equal(y, y_want)

    def test_read_times_are_the_distinct_stage_times(self, monkeypatch):
        new, new_calls = self.counted(triangular_field())
        magnus_solve(new, 1.0, 0.008, 8)
        old, old_calls = self.counted(triangular_field())
        monkeypatch.setattr(magnus, "_rk4", _four_read_rk4)
        magnus_solve(old, 1.0, 0.008, 8)
        assert set(new_calls) == set(old_calls)

    def test_plain_solve(self):
        # 125 steps: the dimension read, the first stage, 2 per step (was 501)
        A, calls = self.counted(triangular_field())
        magnus_solve(A, 1.0, 0.008, 8)
        assert len(calls) == 1 + 1 + 2 * 125

    def test_reference_solve(self):
        # 64 + 128 + 256 + 512 steps in four passes, each with its own first
        # stage, plus the dimension read (was 3841)
        A, calls = self.counted(triangular_field())
        rk_reference(A, 1.0)
        assert len(calls) == 1 + 4 + 2 * 960


class TestReference:
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


class TestPerturbedFields:
    def test_log_consistency(self):
        for seed in (0, 1):
            field = perturbed_triangular_field(seed)
            omega, y = magnus_solve(field, 1.0, h=1 / 200, order=28)
            assert opnorm(omega) < np.pi
            ref = rk_reference(field, 1.0)
            assert opnorm(y - ref) <= 1e-6
