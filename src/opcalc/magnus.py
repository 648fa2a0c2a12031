"""Integrator for Y'(t) = A(t) Y(t) through the nonlinear ODE for log Y.

The logarithm Omega(t) = log Y(t) satisfies

    Omega' = sum_n (B_n / n!) ad_Omega^n (A(t)),   Omega(0) = 0,

with Bernoulli numbers B_n in the B_1 = -1/2 convention, computed exactly by
:func:`bernoulli`.  The right-hand side is the series truncated at a
configurable order, with the coefficients B_n / n! rendered to floats once
per order.  On d x d matrices ad_Omega = L_Omega - R_Omega is the single
d^2 x d^2 operator Omega (x) I - I (x) Omega^T (row-major vec), so up to
d = 8 the powers ad_Omega^n(A) are one Krylov block of matrix-vector
products; above that they are nested commutators.  The equation is stepped
with the classical 4th-order Runge-Kutta scheme; a plain Runge-Kutta solver
for Y itself with Richardson extrapolation serves as the independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial

import numpy as np

from .core import as_matrix, commutator, matrix_exp, opnorm
from .errors import BranchRadiusExceeded, InvalidInput, StepRejected
from .quadrature import _refine

__all__ = [
    "bernoulli",
    "magnus_rhs",
    "magnus_solve",
    "rk_reference",
    "triangular_field",
    "perturbed_triangular_field",
    "field_from_samples",
    "builtin_field",
]

BERNOULLI_CAP = 30
BRANCH_RADIUS = np.pi


def _field_value(A, t: float, dim: int) -> np.ndarray:
    value = np.asarray(A(t), dtype=complex)
    if value.shape != (dim, dim):
        raise StepRejected(f"field returned shape {value.shape} at t = {t:g}")
    if not np.isfinite(value).all():
        raise StepRejected(f"field is not finite at t = {t:g}")
    return value


def bernoulli(K: int) -> tuple[Fraction, ...]:
    """B_0..B_K through the binomial recurrence, exactly (B_1 = -1/2)."""
    if not 0 <= K <= BERNOULLI_CAP:
        raise InvalidInput(f"table order K must lie in 0..{BERNOULLI_CAP}, got {K}")
    fracs = [Fraction(1)]
    for n in range(1, K + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * fracs[k]
        fracs.append(-acc / (n + 1))
    return tuple(fracs)


@cache
def _series(order: int) -> tuple[float, ...]:
    """The Magnus coefficients float(B_n) / n!, n = 0..order."""
    return tuple(float(b) / math.factorial(n) for n, b in enumerate(bernoulli(order)))


def magnus_rhs(omega, a_t, order: int) -> np.ndarray:
    """Truncated commutator series sum_{n<=order} (B_n/n!) ad_omega^n(a_t).

    Up to d = 8 the powers ad_omega^n(a_t) fill the rows of one Krylov block,
    each a product with the d^2 x d^2 matrix of ad_omega, and the series is
    one product of the coefficients with that block.  Above d = 8 the d^4
    entries of that matrix cost more than the commutators they replace, so
    the powers are nested commutators.
    """
    series = _series(order)
    om = as_matrix(omega)
    d = om.shape[0]
    x = as_matrix(a_t, dim=d)
    if d > 8:
        total = series[0] * x
        for n in range(1, order + 1):
            x = commutator(om, x)
            if series[n] != 0.0:
                total = total + series[n] * x
        return total
    # Omega (x) I - I (x) Omega^T: row (i, k), column (j, l) holds
    # Omega[i, j] delta_kl - delta_ij Omega[l, k]
    eye = np.eye(d)
    ad = np.multiply.outer(om, eye) - np.multiply.outer(eye, om.T)
    ad = ad.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    block = np.empty((order + 1, d * d), dtype=complex)
    block[0] = x.ravel()
    for n in range(1, order + 1):
        np.matmul(ad, block[n - 1], out=block[n])
    return (np.array(series) @ block).reshape(d, d)


def _stops(t_end: float, checkpoints) -> list[float]:
    """The stop times of one pass: the checkpoints, then ``t_end``."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise InvalidInput(f"end time must be finite and nonnegative, got {t_end!r}")
    stops = [float(t) for t in (checkpoints or ())] + [float(t_end)]
    if not all(math.isfinite(t) for t in stops) or stops[0] < 0.0:
        raise InvalidInput("checkpoints must be finite and nonnegative")
    if any(b < a for a, b in zip(stops, stops[1:])):
        raise InvalidInput("checkpoints must be sorted and end at or before t_end")
    return stops


def _rk4(field, rhs, y0: np.ndarray, stops: list[float], h: float,
         monitor=None) -> list[np.ndarray]:
    """Classical RK4 from t = 0 with step ``h``; the state at each sorted stop.

    The grid 0, h, 2h, ... ends with one step shortened to land on the last
    stop, so it does not depend on the other stops.  A stop within
    ``1e-14 * max(1, stop)`` of a grid time is read there without a step; a
    stop short of the next grid time is reached by one step shortened to land
    on it, taken from the grid time before it.  Each state is therefore the
    one a solve ending at that stop would return, bit for bit.

    The stages are ``rhs(field(t), y)``, and ``field`` is read once per
    distinct time: a step reads it at its midpoint, which the second and
    third stages share, and at its end, which is the next step's first
    stage.  The first stage at a grid time is computed once and shared by
    the landing steps and the main step taken from there.
    """
    t_end = stops[-1]
    if not h > 0 and t_end > 0:
        raise InvalidInput("step must be positive")

    def advance(t, y, step, k1):
        a_mid = field(t + 0.5 * step)
        k2 = rhs(a_mid, y + 0.5 * step * k1)
        k3 = rhs(a_mid, y + 0.5 * step * k2)
        a_end = field(t + step)
        k4 = rhs(a_end, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
        if not np.isfinite(y).all():
            raise StepRejected(f"non-finite state at t = {t:g}")
        if monitor is not None:
            monitor(t, y)
        return y, a_end

    y, t, a = y0.copy(), 0.0, None
    states: list[np.ndarray] = []
    while True:
        step = min(h, t_end - t)
        k1 = None
        while len(states) < len(stops):
            stop = stops[len(states)]
            if t >= stop - 1e-14 * max(1.0, stop):
                states.append(y)
                continue
            if k1 is None:
                a = field(t) if a is None else a
                k1 = rhs(a, y)
            if stop - t >= step:
                break
            states.append(advance(t, y, stop - t, k1)[0])
        if len(states) == len(stops):
            return states
        y, a = advance(t, y, step, k1)
        t += step


def magnus_solve(
    A,
    t_end: float,
    h: float,
    order: int,
    *,
    trace: list | None = None,
    checkpoints=None,
):
    """Integrate the log of the propagator and return (Omega(t_end), exp(Omega)).

    ``A`` is a callable t -> matrix.  The commutator series is truncated at
    ``order``; stepping is classical RK4 with fixed step ``h``.  The solve
    aborts with :class:`BranchRadiusExceeded` once |Omega| reaches
    ``BRANCH_RADIUS`` (pi), where the principal logarithm could no longer be
    trusted.  ``trace``, when given, collects (t, |Omega(t)|) rows.

    With ``checkpoints``, a sorted sequence of times in [0, t_end], the same
    pass to ``t_end`` returns instead a list of (Omega(t), exp(Omega(t))), one
    per checkpoint, each bit for bit what ``magnus_solve(A, t, h, ...)``
    returns.
    """
    stops = _stops(t_end, checkpoints)
    _series(order)  # refuses an order outside 0..BERNOULLI_CAP before A is read
    a0 = as_matrix(A(0.0))
    omega0 = np.zeros_like(a0)

    field = partial(_field_value, A, dim=a0.shape[0])

    def rhs(a, om):
        return magnus_rhs(om, a, order)

    def monitor(t, om):
        # |Omega|_2 <= |Omega|_F: below pi (less a rounding margin) the SVD
        # cannot refuse, so it runs only for a trace row or near the radius
        if trace is None and np.vdot(om, om).real < BRANCH_RADIUS**2 * (1 - 1e-9):
            return
        nrm = opnorm(om)
        if nrm >= BRANCH_RADIUS:
            raise BranchRadiusExceeded(
                f"|Omega| = {nrm:.4f} >= {BRANCH_RADIUS:.4f} at t = {t:g}"
            )
        if trace is not None:
            trace.append((t, nrm))

    omegas = _rk4(field, rhs, omega0, stops, h, monitor)
    if checkpoints is None:
        return omegas[-1], matrix_exp(omegas[-1])
    return [(om, matrix_exp(om)) for om in omegas[:-1]]


def rk_reference(A, t_end: float, *, checkpoints=None):
    """Propagator of Y' = A(t) Y, Y(0) = 1, by RK4 with Richardson extrapolation.

    RK4 runs with step t_end / 64, then halved, at most 20 times.  Each
    halving gives the extrapolated value (16 y_{h/2} - y_h) / 15, which
    cancels the h^4 error term, and :func:`opcalc.quadrature._refine` returns
    the first that agrees with the one before to 1e-10, relative in the flat
    norm (at least three passes).  With ``checkpoints``, a sorted sequence of
    times in [0, t_end], each pass also stops at every checkpoint, the values
    at all of them are compared as one stack, and the list of propagators at
    the checkpoints is returned.
    """
    stops = _stops(t_end, checkpoints)
    a0 = as_matrix(A(0.0))
    eye = np.eye(a0.shape[0], dtype=complex)

    field = partial(_field_value, A, dim=a0.shape[0])

    def levels():
        step = t_end / 64.0
        coarse = np.array(_rk4(field, np.matmul, eye, stops, step))
        for k in range(1, 21):
            step *= 0.5
            fine = np.array(_rk4(field, np.matmul, eye, stops, step))
            yield 64 << k, (16.0 * fine - coarse) / 15.0, 0.0
            coarse = fine

    _, ys = _refine(levels(), 1e-10)
    return ys[-1] if checkpoints is None else list(ys[:-1])


# ---------------------------------------------------------------------------
# test fields


def triangular_field():
    """The 2x2 upper-triangular field [[2, t], [0, -1]]."""

    def A(t):
        return np.array([[2.0, t], [0.0, -1.0]], dtype=complex)

    return A


def perturbed_triangular_field(seed: int):
    """Triangular field plus a seeded Hermitian perturbation 0.1 (H0 + t H1)."""
    rng = np.random.default_rng(seed)

    def hermitian():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = 0.5 * (m + m.conj().T)
        return m / max(opnorm(m), 1e-300)

    h0, h1 = hermitian(), hermitian()
    base = triangular_field()

    def A(t):
        return base(t) + 0.1 * (h0 + t * h1)

    return A


def field_from_samples(times, mats):
    """Piecewise-linear field through the given (time, matrix) samples."""
    ts = np.asarray(times, dtype=float)
    ms = [as_matrix(m) for m in mats]
    if ts.size != len(ms) or ts.size < 2:
        raise InvalidInput("need matching times and matrices, at least two samples")
    order = np.argsort(ts)
    ts = ts[order]
    ms = [ms[k] for k in order]

    def A(t):
        if t <= ts[0]:
            return ms[0]
        if t >= ts[-1]:
            return ms[-1]
        k = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - w) * ms[k] + w * ms[k + 1]

    return A


def builtin_field(name: str):
    """Resolve a CLI field name: 'triangular' or 'perturbed:SEED'."""
    if name == "triangular":
        return triangular_field()
    if name.startswith("perturbed:"):
        return perturbed_triangular_field(int(name.split(":", 1)[1]))
    raise InvalidInput(f"unknown builtin field {name!r}")
