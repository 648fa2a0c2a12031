"""Integrator for Y'(t) = A(t) Y(t) through the nonlinear ODE for log Y.

The logarithm Omega(t) = log Y(t) satisfies

    Omega' = sum_n (B_n / n!) ad_Omega^n (A(t)),   Omega(0) = 0,

with Bernoulli numbers B_n in the B_1 = -1/2 convention, computed exactly by
:func:`bernoulli`.  The right-hand side is the series truncated at a
configurable order, with the coefficients B_n / n! rendered to floats once
per order.  On d x d matrices ad_Omega = L_Omega - R_Omega is the single
d^2 x d^2 operator Omega (x) I - I (x) Omega^T (row-major vec), so up to
d = 8 the powers ad_Omega^n(A) are one Krylov block of matrix-vector
products, each row one BLAS gemv through ``ndarray.dot`` (bit for bit what
``np.matmul`` gives, at half its call cost); above that they are nested
commutators.  Their buffers and views come from a per-thread workspace
per (order, d), and ad_Omega is gathered from the entries of Omega and a
zero, so a stage creates no array but its result.  The equation is stepped
with the classical 4th-order Runge-Kutta scheme; a plain Runge-Kutta solver
for Y itself with Richardson extrapolation serves as the independent oracle.
Both walk the steps that :func:`_grid` lays out for a pass, on the field of
the whole pass read at once by :func:`_stage_fields`, each pass its own
distinct stage times.  The fields the library builds (:class:`_Field`)
evaluate those times as one stack, the one formula they have; any other
callable is read once per time.  Since
Y' = A(t) Y is linear, one RK4 step of the oracle is a d x d matrix, a
polynomial in that field, so each pass forms the matrices of all its steps
as one stack.
"""

from __future__ import annotations

import math
import numbers
import threading
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .core import as_matrices, as_matrix, commutator, matrix_exp, opnorm
from .errors import BranchRadiusExceeded, DimensionMismatch, InvalidInput, StepRejected
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
MAX_STEPS = 2**20  # most steps a magnus_solve pass holds in its grid and field stack


def bernoulli(K: int) -> tuple[Fraction, ...]:
    """B_0..B_K through the binomial recurrence, exactly (B_1 = -1/2)."""
    if not isinstance(K, numbers.Integral):
        raise InvalidInput(f"table order K must be an integer, got {K!r}")
    if not 0 <= K <= BERNOULLI_CAP:
        raise InvalidInput(f"table order K must lie in 0..{BERNOULLI_CAP}, got {K}")
    fracs = [Fraction(1)]
    for n in range(1, K + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * fracs[k]
        fracs.append(-acc / (n + 1))
    return tuple(fracs)


@lru_cache(maxsize=None, typed=True)
def _coefficients(order: int) -> np.ndarray:
    """The Magnus coefficients float(B_n) / n!, n = 0..order, as a read-only row.

    Keyed by the type of ``order`` too: :func:`bernoulli` refuses 8.0 once 8 is cached.
    """
    coefficients = np.array([float(b) / math.factorial(n) for n, b in enumerate(bernoulli(order))])
    coefficients.flags.writeable = False
    return coefficients


@cache
def _ad_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two index maps of ad_Omega = Omega (x) I - I (x) Omega^T into
    ``[*Omega.ravel(), 0]``: row (i, k), column (j, l) takes Omega[i, j] from
    the first where k = l and Omega[l, k] from the second where i = j, and
    the zero slot d^2 elsewhere."""
    i, k, j, l = np.indices((d, d, d, d))
    left = np.where(k == l, i * d + j, d * d).reshape(d * d, d * d)
    right = np.where(i == j, l * d + k, d * d).reshape(d * d, d * d)
    left.flags.writeable = right.flags.writeable = False
    return left, right


class _Workspaces(threading.local):
    """The stage workspaces of :func:`magnus_rhs`, keyed by (order, d), one set per thread."""

    def __init__(self):
        self.by_size = {}


_WORKSPACES = _Workspaces()


def _workspace(order: int, d: int) -> tuple:
    """The (order, d) stage buffers of :func:`magnus_rhs` and every view into
    them, made once per thread.  One row holds Omega's d^2 entries, a zero
    slot and the Krylov block, whose first row is A(t): the first d^2 + 1
    are the gather source, and the first 2 d^2 + 1 are the stage's inputs,
    checked in one scan.  Returned: d x d views of Omega's and A(t)'s slots,
    the inputs view, the bound ``take`` of the gather source, the two index
    maps, two d^2 x d^2 buffers (the first map's gather, then ad_Omega),
    the block's (previous, row) view pairs, the bound ``ad.dot`` and the
    block.
    """
    left, right = _ad_gather(d)
    row = np.zeros(d * d + 1 + (order + 1) * d * d, dtype=complex)
    source, block = row[:d * d + 1], row[d * d + 1:].reshape(order + 1, d * d)
    minuend = np.empty((d * d, d * d), dtype=complex)
    ad = np.empty_like(minuend)
    workspace = (source[:-1].reshape(d, d), block[0].reshape(d, d), row[:2 * d * d + 1],
                 source.take, left, right, minuend, ad, list(zip(block, block[1:])), ad.dot,
                 block)
    _WORKSPACES.by_size[order, d] = workspace
    return workspace


def magnus_rhs(omega, a_t, order: int) -> np.ndarray:
    """Truncated commutator series sum_{n<=order} (B_n/n!) ad_omega^n(a_t).

    Up to d = 8 the powers ad_omega^n(a_t) fill the rows of one Krylov block,
    each a product with the d^2 x d^2 matrix of ad_omega, and the series is
    one product of the coefficients with that block.  Each row is one BLAS
    gemv through ``ndarray.dot``, bit for bit what ``np.matmul`` gives.
    That matrix, the block and its row views are made once per thread and
    (order, d) (:func:`_workspace`) and filled in place: making the 2 * order
    row views cost about a sixth of a d = 2, order 28 stage.  ad_omega is two
    gathers (:func:`_ad_gather`) and one subtraction, each entry the copy or
    difference of Omega (x) I - I (x) Omega^T up to the sign of a structural
    zero.  The result is a new array, never a view of the workspace.
    Omega and a_t are copied side by side into that workspace and checked
    in one scan; only when the scan fails, or the inputs are not two float
    or complex ndarrays of one square shape, does
    :func:`opcalc.core.as_matrix` check them, so a bad input raises its
    typed error and message.
    Above d = 8 the d^4 entries of that matrix cost more than the
    commutators they replace, so the powers are nested commutators.
    """
    coefficients = _coefficients(order)
    # magnus_solve's stage inputs pass this gate unchecked: their copies in
    # the workspace are scanned below.  Anything else goes through as_matrix
    if not (type(omega) is np.ndarray and type(a_t) is np.ndarray and omega.ndim == 2
            and omega.shape == a_t.shape and 0 < omega.shape[0] == omega.shape[1] <= 8
            and omega.dtype.kind in "fc" and a_t.dtype.kind in "fc"):
        omega = as_matrix(omega)
        a_t = as_matrix(a_t, dim=omega.shape[0])
        if omega.shape[0] > 8:
            x, total = a_t, coefficients[0] * a_t
            for c in coefficients[1:]:
                x = commutator(omega, x)
                if c != 0.0:
                    total = total + c * x
            return total
    d = omega.shape[0]
    entries, first, inputs, take, left, right, minuend, ad, pairs, product, block = (
        _WORKSPACES.by_size.get((order, d)) or _workspace(order, d))
    entries[...] = omega
    first[...] = a_t
    if np.count_nonzero(np.isfinite(inputs)) != inputs.size:
        # as_matrix names the first input that is not finite, as it always has
        as_matrix(omega)
        as_matrix(a_t)
    # every index is in range, and "clip" writes straight to ``out``
    take(left, None, minuend, "clip")
    take(right, None, ad, "clip")
    np.subtract(minuend, ad, ad)
    for previous, row in pairs:
        product(previous, row)
    return coefficients.dot(block).reshape(d, d)


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


def _grid(stops: list[float], h: float) -> list[tuple[float, float, int]]:
    """The steps of one pass from t = 0 with step ``h``, to each sorted stop.

    Each step is ``(t, step, stop)``: a step of the grid has ``stop`` -1, and
    a step that reaches stop ``stops[stop]`` is the last before its state is
    read.  The grid 0, h, 2h, ... ends with one step shortened to land on the
    last stop, so it does not depend on the other stops.  A stop within
    ``1e-14 * max(1, stop)`` of a grid time is read there, by a step of
    length zero; a stop short of the next grid time is reached by one step
    shortened to land on it, taken from the grid time before it.  Each state
    is therefore the one a pass ending at that stop would reach, bit for bit.
    """
    t_end = stops[-1]
    if not h > 0 and t_end > 0:
        raise InvalidInput("step must be positive")
    steps: list[tuple[float, float, int]] = []
    t, n = 0.0, 0
    while True:
        step = min(h, t_end - t)
        while n < len(stops):
            stop = stops[n]
            if t >= stop - 1e-14 * max(1.0, stop):
                steps.append((t, 0.0, n))
            elif stop - t < step:
                steps.append((t, stop - t, n))
            else:
                break
            n += 1
        if n == len(stops):
            return steps
        steps.append((t, step, -1))
        t += step


def _read_each(A, times: np.ndarray, dim: int) -> np.ndarray:
    """The ``(k, dim, dim)`` stack of ``A`` at ``times``, read one time at a
    time: the read of any callable that is not a :class:`_Field`.  Each
    value's shape is checked, and :class:`StepRejected` names the first
    time whose value has the wrong shape."""
    reads = times.tolist()
    values = [A(x) for x in reads]
    for x, value in zip(reads, values):
        if np.shape(value) != (dim, dim):
            raise StepRejected(f"field returned shape {np.shape(value)} at t = {x:g}")
    return np.array(values, dtype=complex).reshape(len(reads), dim, dim)


def _stage_fields(A, grid: list[tuple[float, float, int]], dim: int) -> np.ndarray:
    """The field at the start, middle and end of every step of ``grid``.

    Returns a (3, steps, dim, dim) complex stack with one column per step of
    nonzero length.  The pass's distinct stage times are read in one
    ``read(times)``, in increasing order: a field the library builds
    (:class:`_Field`) evaluates them as one stack, and any other callable is
    read once per time (:func:`_read_each`); no callable but a
    :class:`_Field` is ever handed an array.  The values read are validated
    as one stack: :class:`StepRejected` names the first time whose value
    has the wrong shape, else the first whose value is not finite.
    """
    t, s = np.array([(t, step) for t, step, _ in grid if step != 0.0]).reshape(-1, 2).T
    times, where = np.unique(np.concatenate([t, t + 0.5 * s, t + s]), return_inverse=True)
    values = A.stack(times) if isinstance(A, _Field) else _read_each(A, times, dim)
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        raise StepRejected(f"field is not finite at t = {times[int(np.argmin(finite))]:g}")
    return values[where].reshape(3, len(t), dim, dim)


# Both passes check every state and refuse a non-finite one (StepRejected), so
# numpy's overflow warnings on the way there would only be noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
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
    ``order``; stepping is classical RK4 with fixed step ``h`` over
    :func:`_grid`, with the first stage at a grid time shared by the steps
    taken from there.  The field of the whole pass is read before the first
    step (:func:`_stage_fields`); a pass of more than ``MAX_STEPS`` (2**20)
    steps is refused with :class:`InvalidInput` before that.  The solve then
    aborts with :class:`BranchRadiusExceeded` once |Omega| reaches
    ``BRANCH_RADIUS`` (pi), where the principal logarithm could no longer be
    trusted.
    ``trace``, when given, collects (t, |Omega(t)|) rows.

    With ``checkpoints``, a sorted sequence of times in [0, t_end], the same
    pass to ``t_end`` returns instead a list of (Omega(t), exp(Omega(t))), one
    per checkpoint, each bit for bit what ``magnus_solve(A, t, h, ...)``
    returns.
    """
    stops = _stops(t_end, checkpoints)
    _coefficients(order)  # refuses a bad order before A is read
    # the grid and the field stack hold every step: refuse a pass too long to hold
    if h > 0 and t_end / h > MAX_STEPS:
        raise InvalidInput(f"t_end / h = {t_end / h:.4g} steps, more than 2**20")
    a0 = as_matrix(A(0.0))
    grid = _grid(stops, h)
    fields = zip(*_stage_fields(A, grid, a0.shape[0]))
    om, k1, omegas = np.zeros_like(a0), None, []
    for t, step, stop in grid:
        if step == 0.0:
            omegas.append(om)
            continue
        a_start, a_mid, a_end = next(fields)
        try:
            if k1 is None:
                k1 = magnus_rhs(om, a_start, order)
            k2 = magnus_rhs(om + 0.5 * step * k1, a_mid, order)
            k3 = magnus_rhs(om + 0.5 * step * k2, a_mid, order)
            k4 = magnus_rhs(om + step * k3, a_end, order)
        except DimensionMismatch:  # a stage overflowed, so the next one's input is not finite
            raise StepRejected(f"non-finite state at t = {t + step:g}") from None
        # om + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), operation for
        # operation, in k2's buffer: a stage's result is a new array
        y = np.multiply(2.0, k2, k2)
        np.add(k1, y, y)
        y += np.multiply(2.0, k3, k3)
        y += k4
        np.multiply(step / 6.0, y, y)
        np.add(om, y, y)
        t += step
        if np.count_nonzero(np.isfinite(y)) != y.size:
            raise StepRejected(f"non-finite state at t = {t:g}")
        # |Omega|_2 <= |Omega|_F: below pi (less a rounding margin) the SVD
        # cannot refuse, so it runs only for a trace row or near the radius
        if trace is not None or np.vdot(y, y).real >= BRANCH_RADIUS**2 * (1 - 1e-9):
            nrm = opnorm(y)
            if nrm >= BRANCH_RADIUS:
                raise BranchRadiusExceeded(f"|Omega| = {nrm:.4g} >= {BRANCH_RADIUS:.4f} at t = {t:g}")
            if trace is not None:
                trace.append((t, nrm))
        if stop >= 0:
            omegas.append(y)
        else:
            om, k1 = y, None
    if checkpoints is None:
        return omegas[-1], matrix_exp(omegas[-1])
    return [(om, matrix_exp(om)) for om in omegas[:-1]]


def _reference_pass(A, y0: np.ndarray, stops: list[float], h: float) -> list:
    """RK4 for Y' = A(t) Y over :func:`_grid`: the state at each sorted stop.

    A step of length s from t is the matrix R = I + (s/6)(K1 + 2 K2 + 2 K3 + K4),
    with K1 = A(t), K2 = A_m (I + (s/2) K1), K3 = A_m (I + (s/2) K2) and
    K4 = A(t + s)(I + s K3), where A_m = A(t + s/2).  The field of the pass
    comes from :func:`_stage_fields`, and the R of every step are formed as
    one stack; the states are then one product per step.
    """
    grid = _grid(stops, h)
    k1, a_mid, a_end = _stage_fields(A, grid, y0.shape[0])
    moving = [(t, step) for t, step, _ in grid if step != 0.0]
    s = np.array([step for _, step in moving]).reshape(-1, 1, 1)
    k2 = a_mid + (0.5 * s) * (a_mid @ k1)
    k3 = a_mid + (0.5 * s) * (a_mid @ k2)
    k4 = a_end + s * (a_end @ k3)
    matrices = np.eye(y0.shape[0]) + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # every state of the pass, one block: the check below names the first
    # that is not finite, which a BLAS skipping zero entries could hide later
    path = np.empty_like(matrices)
    y, states, steps = y0, [], zip(matrices, path)
    for _, step, stop in grid:
        if step == 0.0:
            states.append(y)
            continue
        matrix, state = next(steps)
        matrix.dot(y, state)
        if stop >= 0:
            states.append(state)
        else:
            y = state
    finite = np.isfinite(path).all(axis=(1, 2))
    if not finite.all():
        t0, s0 = moving[int(np.argmin(finite))]
        raise StepRejected(f"non-finite state at t = {t0 + s0:g}")
    return states


@np.errstate(over="ignore", invalid="ignore")
def rk_reference(A, t_end: float, *, checkpoints=None):
    """Propagator of Y' = A(t) Y, Y(0) = 1, by RK4 with Richardson extrapolation.

    RK4 runs with step t_end / 64, then halved, at most 14 times: a pass
    holds its whole grid, so like :func:`magnus_solve` it stops at 2**20
    steps (``64 << 14``), where a field that never settles raises
    :class:`QuadratureNoConvergence`.  Each halving gives the extrapolated
    value (16 y_{h/2} - y_h) / 15, which cancels the h^4 error term, and
    :func:`opcalc.quadrature._refine` returns the first that agrees with the
    one before to 1e-10, relative in the flat norm (at least three passes).
    Each pass reads its field the way the solve does, once per distinct
    stage time of its own grid and all at once (:func:`_stage_fields`); it
    forms the d x d matrix of every RK4 step as one stack
    (:func:`_reference_pass`), and multiplies the states up.  With
    ``checkpoints``, a sorted sequence of times in [0, t_end], each pass also
    stops at every checkpoint, the values at all of them are compared as one
    stack, and the list of propagators at the checkpoints is returned.
    """
    stops = _stops(t_end, checkpoints)
    a0 = as_matrix(A(0.0))
    eye = np.eye(a0.shape[0], dtype=complex)

    def levels():
        step = t_end / 64.0
        coarse = np.array(_reference_pass(A, eye, stops, step))
        for k in range(1, 15):
            step *= 0.5
            fine = np.array(_reference_pass(A, eye, stops, step))
            yield 64 << k, (16.0 * fine - coarse) / 15.0, 0.0
            coarse = fine

    _, ys = _refine(levels(), 1e-10)
    return ys[-1] if checkpoints is None else list(ys[:-1])


# ---------------------------------------------------------------------------
# test fields


class _Field:
    """A field the library builds, from one formula: ``field.stack(times)``
    is the ``(k, d, d)`` complex stack of A at a 1-D float array of times,
    and ``field(t)`` is the one matrix of the stack at ``[t]``, so the two
    agree bit for bit by construction.  :func:`_stage_fields` reads a pass's
    times through ``stack``."""

    def __init__(self, stack):
        self.stack = stack

    def __call__(self, t):
        return self.stack(np.array([t], dtype=float))[0]


def triangular_field():
    """The 2x2 upper-triangular field [[2, t], [0, -1]]: the times are
    written into entry (0, 1) of a constant stack."""

    def stack(times):
        out = np.empty((len(times), 2, 2), dtype=complex)
        out[...] = ((2.0, 0.0), (0.0, -1.0))
        out[:, 0, 1] = times
        return out

    return _Field(stack)


def perturbed_triangular_field(seed: int):
    """Triangular field plus a seeded Hermitian perturbation 0.1 (H0 + t H1),
    applied to the whole array of times at once."""
    rng = np.random.default_rng(seed)

    def hermitian():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = 0.5 * (m + m.conj().T)
        return m / max(opnorm(m), 1e-300)

    h0, h1 = hermitian(), hermitian()
    base = triangular_field().stack

    def stack(times):
        return base(times) + 0.1 * (h0 + times[:, None, None] * h1)

    return _Field(stack)


def field_from_samples(times, mats):
    """Piecewise-linear field through the given (time, matrix) samples.

    The matrices must share one dimension (:class:`DimensionMismatch`
    otherwise), and the times must be finite and, once sorted, distinct with
    finite gaps (:class:`InvalidInput`): a repeated time or a gap past the
    float range leaves an interval no weight can interpolate on.  Two
    consecutive times whose gap is at most 1e-14 * max(1, |t_k|, |t_{k+1}|),
    the tolerance within which :func:`_grid` reads a stop at a grid time,
    are refused too (:class:`InvalidInput`): no step grid resolves the
    interval between them, so the field would jump between grid times and
    :func:`rk_reference` could only halve its step to ``2**20`` steps.
    A time at or before the first sample reads the first matrix, one at or
    after the last the last; between them A(t) is (1 - w) m_k + w m_{k+1}.
    A read finds every k with one ``searchsorted`` and applies that formula
    to the whole array of times; each read returns a new array.
    """
    ts = np.asarray(times, dtype=float)
    ms = as_matrices(list(mats))
    if ts.size != len(ms) or ts.size < 2:
        raise InvalidInput("need matching times and matrices, at least two samples")
    if not np.isfinite(ts).all():
        raise InvalidInput("sample times must be finite")
    order = np.argsort(ts)
    ts = ts[order]
    with np.errstate(over="ignore"):
        gaps = np.diff(ts)
    if not (np.isfinite(gaps) & (gaps > 0)).all():
        raise InvalidInput("sample times must be distinct, with finite gaps between them")
    close = gaps <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(ts[:-1]), np.abs(ts[1:])))
    if close.any():
        k = int(np.argmax(close))
        raise InvalidInput(f"sample times {ts[k]:g} and {ts[k + 1]:g} are closer than a step "
                           f"grid resolves (gap {gaps[k]:.3g})")
    ms = np.stack(ms)[order]

    def stack(times):
        low, high = times <= ts[0], times >= ts[-1]
        inner = ~(low | high)
        t = times[inner]
        k = np.searchsorted(ts, t) - 1
        w = ((t - ts[k]) / (ts[k + 1] - ts[k]))[:, None, None]
        out = np.empty((len(times),) + ms.shape[1:], dtype=complex)
        out[low], out[high] = ms[0], ms[-1]
        out[inner] = (1.0 - w) * ms[k] + w * ms[k + 1]
        return out

    return _Field(stack)


def builtin_field(name: str):
    """Resolve a CLI field name: 'triangular' or 'perturbed:SEED'.  Either
    field reads an array of times as one stack (:class:`_Field`)."""
    if name == "triangular":
        return triangular_field()
    if name.startswith("perturbed:"):
        try:
            return perturbed_triangular_field(int(name.split(":", 1)[1]))
        except ValueError:
            raise InvalidInput(f"field seed must be a nonnegative integer: {name!r}") from None
    raise InvalidInput(f"unknown builtin field {name!r}")
