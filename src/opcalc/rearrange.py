"""Half-line operator integrals and their rearrangement into modular form.

For the functions f_j(s) = (1 + s)^-q_j, j = 0..p, whose integer exponents
sum past 1 (the power decay that makes it converge), the integral

    int_0^inf f_0(u A) b_1 f_1(u A) ... b_p f_p(u A) du

is evaluated three independent ways: directly (adaptive quadrature of the
matrix integrand), as the kernel F applied to the commuting slot lifts
A^(0)..A^(p) and paired with the b factors, and as A^-1 times the kernel G
applied to cumulative products of the modular operators exp(-nabla^(j)),
where nabla^(j) = a^(j-1) - a^(j) is the difference of adjacent slot lifts
of a = log A.  All three must agree; that agreement is the content of the
identity this module verifies.

Every kernel takes the family as its exponent list ``qs`` and evaluates
each member as :func:`opcalc.functions.rational_function`.  A route takes
the record of :func:`eigenbasis`, which checks the family, the b factors,
A = V diag(lam) V^-1 and the sector once, and holds lam, V, V^-1, each
V^-1 b_j V and the grid of joint eigenvalue tuples for all three routes.
Each route is one half-line quadrature in A's eigenbasis.  The slot lifts
and the modular products are jointly diagonal there, so neither is ever
formed as a Kronecker matrix: a kernel route evaluates its kernel once on
all d^(p+1) eigenvalue tuples and sums it against V^-1 b_j V (the
Daletskii-Krein form).  The caller holds the record, so nothing computed
from an input outlives the call that holds it.
"""

from __future__ import annotations

import math
import numbers
import string
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, eigen_decompose, stack_times
from .errors import DecayViolation, InvalidInput, SectorViolation
from .functions import rational_function
from .quadrature import halfline_integrate

__all__ = [
    "eigenbasis",
    "kernel_F",
    "kernel_G",
    "rearrange_lhs",
    "rearrange_rhs_F",
    "rearrange_rhs_G",
]


def _check_decay(qs) -> list:
    """The family (1 + s)^-q, q in ``qs``, once the exponents are finite real
    integers, 2.0 too (:class:`InvalidInput`), summing past 1 (:class:`DecayViolation`).
    ``qs`` is read once, so an iterator is a family too."""
    qs = tuple(qs)
    if not all(isinstance(q, numbers.Real) and math.isfinite(q) and int(q) == q for q in qs):
        raise InvalidInput(f"exponents must be integers, got {list(qs)}")
    total = sum(qs)
    if total <= 1:
        raise DecayViolation(f"sum of decay exponents {total} must exceed 1")
    return [rational_function(int(q)) for q in qs]


def kernel_F(qs, s):
    """F(s_0..s_p) = int_0^inf f_0(u s_0) ... f_p(u s_p) du, f_j = (1 + s)^-q_j.

    ``s`` is one argument tuple, or many along leading axes (the last axis
    has length p+1).  Every tuple goes through one half-line quadrature whose
    error estimate covers them all.  One tuple gives a ``complex``, many an
    array of their leading shape.  Each f_j is evaluated once per distinct
    argument of slot j, told apart by bit pattern (so +0.0 and -0.0 stay
    apart), and its values gathered onto the tuples: on the d^(p+1)
    eigenvalue tuples of a rearrangement route, d values per slot.
    """
    fs = _check_decay(qs)
    pts = np.asarray(s, dtype=complex)
    if pts.ndim == 0 or pts.shape[-1] != len(fs):
        raise DecayViolation(f"{len(fs)} functions need {len(fs)}-argument tuples")
    slots = []
    for f, column in zip(fs, np.ascontiguousarray(pts.reshape(-1, len(fs)).T)):
        _, first, where = np.unique(column.view("V16"), return_index=True, return_inverse=True)
        slots.append((f, column[first], where))

    def integrand(u):
        # ``take`` keeps each factor contiguous, so the panel sums add in
        # the order of a per-tuple evaluation, bit for bit
        vals = None
        for f, args, where in slots:
            factor = f(np.multiply.outer(u, args)).take(where, axis=-1)
            vals = factor if vals is None else vals * factor
        return vals.reshape(np.shape(u) + pts.shape[:-1])

    value = halfline_integrate(integrand)
    return complex(value) if pts.ndim == 1 else value


def kernel_G(qs, lam):
    """G(l_1..l_p) = F(1, l_1..l_p) = int_0^inf f_0(u) f_1(u l_1) ... f_p(u l_p) du.

    Tuples batch along leading axes as in :func:`kernel_F`.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    pts = np.concatenate([np.ones(lam.shape[:-1] + (1,)), lam], axis=-1)
    return kernel_F(qs, pts)


def _read_only(x: np.ndarray) -> np.ndarray:
    """A read-only view of ``x``: the record is frozen, the caller's array is not."""
    view = x.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class _Eigenbasis:
    """The checked input of the three routes, built once by :func:`eigenbasis`.

    ``qs`` holds the exponents as ints and ``fs`` their members of the
    family; A = V diag(lam) V^-1 with ``v`` = V and ``vinv`` = V^-1; ``bs``
    holds the b factors, ``blocks`` each V^-1 b_j V, and ``grid`` the joint
    eigenvalue tuples, grid[i_0..i_p] = (lam_{i_0}..lam_{i_p}).  Every array
    is a read-only view.
    """

    qs: tuple
    fs: tuple
    lam: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    bs: tuple
    blocks: tuple
    grid: np.ndarray


def eigenbasis(qs, A, bs, *, delta: float | None = None) -> _Eigenbasis:
    """The input check of every route, run once: the record the routes take.

    Checks the exponents (:class:`InvalidInput`, :class:`DecayViolation`),
    ``delta``, a finite real number up to pi or None for pi/2 (:class:`InvalidInput`),
    one b factor per member after the first (:class:`SectorViolation`),
    A = V diag(lam) V^-1 (:class:`NonDiagonalizable`) and lam in the open
    sector |arg z| < delta (:class:`SectorViolation`), then forms each
    V^-1 b_j V and the grid of d^(p+1) joint eigenvalue tuples.  The caller
    holds the record; nothing of it is kept here.
    """
    qs = tuple(qs)
    fs = _check_decay(qs)
    if delta is None:
        cap = np.pi / 2
    else:
        try:
            cap = float(delta) if isinstance(delta, numbers.Real) else math.nan
        except OverflowError:  # an int past the float range
            cap = math.inf
        if not math.isfinite(cap) or cap > np.pi:  # a wider sector takes in a pole at u s = -1
            raise InvalidInput(
                f"sector half-angle delta must be a finite real number up to pi, got {delta!r}")
    Am = as_matrix(A)
    bmats = [as_matrix(b, dim=Am.shape[0]) for b in bs]
    if len(bmats) != len(fs) - 1:
        raise SectorViolation(f"{len(fs)} functions need {len(fs) - 1} factors")
    lam, v, vinv = eigen_decompose(Am)
    if np.any(lam == 0) or np.any(np.abs(np.angle(lam)) >= cap):
        raise SectorViolation(
            "matrix spectrum must lie in the open sector |arg z| < "
            f"{cap:g} (eigenvalues {', '.join(f'{z:.6g}' for z in lam)})"
        )
    grid = np.stack(np.meshgrid(*[lam] * len(fs), indexing="ij"), axis=-1)
    return _Eigenbasis(
        qs=tuple(int(q) for q in qs), fs=tuple(fs),
        lam=_read_only(lam), v=_read_only(v), vinv=_read_only(vinv),
        bs=tuple(_read_only(b) for b in bmats),
        blocks=tuple(_read_only(vinv @ b @ v) for b in bmats), grid=_read_only(grid),
    )


def _checked(basis) -> _Eigenbasis:
    if not isinstance(basis, _Eigenbasis):
        raise InvalidInput(
            f"a route takes the record of rearrange.eigenbasis, got {type(basis).__name__}")
    return basis


def rearrange_lhs(basis) -> np.ndarray:
    """Direct adaptive quadrature of int f_0(uA) b_1 f_1(uA) ... b_p f_p(uA) du.

    ``basis`` is the record of :func:`eigenbasis`.  Each factor f(uA) is
    V diag(f(u lam)) V^-1 in A's eigenbasis, evaluated once per panel for
    each distinct exponent of the family.
    """
    e = _checked(basis)
    members = dict(zip(e.qs, e.fs))

    def integrand(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        factor = {q: np.einsum("ij,kj,jl->kil", e.v,
                               np.asarray(f(np.multiply.outer(u, e.lam)), dtype=complex), e.vinv)
                  for q, f in members.items()}
        x = factor[e.qs[0]]
        for q, b in zip(e.qs[1:], e.bs):
            x = stack_times(x, b) @ factor[q]
        return x

    return halfline_integrate(integrand)


def _joint_diagonal(e: _Eigenbasis, k: np.ndarray) -> np.ndarray:
    """Sum of a kernel over joint eigenvalue tuples, paired with the b factors.

    ``k`` holds the kernel's values K[i_0..i_p] on the record's grid.  With
    b'_j = V^-1 b_j V the result is V X V^-1, where
    X[i_0, i_p] = sum K[i_0..i_p] b'_1[i_0, i_1] ... b'_p[i_{p-1}, i_p]
    (X = diag(K) when p = 0).
    """
    p = len(e.blocks)
    if p == 0:
        return (e.v * k) @ e.vinv
    idx = string.ascii_lowercase[: p + 1]
    subscripts = ",".join([idx] + [idx[j : j + 2] for j in range(p)]) + f"->{idx[0]}{idx[p]}"
    return e.v @ np.einsum(subscripts, k, *e.blocks) @ e.vinv


def rearrange_rhs_F(basis) -> np.ndarray:
    """Kernel F on the commuting slot lifts of A, paired with the b factors.

    ``basis`` is the record of :func:`eigenbasis`.  The lifts A^(0)..A^(p)
    are jointly diagonal in the tensor power of A's eigenbasis, so F acts on
    the record's tuples of eigenvalues: one batched kernel call over all
    d^(p+1) tuples, then the Daletskii-Krein sum of :func:`_joint_diagonal`.
    """
    e = _checked(basis)
    return _joint_diagonal(e, kernel_F(e.qs, e.grid))


def rearrange_rhs_G(basis) -> np.ndarray:
    """A^-1 times kernel G on the cumulative modular products, paired with bs.

    ``basis`` is the record of :func:`eigenbasis`.  The products
    exp(-nabla^(1))...exp(-nabla^(j)) of the log of A share the joint
    eigenbasis of the slot lifts; their eigenvalues on the tuple (i_0..i_p)
    are the ratios lam_{i_j} / lam_{i_0}.  So G acts on tuples of ratios in
    one batched kernel call, and A^-1 is the factor 1 / lam_{i_0}.
    """
    e = _checked(basis)
    s = e.grid
    return _joint_diagonal(e, kernel_G(e.qs, s[..., 1:] / s[..., :1]) / s[..., 0])
