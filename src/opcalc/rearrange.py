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
A = V diag(lam) V^-1 and the sector once, and holds lam, V, V^-1 and each
V^-1 b_j V for all three routes.  Each route is one half-line quadrature in
A's eigenbasis.  The slot lifts and the modular products are jointly
diagonal there, so neither is ever formed as a Kronecker matrix: a kernel
route hands the record to its kernel, which evaluates each slot's factor on
the d eigenvalues (F) or the d x d eigenvalue ratios (G) read off lam and
multiplies the factors out over all d^(p+1) eigenvalue tuples, and sums the
result against V^-1 b_j V (the Daletskii-Krein form).  The caller holds the
record, so nothing computed from an input outlives the call that holds it.
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


def _tuple_slots(tuples: np.ndarray) -> list:
    """``(args, where)`` of each slot (last axis) of dense argument tuples:
    the slot's distinct values, told apart by bit pattern (so +0.0 and -0.0
    stay apart), and the indices that gather them back onto its column."""
    flat = tuples.reshape(math.prod(tuples.shape[:-1]), tuples.shape[-1])
    slots = []
    for column in np.ascontiguousarray(flat.T):
        _, first, where = np.unique(column.view("V16"), return_index=True, return_inverse=True)
        slots.append((column[first], where))
    return slots


def _halfline_kernel(fs, slots, shape):
    """int_0^inf f_0(u x_0) ... f_p(u x_p) du on every tuple of leading ``shape``.

    ``slots`` holds, for each f_j, its distinct arguments (1-D) and the
    indices that gather their values onto the tuples, broadcast against
    ``shape``.  Each f_j is evaluated once per distinct argument.  ``take``
    keeps each factor contiguous and the factors multiply left to right, so
    the panel sums add in the order of a per-tuple evaluation, bit for bit.
    """
    def integrand(u):
        vals = None
        for f, (args, where) in zip(fs, slots):
            factor = f(np.multiply.outer(u, args)).take(where, axis=-1)
            vals = factor if vals is None else vals * factor
        return vals.reshape(np.shape(u) + shape)

    return halfline_integrate(integrand)


def _record_family(qs, e) -> list:
    """The members of ``qs`` for the record ``e``: its own when ``qs`` is its
    family, so the exponents are not checked twice."""
    qs = tuple(qs)
    fs = list(e.fs) if qs == e.qs else _check_decay(qs)
    if len(fs) != len(e.fs):
        raise DecayViolation(f"{len(fs)} functions need {len(fs)}-argument tuples, "
                             f"the record holds {len(e.fs)}")
    return fs


def _axes(d: int, n: int, *axes) -> tuple:
    """The shape of an index array over ``axes`` of the d^n tuple grid."""
    return tuple(d if k in axes else 1 for k in range(n))


def kernel_F(qs, s):
    """F(s_0..s_p) = int_0^inf f_0(u s_0) ... f_p(u s_p) du, f_j = (1 + s)^-q_j.

    ``s`` is one argument tuple, or many along leading axes (the last axis
    has length p+1), or the record of :func:`eigenbasis`, whose joint
    eigenvalue tuples (lam_{i_0}..lam_{i_p}) it then takes, with an array of
    shape (d,) * (p+1).  Every tuple goes through one half-line quadrature
    whose error estimate covers them all.  One tuple gives a ``complex``,
    many an array of their leading shape.  Each f_j is evaluated once per
    distinct argument of slot j and its values gathered onto the tuples: on
    a record, the d eigenvalues, read off lam; on dense tuples, each
    column's values told apart by bit pattern (so +0.0 and -0.0 stay apart).
    Both give the same value, bit for bit.
    """
    if isinstance(s, _Eigenbasis):
        fs, d = _record_family(qs, s), s.lam.size
        index = np.arange(d)
        slots = [(s.lam, index.reshape(_axes(d, len(fs), j))) for j in range(len(fs))]
        return _halfline_kernel(fs, slots, (d,) * len(fs))
    fs = _check_decay(qs)
    pts = np.asarray(s, dtype=complex)
    if pts.ndim == 0 or pts.shape[-1] != len(fs):
        raise DecayViolation(f"{len(fs)} functions need {len(fs)}-argument tuples")
    value = _halfline_kernel(fs, _tuple_slots(pts), pts.shape[:-1])
    return complex(value) if pts.ndim == 1 else value


def kernel_G(qs, lam):
    """G(l_1..l_p) = F(1, l_1..l_p) = int_0^inf f_0(u) f_1(u l_1) ... f_p(u l_p) du.

    ``lam`` is one ratio tuple, or many along leading axes as in
    :func:`kernel_F`, or the record of :func:`eigenbasis`, whose ratio
    tuples lam_{i_j} / lam_{i_0}, j = 1..p, it then takes, with an array of
    shape (d,) * (p+1) indexed by (i_0..i_p).  f_0 is evaluated at the one
    argument 1; on a record slot j reads the d x d table lam_k / lam_i over
    the axes i_0 and i_j.
    """
    if isinstance(lam, _Eigenbasis):
        fs, d = _record_family(qs, lam), lam.lam.size
        n = len(fs)
        ratios = (lam.lam / lam.lam[:, None]).ravel()
        index = np.arange(d * d)
        slots = [(np.ones(1, dtype=complex), np.zeros(_axes(d, n, 0), dtype=np.intp))]
        slots += [(ratios, index.reshape(_axes(d, n, 0, j))) for j in range(1, n)]
        return _halfline_kernel(fs, slots, (d,) * n)
    fs = _check_decay(qs)
    ratios = np.atleast_1d(np.asarray(lam, dtype=complex))
    if ratios.shape[-1] != len(fs) - 1:
        raise DecayViolation(f"{len(fs)} functions need {len(fs) - 1}-argument ratio tuples")
    count = math.prod(ratios.shape[:-1])
    slots = [(np.ones(1, dtype=complex), np.zeros(count, dtype=np.intp)), *_tuple_slots(ratios)]
    value = _halfline_kernel(fs, slots, ratios.shape[:-1])
    return complex(value) if ratios.ndim == 1 else value


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
    holds the b factors and ``blocks`` each V^-1 b_j V.  Every array is a
    read-only view.  The kernels read their joint eigenvalue tuples
    (lam_{i_0}..lam_{i_p}) off lam, so no tuple grid is kept.
    """

    qs: tuple
    fs: tuple
    lam: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    bs: tuple
    blocks: tuple


def eigenbasis(qs, A, bs, *, delta: float | None = None) -> _Eigenbasis:
    """The input check of every route, run once: the record the routes take.

    Checks the exponents (:class:`InvalidInput`, :class:`DecayViolation`),
    ``delta``, a finite real number up to pi or None for pi/2 (:class:`InvalidInput`),
    one b factor per member after the first (:class:`SectorViolation`),
    A = V diag(lam) V^-1 (:class:`NonDiagonalizable`) and lam in the open
    sector |arg z| < delta (:class:`SectorViolation`), then forms each
    V^-1 b_j V.  The caller holds the record; nothing of it is kept here.
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
    return _Eigenbasis(
        qs=tuple(int(q) for q in qs), fs=tuple(fs),
        lam=_read_only(lam), v=_read_only(v), vinv=_read_only(vinv),
        bs=tuple(_read_only(b) for b in bmats),
        blocks=tuple(_read_only(vinv @ b @ v) for b in bmats),
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

    ``k`` holds the kernel's values K[i_0..i_p] on the joint eigenvalue
    tuples (lam_{i_0}..lam_{i_p}), an array of shape (d,) * (p+1).  With
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
    tuples of eigenvalues: one kernel call on the record, which reads each
    slot's d arguments off lam and covers all d^(p+1) tuples, then the
    Daletskii-Krein sum of :func:`_joint_diagonal`.
    """
    e = _checked(basis)
    return _joint_diagonal(e, kernel_F(e.qs, e))


def rearrange_rhs_G(basis) -> np.ndarray:
    """A^-1 times kernel G on the cumulative modular products, paired with bs.

    ``basis`` is the record of :func:`eigenbasis`.  The products
    exp(-nabla^(1))...exp(-nabla^(j)) of the log of A share the joint
    eigenbasis of the slot lifts; their eigenvalues on the tuple (i_0..i_p)
    are the ratios lam_{i_j} / lam_{i_0}.  So G acts on tuples of ratios in
    one kernel call on the record, which reads each slot's d x d ratio table
    off lam, and A^-1 is the factor 1 / lam_{i_0}.
    """
    e = _checked(basis)
    first = e.lam.reshape((-1,) + (1,) * len(e.blocks))
    return _joint_diagonal(e, kernel_G(e.qs, e) / first)
