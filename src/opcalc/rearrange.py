"""Half-line operator integrals and their rearrangement into modular form.

For functions f_0..f_p with power decay on a sector, the integral

    int_0^inf f_0(u A) b_1 f_1(u A) ... b_p f_p(u A) du

is evaluated three independent ways: directly (adaptive quadrature of the
matrix integrand), as the kernel F applied to the commuting slot lifts
A^(0)..A^(p) and paired with the b factors, and as A^-1 times the kernel G
applied to cumulative products of the modular operators exp(-nabla^(j)),
where nabla^(j) = a^(j-1) - a^(j) is the difference of adjacent slot lifts
of a = log A.  All three must agree; that agreement is the content of the
identity this module verifies.

Each route is one half-line quadrature in A's eigenbasis.  The slot lifts
and the modular products are jointly diagonal there, so neither is ever
formed as a Kronecker matrix: a kernel route evaluates its kernel once on
all d^(p+1) eigenvalue tuples and sums it against V^-1 b_j V (the
Daletskii-Krein form).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, eigen_decompose, stack_times
from .errors import DecayViolation, InvalidInput, SectorViolation
from .functions import HoloFunction, Sector
from .quadrature import halfline_integrate

__all__ = [
    "SectorFunction",
    "power_rational",
    "family_from_exponents",
    "kernel_F",
    "kernel_G",
    "rearrange_lhs",
    "rearrange_rhs_F",
    "rearrange_rhs_G",
]


@dataclass(frozen=True)
class SectorFunction:
    """Holomorphic function on a sector with tagged power decay.

    ``decay_far`` is the exponent alpha in |f(s)| <= C |s|^-alpha for large
    |s|; ``decay_near`` the exponent beta for small |s|.
    """

    holo: HoloFunction
    decay_far: float
    decay_near: float

    def __call__(self, s):
        return self.holo(s)


def power_rational(q: int, p: int = 0) -> SectorFunction:
    """The builtin family s -> s**p * (1+s)**-q (far decay q - p, near decay -p)."""

    def fn(s):
        return s**p * (1.0 + s) ** (-q)

    holo = HoloFunction(fn, Sector(np.pi * (1 - 1e-12)), name=f"s^{p}(1+s)^-{q}")
    return SectorFunction(holo, decay_far=float(q - p), decay_near=float(-p))


def family_from_exponents(qs) -> list[SectorFunction]:
    """[(1+s)^-q for q in qs] -- the CLI's --family parser target."""
    if any(int(q) != q for q in qs):
        raise InvalidInput(f"exponents must be integers, got {list(qs)}")
    return [power_rational(int(q)) for q in qs]


def _check_decay(fs) -> None:
    far = sum(f.decay_far for f in fs)
    near = sum(f.decay_near for f in fs)
    if far <= 1.0 or near >= 1.0:
        raise DecayViolation(
            f"sum of far exponents {far:g} must exceed 1 and sum of near "
            f"exponents {near:g} must stay below 1"
        )


def kernel_F(fs, s):
    """F(s_0..s_p) = int_0^inf f_0(u s_0) ... f_p(u s_p) du.

    ``s`` is one argument tuple, or many along leading axes (the last axis
    has length p+1).  Every tuple goes through one half-line quadrature whose
    error estimate covers them all.  One tuple gives a ``complex``, many an
    array of their leading shape.
    """
    _check_decay(fs)
    pts = np.asarray(s, dtype=complex)
    if pts.ndim == 0 or pts.shape[-1] != len(fs):
        raise DecayViolation(f"{len(fs)} functions need {len(fs)}-argument tuples")

    def integrand(u):
        vals = fs[0](np.multiply.outer(u, pts[..., 0]))
        for j, f in enumerate(fs[1:], start=1):
            vals = vals * f(np.multiply.outer(u, pts[..., j]))
        return vals

    value = halfline_integrate(integrand)
    return complex(value) if pts.ndim == 1 else value


def kernel_G(fs, lam):
    """G(l_1..l_p) = F(1, l_1..l_p) = int_0^inf f_0(u) f_1(u l_1) ... f_p(u l_p) du.

    Tuples batch along leading axes as in :func:`kernel_F`.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    pts = np.concatenate([np.ones(lam.shape[:-1] + (1,)), lam], axis=-1)
    return kernel_F(fs, pts)


def _eigenbasis(fs, A, bs, delta):
    """The input check of every route: decay, factor count, A = V diag(lam) V^-1
    and lam in the sector.  Returns lam, V, V^-1 and the b factors."""
    _check_decay(fs)
    Am = as_matrix(A)
    bmats = [as_matrix(b, dim=Am.shape[0]) for b in bs]
    if len(bmats) != len(fs) - 1:
        raise SectorViolation(f"{len(fs)} functions need {len(fs) - 1} factors")
    lam, v, vinv = eigen_decompose(Am)
    cap = delta if delta is not None else np.pi / 2
    if np.any(lam == 0) or np.any(np.abs(np.angle(lam)) >= cap):
        raise SectorViolation(
            "matrix spectrum must lie in the open sector |arg z| < "
            f"{cap:g} (eigenvalues {lam})"
        )
    return lam, v, vinv, bmats


def rearrange_lhs(
    fs,
    A,
    bs,
    *,
    delta: float | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Direct adaptive quadrature of int f_0(uA) b_1 f_1(uA) ... b_p f_p(uA) du.

    Each factor f(uA) is V diag(f(u lam)) V^-1 in A's eigenbasis; A must be
    diagonalizable (:class:`NonDiagonalizable` otherwise).
    """
    lam, v, vinv, bmats = _eigenbasis(fs, A, bs, delta)

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

    return halfline_integrate(integrand, stats=stats)


def _joint_diagonal(fs, A, bs, delta, kernel):
    """Sum of a kernel over joint eigenvalue tuples, paired with the b factors.

    ``kernel(s)`` maps the meshgrid s[i_0..i_p] = (lam_{i_0}..lam_{i_p}) to the
    kernel's values K[i_0..i_p].  With b'_j = V^-1 b_j V the result is V X V^-1, where
    X[i_0, i_p] = sum K[i_0..i_p] b'_1[i_0, i_1] ... b'_p[i_{p-1}, i_p]
    (X = diag(K) when p = 0).
    """
    lam, v, vinv, bmats = _eigenbasis(fs, A, bs, delta)
    p = len(bmats)
    k = kernel(np.stack(np.meshgrid(*[lam] * (p + 1), indexing="ij"), axis=-1))
    if p == 0:
        return (v * k) @ vinv
    idx = string.ascii_lowercase[: p + 1]
    subscripts = ",".join([idx] + [idx[j : j + 2] for j in range(p)]) + f"->{idx[0]}{idx[p]}"
    return v @ np.einsum(subscripts, k, *[vinv @ b @ v for b in bmats]) @ vinv


def rearrange_rhs_F(fs, A, bs, *, delta: float | None = None) -> np.ndarray:
    """Kernel F on the commuting slot lifts of A, paired with the b factors.

    The lifts A^(0)..A^(p) are jointly diagonal in the tensor power of A's
    eigenbasis, so F acts on tuples of eigenvalues: one batched kernel call
    over all d^(p+1) tuples, then the Daletskii-Krein sum of
    :func:`_joint_diagonal`.
    """
    return _joint_diagonal(fs, A, bs, delta, kernel=lambda s: kernel_F(fs, s))


def rearrange_rhs_G(fs, A, bs, *, delta: float | None = None) -> np.ndarray:
    """A^-1 times kernel G on the cumulative modular products, paired with bs.

    The products exp(-nabla^(1))...exp(-nabla^(j)) of the log of A share the
    joint eigenbasis of the slot lifts; their eigenvalues on the tuple
    (i_0..i_p) are the ratios lam_{i_j} / lam_{i_0}.  So G acts on tuples of
    ratios in one batched kernel call, and A^-1 is the factor 1 / lam_{i_0}.
    """
    return _joint_diagonal(
        fs, A, bs, delta,
        kernel=lambda s: kernel_G(fs, s[..., 1:] / s[..., :1]) / s[..., 0],
    )
