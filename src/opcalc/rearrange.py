"""Half-line operator integrals and their rearrangement into modular form.

For functions f_0..f_p with power decay on a sector, the integral

    int_0^inf f_0(u A) b_1 f_1(u A) ... b_p f_p(u A) du

is evaluated three independent ways: directly (adaptive quadrature of the
matrix integrand), as the kernel F applied to the commuting slot lifts
A^(0)..A^(p) and paired with the b factors, and as A^-1 times the kernel G
applied to cumulative products of the modular operators exp(-nabla_a).
All three must agree; that agreement is the content of the identity this
module verifies.

Each route is one half-line quadrature in A's eigenbasis.  The slot lifts
and the modular products are jointly diagonal there, so a kernel route
evaluates its kernel once on all d^(p+1) eigenvalue tuples and sums it
against V^-1 b_j V (the Daletskii-Krein form).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .core import (
    TensorOperator,
    as_matrix,
    eigen_decompose,
    embed_slot,
    matrix_exp,
    nabla,
    rel_err,
    stack_times,
)
from .errors import DecayViolation, SectorViolation
from .functions import HoloFunction, Sector
from .quadrature import halfline_integrate

__all__ = [
    "SectorFunction",
    "SectorConfig",
    "ModularFamily",
    "power_rational",
    "family_from_exponents",
    "validate_decay",
    "sector_check",
    "modular_family",
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
    family: str = "custom"

    def __call__(self, s):
        return self.holo(s)


@dataclass(frozen=True)
class SectorConfig:
    """Opening angle delta with the associated strip and sector descriptors."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < np.pi / 2:
            raise SectorViolation("opening angle must lie in (0, pi/2)")

    @property
    def sector(self) -> Sector:
        return Sector(self.delta)

    @property
    def double_sector(self) -> Sector:
        return Sector(2.0 * self.delta)


def power_rational(q: int, p: int = 0) -> SectorFunction:
    """The builtin family s -> s**p * (1+s)**-q (far decay q - p, near decay -p)."""

    def fn(s):
        return s**p * (1.0 + s) ** (-q)

    holo = HoloFunction(fn, Sector(np.pi * (1 - 1e-12)), name=f"s^{p}(1+s)^-{q}")
    return SectorFunction(holo, decay_far=float(q - p), decay_near=float(-p),
                          family=f"s^{p}(1+s)^-{q}")


def family_from_exponents(qs) -> list[SectorFunction]:
    """[(1+s)^-q for q in qs] -- the CLI's --family parser target."""
    return [power_rational(int(q)) for q in qs]


def validate_decay(f: SectorFunction, delta: float) -> bool:
    """Sample 5 rays in the double sector and check the tagged decay exponents.

    |f| * |s|^alpha must stay bounded (within 100 times its value at |s| = 10)
    as |s| grows, and |f| * |s|^beta (against |s| = 0.1) as |s| shrinks.
    """
    angles = np.linspace(-1.8 * delta, 1.8 * delta, 5)
    ok = True
    for theta in angles:
        ray = np.exp(1j * theta)
        far_ref = abs(f(10.0 * ray)) * 10.0**f.decay_far
        for r in (1e2, 1e4, 1e6):
            ok &= abs(f(r * ray)) * r**f.decay_far <= 100.0 * max(far_ref, 1e-300)
        near_ref = abs(f(0.1 * ray)) * 0.1**f.decay_near
        for r in (1e-2, 1e-4, 1e-6):
            ok &= abs(f(r * ray)) * r**f.decay_near <= 100.0 * max(near_ref, 1e-300)
    return bool(ok)


def _check_decay(fs) -> None:
    far = sum(f.decay_far for f in fs)
    near = sum(f.decay_near for f in fs)
    if far <= 1.0 or near >= 1.0:
        raise DecayViolation(
            f"sum of far exponents {far:g} must exceed 1 and sum of near "
            f"exponents {near:g} must stay below 1"
        )


def sector_check(a, delta: float) -> tuple[bool, dict]:
    """Is spec(a) inside the strip |Im z| < delta?  Returns (flag, report)."""
    lam = np.linalg.eigvals(as_matrix(a))
    bad = [complex(z) for z in lam if abs(z.imag) >= delta]
    report = {
        "delta": float(delta),
        "eigenvalues": [complex(z) for z in lam],
        "violations": bad,
    }
    return (not bad), report


@dataclass
class ModularFamily:
    """exp(a) together with cumulative products of the slot-difference exponentials."""

    A: np.ndarray
    delta_products: list  # TensorOperator, j = 1..p: exp(-nabla^(1)) ... exp(-nabla^(j))
    delta: float
    slot_lift_residual: float


def modular_family(a, p: int, delta: float) -> ModularFamily:
    """Build exp(-nabla_a^(j)) products on p+1 slots and verify their algebra.

    Requires spec(a) inside the strip of half-width ``delta``.  Validates that
    the slot lift of exp(a) into slot j equals the slot-0 lift times the
    cumulative product (relative residual <= 1e-10), and that every product
    spectrum stays inside the double sector.
    """
    am = as_matrix(a)
    ok, report = sector_check(am, delta)
    if not ok:
        raise SectorViolation(f"eigenvalues outside strip: {report['violations']}")
    A = matrix_exp(am)
    d = am.shape[0]
    products = []
    cum = None
    worst = 0.0
    a0 = embed_slot(A, p, 0)
    for j in range(1, p + 1):
        dj = TensorOperator(matrix_exp(-nabla(am, p, j).matrix), d, p + 1)
        cum = dj if cum is None else cum @ dj
        products.append(cum)
        worst = max(worst, rel_err((a0 @ cum).matrix, embed_slot(A, p, j).matrix))
        mu = np.linalg.eigvals(cum.matrix)
        if not np.all(Sector(2 * delta).contains(mu)):
            raise SectorViolation(
                f"modular product {j} has spectrum outside the double sector"
            )
    if worst > 1e-10:
        raise SectorViolation(f"slot-lift factorization residual {worst:.3e} exceeds 1e-10")
    return ModularFamily(A, products, delta, worst)


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
    spec, v, vinv = eigen_decompose(Am)
    lam = spec.eigenvalues
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
