"""Noncommutative Newton and Taylor expansions, commutator-series rewrites,
and the time-ordered (Dyson) expansion of the matrix exponential.

Every divided-difference pairing, confluent or not, is a block of f of one
block-bidiagonal matrix (:func:`opcalc.funcalc.bidiagonal`), evaluated on
one contour; no limits are taken.  A directional derivative of the matrix
map of f needs no routine of its own: the n-th one at a in directions
b_1..b_n is the confluent pairing [a, ..., a] f summed over the orderings
of the b's (:func:`opcalc.funcalc.dd_apply`).

An expansion returns an :class:`ExpansionReport` of partial sums, remainder
norms and an independently computed target, and passes no verdict: the
caller judges the remainders against its own tolerance (the CLI report and
the identity checks of :mod:`opcalc.verify`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import as_matrices, as_matrix, eigen_decompose, matrix_exp, opnorm, stack_times
from .divdiff import bang_shriek, compositions
from .errors import ConvergenceThresholdExceeded, InvalidInput, SeriesDiverging
from .funcalc import _f_bidiagonal, _resolvents, _spectrum, apply_function, bidiagonal, dd_apply
from .functions import HoloFunction
from .quadrature import Contour, contour_around, simplex_integrate

__all__ = [
    "ExpansionReport",
    "newton_interpolate",
    "newton_recursion_check",
    "taylor_expand",
    "taylor_series_ad",
    "dyson_exp",
    "dyson_terms_simplex",
]


@dataclass
class ExpansionReport:
    """Partial sums of an expansion next to an independently computed target."""

    partial_sums: list
    remainder_norms: list
    target: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.partial_sums) != len(self.remainder_norms):
            raise InvalidInput("one remainder norm per partial sum")

    @property
    def final_residual(self) -> float:
        return self.remainder_norms[-1]

    def to_dict(self) -> dict:
        return {
            "orders": list(range(len(self.partial_sums))),
            "remainder_norms": [float(r) for r in self.remainder_norms],
            "target_norm": opnorm(self.target),
            "meta": {
                k: (v if isinstance(v, (int, float, bool, str, list)) else str(v))
                for k, v in self.meta.items()
            },
        }


def newton_interpolate(f: HoloFunction, mats, *,
                       contour: Contour | None = None) -> ExpansionReport:
    """Interpolation expansion of f(a_n) through the nodes a_0, ..., a_n.

    Builds f(a_0) plus the divided-difference corrections paired with the
    increment products (a_n - a_0)...(a_n - a_{j-1}); the matrices need not
    commute, so the factor order matters and is preserved.  Every term is a
    block of row 0 of one f(B), B = ``bidiagonal(a_0..a_n; a_n - a_0, ...,
    a_n - a_{n-1})``.  The target f(a_n) comes from a separate quadrature of
    the single-variable calculus.
    """
    ms = as_matrices(mats)
    d = ms[0].shape[0]
    c = contour_around(_spectrum(ms), contour=contour)
    fb = _f_bidiagonal(f, ms, [ms[-1] - m for m in ms[:-1]], c)
    target = apply_function(f, ms[-1], c)
    partials = list(itertools.accumulate(fb[:d, j * d:(j + 1) * d] for j in range(len(ms))))
    norms = [opnorm(p - target) for p in partials]
    return ExpansionReport(partials, norms, target)


def newton_recursion_check(f: HoloFunction, mats, bs, *, contour: Contour | None = None) -> float:
    """Residual of the divided-difference recursion under node exchange.

    ``mats`` supplies a_0, ..., a_{n+1} (so n + 2 matrices) and ``bs`` the n
    interleaving factors.  Returns the norm of

        ([a_0..a_{n-1}, a_{n+1}] - [a_0..a_n]) f (b_1...b_n)
        - [a_0..a_{n+1}] f (b_1...b_n (a_{n+1} - a_n)).
    """
    ms = as_matrices(mats)
    n = len(ms) - 2
    if n < 0 or len(bs) != n:
        raise InvalidInput("need n+2 nodes and n factors")
    c = contour_around(_spectrum(ms), contour=contour)
    swapped = ms[:n] + [ms[n + 1]]
    lhs = dd_apply(f, swapped, bs, c) - dd_apply(f, ms[: n + 1], bs, c)
    rhs = dd_apply(f, ms, list(bs) + [ms[n + 1] - ms[n]], c)
    return opnorm(lhs - rhs)


def taylor_expand(
    f: HoloFunction,
    a,
    b,
    N: int,
    *,
    contour: Contour | None = None,
) -> ExpansionReport:
    """Expansion of f(a + b) in confluent divided-difference terms.

    Partial sums accumulate the terms [a, ..., a] f (b ... b) for orders
    0..N.  The remainder after each order is recorded two ways: as the
    explicit mixed-node term with a + b in the last slot, and as the distance
    to the target f(a + b).  With B = ``bidiagonal(a, ..., a, a + b; b, ...,
    b)`` (N + 2 blocks), term j is block (0, j) of one f(B) and the explicit
    remainder after order j is block (N - j, N + 1); the target is a separate
    quadrature.  ``meta['c2']`` holds the resolvent sup on the contour; a
    perturbation with c2 * |b| >= 1 is outside the guaranteed convergence
    region and triggers a warning (the sums are still computed).
    """
    if N < 0:
        raise InvalidInput(f"order N must be nonnegative, got {N}")
    am = as_matrix(a)
    d = am.shape[0]
    bm = as_matrix(b, dim=d)
    c = contour_around(_spectrum([am, am + bm]), contour=contour)
    c2 = float(np.max(np.linalg.norm(_resolvents(c.points(128)[0], am), ord=2, axis=(1, 2))))
    if c2 * opnorm(bm) >= 1.0:
        warnings.warn(
            f"c2*|b| = {c2 * opnorm(bm):.3g} >= 1; remainder may not shrink",
            ConvergenceThresholdExceeded,
        )
    fb = _f_bidiagonal(f, [am] * (N + 1) + [am + bm], [bm] * (N + 1), c)
    target = apply_function(f, am + bm, c)
    partials = list(itertools.accumulate(fb[:d, j * d:(j + 1) * d] for j in range(N + 1)))
    norms = [opnorm(target - p) for p in partials]
    rems = [fb[(N - j) * d:(N - j + 1) * d, -d:] for j in range(N + 1)]
    return ExpansionReport(
        partials,
        norms,
        target,
        meta={
            "c2": c2,
            "explicit_remainder_norms": [opnorm(r) for r in rems],
            "identity_defects": [opnorm(p + r - target) for p, r in zip(partials, rems)],
        },
    )


def taylor_series_ad(
    f: HoloFunction,
    a,
    bs,
    order_cap: int = 30,
    side: str = "left-f",
) -> np.ndarray:
    """Divided-difference pairing rewritten as a nested-commutator series.

    ``side="left-f"`` sums (-1)^|alpha| f^(n+|alpha|)(a) ad^alpha(b) / alpha?!
    (derivative factor on the left, back-to-front denominators);
    ``side="right-f"`` sums ad^alpha(b) f^(n+|alpha|)(a) / alpha!? with the
    derivative factor on the right.  ``ad^alpha(b)`` is the product of
    iterated commutators ad_a^{alpha_j}(b_j).  Matrix-argument derivatives go
    through the single-variable calculus.  Shells are total-degree layers;
    the sum stops early once a shell drops below 1e-14 of the running sum and
    raises :class:`SeriesDiverging` after three growing shells.
    """
    if side not in ("left-f", "right-f"):
        raise InvalidInput(f"side must be 'left-f' or 'right-f', got {side!r}")
    am = as_matrix(a)
    bs = [as_matrix(b, dim=am.shape[0]) for b in bs]
    n = len(bs)
    c = contour_around(np.linalg.eigvals(am))

    # iterated commutator tables ad_a^k(b_j), k = 0..order_cap
    ad: list[list[np.ndarray]] = []
    for b in bs:
        row = [b]
        for _ in range(order_cap):
            x = row[-1]
            row.append(am @ x - x @ am)
        ad.append(row)

    total = np.zeros_like(am)
    prev_mag = None
    grows = 0
    for s in range(order_cap + 1):
        deriv_mat = apply_function(f.deriv_function(n + s), am, c)
        shell = np.zeros_like(am)
        for alpha in compositions(s, n):
            prod = np.eye(am.shape[0], dtype=complex)
            for j, k in enumerate(alpha):
                prod = prod @ ad[j][k]
            fwd, bwd = bang_shriek(alpha)
            if side == "left-f":
                shell = shell + (-1.0) ** s * (deriv_mat @ prod) / bwd
            else:
                shell = shell + (prod @ deriv_mat) / fwd
        total = total + shell
        mag = opnorm(shell)
        if prev_mag is not None and mag > prev_mag > 0:
            grows += 1
            if grows >= 3:
                raise SeriesDiverging(
                    f"shell norms grew for {grows} consecutive orders"
                )
        else:
            grows = 0
        prev_mag = mag
        if mag <= 1e-14 * max(opnorm(total), 1e-300):
            break
    return total


def dyson_terms_simplex(a, b, N: int) -> tuple[list, np.ndarray]:
    """Dyson terms 1..N and the closing remainder by simplex quadrature.

    Order-n term: the integral over the standard n-simplex of
    exp(s_0 a) b exp(s_1 a) ... b exp(s_n a); the closing remainder is the
    order-(N+1) integral whose last factor is exp(s_{N+1} (a + b)).  In the
    eigenbasis of ``a`` the a-exponential factors are diagonal, so the
    product chain needs only elementwise scalings plus multiplications by one
    constant matrix, each one GEMM over the whole point stack
    (:func:`opcalc.core.stack_times`); this is what keeps high simplex
    dimensions affordable.
    Raises :class:`NonDiagonalizable` when ``a`` or ``a + b`` has no usable
    eigenbasis.  This is the independent oracle for :func:`dyson_exp`.
    """
    am = as_matrix(a)
    bm = as_matrix(b, dim=am.shape[0])
    lam, v, vinv = eigen_decompose(am)
    mu, w, winv = eigen_decompose(am + bm)
    bprime = vinv @ bm @ v
    mix, mixinv = vinv @ w, winv @ v

    def term(order: int, closing: bool) -> np.ndarray:
        def integrand(s):
            e = np.exp(s[:, :order, None] * lam[None, None, :])  # (P, order, d)
            x = e[:, 0, :, None] * bprime[None]
            for j in range(1, order):
                x = stack_times(x * e[:, j, None, :], bprime)
            if closing:
                x = stack_times(x, mix)
                x = x * np.exp(s[:, order, None] * mu[None, :])[:, None, :]
                x = stack_times(x, mixinv)
            else:
                x = x * np.exp(s[:, order, None] * lam[None, :])[:, None, :]
            return x

        value = simplex_integrate(integrand, order, rtol=1e-9,
                                  point_budget=1_500_000)
        return v @ value @ vinv

    return [term(n, False) for n in range(1, N + 1)], term(N + 1, True)


def dyson_exp(a, b, N: int) -> ExpansionReport:
    """Time-ordered (Dyson) expansion of exp(a + b) in powers of the perturbation.

    Order-n term: the integral over the standard n-simplex of
    exp(s_0 a) b exp(s_1 a) ... b exp(s_n a); the exact closing remainder is
    the order-(N+1) integral whose last factor is exp(s_{N+1} (a + b)).  All
    of them are blocks of one exponential (Van Loan 1978): with B the
    block-bidiagonal matrix holding a, ..., a, a + b (N + 2 blocks) on the
    diagonal and b on the superdiagonal, term n is block (0, n) of exp(B) and
    the remainder is block (0, N + 1).  The report records, per order, the
    distance of the partial sum to exp(a + b); ``meta`` holds the remainder
    norm and the defect of partial + remainder = target, an identity up to
    rounding.  :func:`dyson_terms_simplex` evaluates the same integrals by
    simplex quadrature and serves as the ``verify-all`` oracle.
    """
    if N < 0:
        raise InvalidInput(f"order N must be nonnegative, got {N}")
    am = as_matrix(a)
    bm = as_matrix(b, dim=am.shape[0])
    d = am.shape[0]
    target = matrix_exp(am + bm)
    row = matrix_exp(bidiagonal([am] * (N + 1) + [am + bm], [bm] * (N + 1)))[:d]
    partials = list(itertools.accumulate(row[:, k * d:(k + 1) * d] for k in range(N + 1)))
    norms = [opnorm(target - p) for p in partials]
    remainder = row[:, -d:]
    defect = opnorm(partials[-1] + remainder - target)
    return ExpansionReport(
        partials,
        norms,
        target,
        meta={
            "exact_remainder_norm": opnorm(remainder),
            "identity_defect": defect,
        },
    )
