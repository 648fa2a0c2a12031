"""Noncommutative Newton and Taylor expansions, commutator-series rewrites,
and the time-ordered (Dyson) expansion of the matrix exponential.

Every divided-difference pairing, confluent or not, is a block of f of one
block-bidiagonal matrix (:func:`opcalc.funcalc.bidiagonal`), and so is the
target f(a_n), f(a + b) or exp(a + b): its last diagonal block (Opitz 1964).
An expansion evaluates f(B) once, on one circle built and checked once, and
reads every block it reports from the block array funcalc lays out; no
limits are taken.  The resolvent of B is built from the d x d resolvents
R_i = (z - a_i)^-1, so the repeated a of a Taylor expansion costs one
inverse per node.  A directional derivative of the matrix map of f needs no
routine of its own: the n-th one at a in directions b_1..b_n is the
confluent pairing [a, ..., a] f summed over the orderings of the b's
(:func:`opcalc.funcalc.dd_apply`).

An expansion returns an :class:`ExpansionReport` of partial sums, remainder
norms and the target, and passes no verdict: the caller judges the
remainders against its own tolerance (the CLI report and the identity
checks of :mod:`opcalc.verify`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (as_integer, as_matrices, as_matrix, commutator, eigen_decompose, matrix_exp,
                   opnorm, stack_times)
from .divdiff import bang_shriek, compositions
from .errors import InvalidInput
from .funcalc import _block_array, _f_bidiagonal, _resolvents, _spectrum, bidiagonal
from .functions import HoloFunction, _handle
from .quadrature import _refine, contour_around, grundmann_moller_integrate

__all__ = [
    "ExpansionReport",
    "newton_interpolate",
    "newton_recursion_check",
    "taylor_expand",
    "taylor_series_ad",
    "dyson_exp",
    "dyson_terms_simplex",
]

AD_SHELLS = 40  # last total-degree shell of the commutator series


@dataclass
class ExpansionReport:
    """Partial sums of an expansion next to its target, the last diagonal
    block of the same f(B) that holds the terms."""

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
            "meta": dict(self.meta),
        }


def newton_interpolate(f: HoloFunction, mats) -> ExpansionReport:
    """Interpolation expansion of f(a_n) through the nodes a_0, ..., a_n.

    Builds f(a_0) plus the divided-difference corrections paired with the
    increment products (a_n - a_0)...(a_n - a_{j-1}); the matrices need not
    commute, so the factor order matters and is preserved.  Every term is a
    block of row 0 of one f(B), B = ``bidiagonal(a_0..a_n; a_n - a_0, ...,
    a_n - a_{n-1})``, and the target f(a_n) is its block (n, n).  The circle
    is the one around every node's spectrum sized for f
    (:func:`opcalc.quadrature.contour_around`).
    """
    ms = as_matrices(mats)
    c = contour_around(_spectrum(ms), _handle(f, HoloFunction))
    fb = _f_bidiagonal(f, ms, [ms[-1] - m for m in ms[:-1]], c, None)
    target = fb[-1, -1]
    partials = list(itertools.accumulate(fb[0]))
    norms = [opnorm(p - target) for p in partials]
    return ExpansionReport(partials, norms, target)


def newton_recursion_check(f: HoloFunction, mats, bs) -> float:
    """Residual of the divided-difference recursion under node exchange.

    ``mats`` supplies a_0, ..., a_{n+1} (so n + 2 matrices) and ``bs`` the n
    interleaving factors.  Returns the norm of

        ([a_0..a_{n-1}, a_{n+1}] - [a_0..a_n]) f (b_1...b_n)
        - [a_0..a_{n+1}] f (b_1...b_n (a_{n+1} - a_n)).

    [a_0..a_n] and [a_0..a_{n+1}] are blocks (0, n) and (0, n + 1) of one f(B),
    the swapped pairing a second one, on one circle around every node sized for f.
    """
    ms = as_matrices(mats)
    n = len(ms) - 2
    if n < 0 or len(bs) != n:
        raise InvalidInput("need n+2 nodes and n factors")
    c = contour_around(_spectrum(ms), _handle(f, HoloFunction))
    fb = _f_bidiagonal(f, ms, list(bs) + [ms[n + 1] - ms[n]], c, None)
    swapped = _f_bidiagonal(f, ms[:n] + [ms[n + 1]], bs, c, None)[0, -1]
    return opnorm(swapped - fb[0, n] - fb[0, n + 1])


def taylor_expand(f: HoloFunction, a, b, N: int) -> ExpansionReport:
    """Expansion of f(a + b) in confluent divided-difference terms.

    Partial sums accumulate the terms [a, ..., a] f (b ... b) for orders
    0..N.  The remainder after each order is recorded two ways: as the
    explicit mixed-node term with a + b in the last slot, and as the distance
    to the target f(a + b).  With B = ``bidiagonal(a, ..., a, a + b; b, ...,
    b)`` (N + 2 blocks), term j is block (0, j) of one f(B), the explicit
    remainder after order j is block (N - j, N + 1) and the target is block
    (N + 1, N + 1), on the circle around the spectra of a and a + b sized
    for f.  ``meta['c2']`` holds the resolvent sup of a on the tight circle
    R0 = 1.1 s + 0.1 (1 + s) of those spectra, which the geometric decay of
    the remainders is judged against; a perturbation with c2 * |b| >= 1 is
    outside the guaranteed convergence region, and the sums are computed
    all the same.
    """
    N = as_integer(N, "order N")
    if N < 0:
        raise InvalidInput(f"order N must be nonnegative, got {N}")
    am = as_matrix(a)
    bm = as_matrix(b, dim=am.shape[0])
    spectrum = _spectrum([am, am + bm])
    tight = contour_around(spectrum)
    c2 = float(np.max(np.linalg.norm(_resolvents(tight.points(128)[0], am), ord=2, axis=(1, 2))))
    c = contour_around(spectrum, _handle(f, HoloFunction))
    fb = _f_bidiagonal(f, [am] * (N + 1) + [am + bm], [bm] * (N + 1), c, None)
    target = fb[-1, -1]
    partials = list(itertools.accumulate(fb[0, :N + 1]))
    norms = [opnorm(target - p) for p in partials]
    rems = fb[N::-1, -1]
    return ExpansionReport(partials, norms, target, {
        "c2": c2,
        "explicit_remainder_norms": [opnorm(r) for r in rems],
        "identity_defects": [opnorm(p + r - target) for p, r in zip(partials, rems)]})


def taylor_series_ad(f: HoloFunction, a, bs) -> tuple[np.ndarray, np.ndarray]:
    """Divided-difference pairing rewritten as both nested-commutator series.

    Returns ``(left, right)``: ``left`` sums (-1)^|alpha| f^(n+|alpha|)(a)
    ad^alpha(b) / alpha?! (derivative factor on the left, back-to-front
    denominators), ``right`` sums ad^alpha(b) f^(n+|alpha|)(a) / alpha!? with
    the derivative factor on the right.  ``ad^alpha(b)`` is the product of
    iterated commutators ad_a^{alpha_j}(b_j), each table growing by one
    commutator per shell.  Shells are total-degree layers s = 0, 1, ...,
    ``AD_SHELLS``; each shell's matrix-argument derivative is integrated
    once, on one circle around the spectrum of a checked once for f (whose
    domain the derivatives keep), and serves both sums.  Every shell reads
    the resolvents of a at each doubling level's nodes from one table built
    in this call (the ``known`` of :func:`opcalc.funcalc._f_bidiagonal`), so
    each node is inverted once per call, not once per shell.  The running
    ``(left, right)`` after each shell is one level of
    :func:`opcalc.quadrature._refine` at 1e-14, its mass the sum of |term|
    over the terms so far, so a series that has not settled by the last
    shell raises :class:`QuadratureNoConvergence`.
    """
    am = as_matrix(a)
    bs = [as_matrix(b, dim=am.shape[0]) for b in bs]
    n = len(bs)
    c = contour_around(np.linalg.eigvals(am), _handle(f, HoloFunction))

    def levels():
        ad = [[b] for b in bs]  # ad[j][k] = ad_a^k(b_j)
        sums, mass = np.zeros((2, *am.shape), dtype=complex), 0.0  # (left, right)
        known = {}  # resolvents of a per node batch, shared by every shell
        for s in range(AD_SHELLS + 1):
            deriv_mat = _f_bidiagonal(f.deriv_function(n + s), [am], [], c, known)[0, 0]
            shell = np.zeros_like(sums)
            for alpha in compositions(s, n):
                prod = np.eye(am.shape[0], dtype=complex)
                for j, k in enumerate(alpha):
                    prod = prod @ ad[j][k]
                fwd, bwd = bang_shriek(alpha)
                term = np.stack([(-1.0) ** s * (deriv_mat @ prod) / bwd, (prod @ deriv_mat) / fwd])
                shell = shell + term
                mass += float(np.abs(term).sum())
            sums = sums + shell
            yield s, sums, mass
            for row in ad:  # one more commutator each for the next shell
                row.append(commutator(am, row[-1]))

    return tuple(_refine(levels(), 1e-14)[1])


def dyson_terms_simplex(a, b, N: int) -> tuple[list, np.ndarray]:
    """Dyson terms 1..N and the closing remainder by simplex quadrature.

    Order-n term: the integral over the standard n-simplex of
    exp(s_0 a) b exp(s_1 a) ... b exp(s_n a); the closing remainder is the
    order-(N+1) integral whose last factor is exp(s_{N+1} (a + b)).  These
    integrands are entire in s, so the Grundmann-Moller rules of
    :func:`opcalc.quadrature.grundmann_moller_integrate` reach them with
    C(n+s+1, s) points per rule (792 on the 6-simplex at s = 5) where a
    product rule needs q^n.  In the eigenbasis of ``a`` the a-exponential
    factors are diagonal, so the product chain needs only elementwise
    scalings plus multiplications by one constant matrix, each one GEMM over
    the whole point stack (:func:`opcalc.core.stack_times`).
    Raises :class:`NonDiagonalizable` when ``a`` or ``a + b`` has no usable
    eigenbasis.  This is the independent oracle for :func:`dyson_exp`: it
    shares no code with the block exponential (``scipy.linalg.expm``).
    """
    N = as_integer(N, "order N")
    if N < 0:
        raise InvalidInput(f"order N must be nonnegative, got {N}")
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

        return v @ grundmann_moller_integrate(integrand, order) @ vinv

    return [term(n, False) for n in range(1, N + 1)], term(N + 1, True)


def dyson_exp(a, b, N: int) -> ExpansionReport:
    """Time-ordered (Dyson) expansion of exp(a + b) in powers of the perturbation.

    Order-n term: the integral over the standard n-simplex of
    exp(s_0 a) b exp(s_1 a) ... b exp(s_n a); the exact closing remainder is
    the order-(N+1) integral whose last factor is exp(s_{N+1} (a + b)).  All
    of them are blocks of one exponential (Van Loan 1978): with B the
    block-bidiagonal matrix holding a, ..., a, a + b (N + 2 blocks) on the
    diagonal and b on the superdiagonal, term n is block (0, n) of exp(B),
    the remainder is block (0, N + 1) and the target exp(a + b) is block
    (N + 1, N + 1).  The report records, per order, the distance of the
    partial sum to the target; ``meta`` holds the remainder norm and the
    defect of partial + remainder = target, an identity up to rounding.
    :func:`dyson_terms_simplex` evaluates the same integrals by simplex
    quadrature and serves as the ``verify-all`` oracle.
    """
    N = as_integer(N, "order N")
    if N < 0:
        raise InvalidInput(f"order N must be nonnegative, got {N}")
    am = as_matrix(a)
    bm = as_matrix(b, dim=am.shape[0])
    eb = _block_array(matrix_exp(bidiagonal([am] * (N + 1) + [am + bm], [bm] * (N + 1))), N + 2)
    target = eb[-1, -1]
    partials = list(itertools.accumulate(eb[0, :N + 1]))
    norms = [opnorm(target - p) for p in partials]
    remainder = eb[0, -1]
    return ExpansionReport(partials, norms, target, {
        "exact_remainder_norm": opnorm(remainder),
        "identity_defect": opnorm(partials[-1] + remainder - target)})
