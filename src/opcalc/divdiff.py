"""Scalar divided differences by four independent algorithms, plus the
closed forms and multi-index combinatorics they are checked against.

The four routes:

* :func:`dd_recursive`  -- difference-quotient recursion (distinct nodes),
* :func:`dd_explicit`   -- the symmetric sum over nodes (distinct nodes),
* :func:`dd_contour`    -- circle quadrature of f(z) / prod (z - x_j)
  (coincident nodes welcome),
* :func:`dd_hermite`    -- simplex integral of f^(n) at convex combinations
  (coincident nodes welcome, needs the handle's derivatives).

Closed forms: powers of the identity (:func:`dd_power`), simplex power
moments, and the partial-sum factorial products ``alpha!?`` / ``alpha?!``
that show up as the denominators of the nested-commutator series
(:func:`opcalc.ncseries.taylor_series_ad`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (
    CoincidentNodes,
    ContourTooTight,
    DomainViolation,
    InvalidInput,
    OpcalcError,
    ZeroNodeNegativePower,
)
from .functions import HoloFunction, _handle
from .quadrature import contour_around, contour_quadrature, simplex_integrate

__all__ = [
    "dd_recursive",
    "dd_explicit",
    "dd_contour",
    "dd_hermite",
    "dd_power",
    "simplex_moment_s",
    "bang_shriek",
    "multinomial_identity",
    "compositions",
]

COMPOSITION_CAP = 10**6


def _nodes(xs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(xs, dtype=complex))
    if arr.size == 0:
        raise OpcalcError("node set must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("nodes must be finite")
    return arr


def _require_distinct(xs: np.ndarray) -> None:
    """Refuse nodes closer than 1e-8 relative to the largest (at least 1)."""
    scale = max(1.0, float(np.max(np.abs(xs))))
    n = xs.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(xs[i] - xs[j]) <= 1e-8 * scale:
                raise CoincidentNodes(
                    f"nodes {i} and {j} closer than 1e-08 * {scale:g}; "
                    "use the contour or simplex form"
                )


def _node_values(f, x: np.ndarray) -> np.ndarray:
    """A fresh array of the handle f at the nodes (:class:`InvalidInput` for a
    non-handle); :class:`DomainViolation` where one is not finite, as at a pole."""
    with np.errstate(all="ignore"):
        fx = np.array(_handle(f, HoloFunction)(x), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(fx))
    if bad.size:
        raise DomainViolation(f"f is not finite at node {bad[0]} ({x[bad[0]]:g})")
    return fx


def dd_recursive(f, xs) -> complex:
    """Divided difference by the difference-quotient recursion."""
    x = _nodes(xs)
    _require_distinct(x)
    coef = _node_values(f, x)
    n = x.size - 1
    for level in range(1, n + 1):
        coef[: n + 1 - level] = (coef[: n + 1 - level] - coef[1 : n + 2 - level]) / (
            x[: n + 1 - level] - x[level:]
        )
    return complex(coef[0])


def dd_explicit(f, xs) -> complex:
    """Divided difference by the permutation-symmetric sum over nodes."""
    x = _nodes(xs)
    _require_distinct(x)
    fx = _node_values(f, x)
    total = 0.0 + 0.0j
    for k in range(x.size):
        diff = x[k] - np.delete(x, k)
        total += fx[k] / np.prod(diff)
    return complex(total)


def dd_contour(f: HoloFunction, xs, contour=None, *, stats: dict | None = None) -> complex:
    """Divided difference as a circle integral of f(z) * prod (z - x_j)^-1.

    Works for coincident nodes.  The circle is ``contour`` (see
    :class:`opcalc.quadrature.Contour`) or the automatic one, as checked
    against f's declared domain (and widened within it) by
    :func:`opcalc.quadrature.contour_around`, which refuses an ``f`` that is
    not a handle with :class:`InvalidInput`; a quadrature node within 1e-6
    radii of a node raises :class:`ContourTooTight`.
    """
    x = _nodes(xs)
    c = contour_around(x, _handle(f, HoloFunction), contour)

    def batch(zeta):
        gap = np.min(np.abs(zeta[:, None] - x[None, :]))
        if gap < 1e-6 * c.radius:
            raise ContourTooTight("quadrature node within 1e-06 * radius of a node")
        vals = np.asarray(f(zeta), dtype=complex)
        for xj in x:
            vals = vals / (zeta - xj)
        return vals

    return complex(contour_quadrature(batch, c.center, c.radius, start=c.nodes, stats=stats))


def dd_hermite(f: HoloFunction, xs, *, stats: dict | None = None) -> complex:
    """Divided difference as the simplex integral of f^(n) over convex combinations.

    Holds when f is holomorphic on the convex hull of the nodes, so the hull
    must sit strictly inside the declared domain (checked exactly before
    integrating).  Reads f^(n) from the handle's ``deriv``: a handle without
    one is refused with :class:`opcalc.errors.InvalidInput` before any point
    is evaluated.  The per-axis Gauss-Legendre order grows by half per level
    from 8 (``stats["simplex_order"]`` is the accepted one: 12 for most node
    sets, 40 to 90 next to a pole).  From 8 nodes on, the simplex point
    budget leaves one order and so no error estimate:
    :class:`opcalc.errors.QuadratureNoConvergence` is raised first.
    """
    x = _nodes(xs)
    n = x.size - 1
    if not _handle(f, HoloFunction).domain.contains_hull(x):
        raise DomainViolation("convex hull of nodes leaves the function domain")
    fn = f.deriv_function(n)
    return complex(simplex_integrate(lambda s: np.asarray(fn(s @ x), dtype=complex),
                                     n, stats=stats))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices in N^parts with given sum, in colex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    count = math.comb(total + parts - 1, parts - 1)
    if count > COMPOSITION_CAP:
        raise OpcalcError(f"composition enumeration of {count} terms exceeds cap")
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in compositions(total - last, parts - 1):
            yield head + (last,)


def dd_power(xs, N: int) -> complex:
    """Closed-form divided difference of z -> z**N.

    Sum of node monomials of total degree N - n when N >= n, zero in the
    polynomial-degree gap 0 <= N < n, and the mirrored monomial sum divided
    by the node product for N < 0 (all nodes nonzero).
    """
    x = _nodes(xs)
    n = x.size - 1
    if N < 0:
        if np.any(x == 0):
            raise ZeroNodeNegativePower("negative power needs nonzero nodes")
        total = 0.0 + 0.0j
        for alpha in compositions(abs(N) - 1, n + 1):
            total += np.prod(x ** (-np.asarray(alpha)))
        return complex((-1.0) ** n / np.prod(x) * total)
    if N < n:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for alpha in compositions(N - n, n + 1):
        total += np.prod(x ** np.asarray(alpha))
    return complex(total)


def _check_multiindex(alpha) -> tuple[int, ...]:
    parts = tuple(alpha)
    t = tuple(int(a) for a in parts)
    if t != parts or any(a < 0 for a in t):
        raise InvalidInput(f"multi-index parts must be nonnegative integers, got {parts}")
    return t


def simplex_moment_s(alpha) -> Fraction:
    """Moment of the barycentric monomial s^alpha over the n-simplex: a! / (|a|+n)!.

    ``alpha`` has n+1 parts; the value is an exact :class:`fractions.Fraction`.
    """
    a = _check_multiindex(alpha)
    if not a:
        raise InvalidInput("alpha needs n + 1 >= 1 parts for the n-simplex")
    num = 1
    for part in a:
        num *= math.factorial(part)
    return Fraction(num, math.factorial(sum(a) + len(a) - 1))


def bang_shriek(alpha) -> tuple[float, float]:
    """The two partial-sum factorial products of a multi-index.

    Returns ``(a!?, a?!)``: the factorial of the parts times the product of
    shifted partial sums taken front-to-back resp. back-to-front.
    """
    a = _check_multiindex(alpha)
    n = len(a)
    fact = 1
    for part in a:
        fact *= math.factorial(part)
    fwd = bwd = fact
    head = tail = 0
    for j in range(1, n + 1):
        head += a[j - 1]
        tail += a[n - j]
        fwd *= head + j
        bwd *= tail + j
    return float(fwd), float(bwd)


def multinomial_identity(beta, m: int, mode: str = "<=") -> tuple[int, int]:
    """Summed and closed-form values of the binomial-sum identities.

    Sums ``prod_j C(alpha_j, beta_j)`` over all multi-indices ``alpha >= beta``
    with ``|alpha| <= m`` (``mode="<="``) or ``|alpha| = m`` (``mode="="``),
    and pairs the result with the closed forms ``C(m+n, |beta|+n)`` resp.
    ``C(m+n-1, |beta|+n-1)``.  With alpha = beta + gamma, the shell
    |alpha| = |beta| + g sums the product over the compositions gamma of g,
    which is coefficient g of the convolution of the per-part sequences
    C(beta_j + g, beta_j), g = 0..m - |beta|: one exact integer convolution
    gives every shell, without enumerating compositions.
    """
    b = _check_multiindex(beta)
    n = len(b)
    if n == 0:
        raise InvalidInput("beta needs one part or more")
    if m < sum(b):
        raise OpcalcError("m must be at least |beta|")
    if mode not in ("=", "<="):
        raise OpcalcError(f"unknown mode {mode!r}")
    top = m - sum(b)
    shells = [1] + [0] * top
    for bj in b:
        part = [math.comb(bj + g, bj) for g in range(top + 1)]
        shells = [sum(map(operator.mul, shells[:g + 1], part[g::-1])) for g in range(top + 1)]
    if mode == "=":
        return shells[top], math.comb(m + n - 1, sum(b) + n - 1)
    return sum(shells), math.comb(m + n, sum(b) + n)
