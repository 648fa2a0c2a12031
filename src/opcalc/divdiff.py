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
(:func:`opcalc.ncseries.taylor_series_ad`).  :func:`multinomial_identity` reads
every binomial-sum case of one beta, up to a largest m, off one exact
convolution; ``verify-all`` checks them through it.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import as_integer
from .errors import (
    CoincidentNodes,
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
    "compositions",
    "multinomial_identity",
]

COMPOSITION_CAP = 10**6
NODE_CAP = 64  # most nodes a route takes, as many as newton --count


def _nodes(xs) -> np.ndarray:
    """The nodes as a complex array, refused (:class:`InvalidInput`) if empty,
    past ``NODE_CAP`` or not finite: the one node check of all five routes."""
    arr = np.atleast_1d(np.asarray(xs, dtype=complex))
    if arr.size == 0:
        raise InvalidInput("node set must be non-empty")
    if arr.size > NODE_CAP:
        raise InvalidInput(f"{arr.size} nodes exceed {NODE_CAP}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("nodes must be finite")
    return arr


def _require_distinct(xs: np.ndarray) -> None:
    """Refuse nodes closer than 1e-8 relative to the largest (at least 1).

    The scale is capped at the largest float, so a modulus past the float
    range (1.7e308 + 1.7e308i) does not make every pair coincident; the
    callers read it under ``np.errstate``, so its overflow is not reported."""
    scale = min(max(1.0, float(np.max(np.abs(xs)))), sys.float_info.max)
    n = xs.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(xs[i] - xs[j]) <= 1e-8 * scale:
                raise CoincidentNodes(
                    f"nodes {i} and {j} closer than 1e-08 * {scale:g}; "
                    "use the contour or simplex form"
                )


def _node_values(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes, a fresh array read under its callers' errstate (:class:`InvalidInput` for
    a non-handle); :class:`DomainViolation` where one is not finite, as at a pole."""
    fx = np.array(_handle(f, HoloFunction)(x), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(fx))
    if bad.size:
        raise DomainViolation(f"f is not finite at node {bad[0]} ({x[bad[0]]:g})")
    return fx


def _finite_value(value, what: str) -> complex:
    """``value``, computed with numpy's warnings off, refused (InvalidInput) unless finite."""
    if not np.isfinite(value := complex(value)):
        raise InvalidInput(f"{what} is not a finite number on these nodes")
    return value


def dd_recursive(f, xs) -> complex:
    """Divided difference by the difference-quotient recursion."""
    x = _nodes(xs)
    with np.errstate(all="ignore"):
        _require_distinct(x)
        coef = _node_values(f, x)
        n = x.size - 1
        for level in range(1, n + 1):
            coef[: n + 1 - level] = (coef[: n + 1 - level] - coef[1 : n + 2 - level]) / (
                x[: n + 1 - level] - x[level:]
            )
    return _finite_value(coef[0], "the recursion's value")


def dd_explicit(f, xs) -> complex:
    """Divided difference by the permutation-symmetric sum over nodes."""
    x = _nodes(xs)
    with np.errstate(all="ignore"):
        _require_distinct(x)
        fx = _node_values(f, x)
        total = 0.0 + 0.0j
        for k in range(x.size):
            diff = x[k] - np.delete(x, k)
            total += fx[k] / np.prod(diff)
    return _finite_value(total, "the explicit sum")


def dd_contour(f: HoloFunction, xs, *, stats: dict | None = None) -> complex:
    """Divided difference as a circle integral of f(z) * prod (z - x_j)^-1.

    Works for coincident nodes.  The circle is the default one around the
    nodes, checked against f's declared domain (and widened within it) by
    :func:`opcalc.quadrature.contour_around`, which refuses an ``f`` that is
    not a handle with :class:`InvalidInput`.  Its radius is at least
    R0 = 1.2 s + 0.1 about the nodes' centroid, s their spread, so every
    trapezoid node keeps 0.2 s + 0.1 from every node.
    """
    x = _nodes(xs)
    c = contour_around(x, _handle(f, HoloFunction))

    def batch(zeta):
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
    """All multi-indices in N^parts with given sum, in colex order.

    ``total`` and ``parts`` must be nonnegative integers (:class:`InvalidInput`
    naming the argument), checked when called, as is the cap on the count.
    """
    for value, name in ((total, "total"), (parts, "parts")):
        if as_integer(value, name) < 0:
            raise InvalidInput(f"{name} must be nonnegative, got {value}")
    count = math.comb(total + parts - 1, parts - 1) if parts else 1
    if count > COMPOSITION_CAP:
        raise InvalidInput(f"composition enumeration of {count} terms exceeds cap")
    return _compositions(total, parts)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in _compositions(total - last, parts - 1):
            yield head + (last,)


def dd_power(xs, N: int) -> complex:
    """Closed-form divided difference of z -> z**N.

    Sum of node monomials of total degree N - n when N >= n, zero in the
    polynomial-degree gap 0 <= N < n, and the mirrored monomial sum divided
    by the node product for N < 0 (all nodes nonzero).  ``N`` must be an
    integer and the value finite (:class:`InvalidInput` otherwise).
    """
    N = as_integer(N, "N")
    x = _nodes(xs)
    n = x.size - 1
    if N < 0 and np.any(x == 0):
        raise ZeroNodeNegativePower("negative power needs nonzero nodes")
    if 0 <= N < n:
        return 0.0 + 0.0j
    power, degree = (np.negative, abs(N) - 1) if N < 0 else (np.asarray, N - n)
    total = 0.0 + 0.0j
    with np.errstate(all="ignore"):
        for alpha in compositions(degree, n + 1):
            total += np.prod(x ** power(alpha))
        if N < 0:
            total = (-1.0) ** n / np.prod(x) * total
    return _finite_value(total, f"the closed form of z**{N}")


def _check_multiindex(alpha) -> tuple[int, ...]:
    try:
        parts = tuple(alpha)
        t = tuple(map(int, parts))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"a multi-index is a sequence of integers, got {alpha!r}") from None
    if t != parts or min(t, default=0) < 0:
        raise InvalidInput(f"multi-index parts must be nonnegative integers, got {parts}")
    return t


def simplex_moment_s(alpha) -> Fraction:
    """Moment of the barycentric monomial s^alpha over the n-simplex: a! / (|a|+n)!.

    ``alpha`` has n+1 parts; the value is an exact :class:`fractions.Fraction`.
    """
    a = _check_multiindex(alpha)
    if not a:
        raise InvalidInput("alpha needs n + 1 >= 1 parts for the n-simplex")
    return Fraction(math.prod(map(math.factorial, a)), math.factorial(sum(a) + len(a) - 1))


def bang_shriek(alpha) -> tuple[float, float]:
    """The two partial-sum factorial products of a multi-index.

    Returns ``(a!?, a?!)``: the factorial of the parts times the product of
    shifted partial sums taken front-to-back resp. back-to-front.
    """
    a = _check_multiindex(alpha)
    n = len(a)
    fwd = bwd = math.prod(map(math.factorial, a))
    head = tail = 0
    for j in range(1, n + 1):
        head += a[j - 1]
        tail += a[n - j]
        fwd *= head + j
        bwd *= tail + j
    return float(fwd), float(bwd)


def multinomial_identity(beta, m_max: int) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """Summed and closed-form values of the binomial-sum identities, for every
    m from |beta| to ``m_max``.

    Row m is ``((shell, closed), (running, closed))``: ``shell`` sums
    ``prod_j C(alpha_j, beta_j)`` over the multi-indices ``alpha >= beta`` with
    ``|alpha| = m``, beside its closed form ``C(m+n-1, |beta|+n-1)``, and
    ``running`` sums it over ``|alpha| <= m``, beside ``C(m+n, |beta|+n)``.
    With alpha = beta + gamma, the shell |alpha| = |beta| + g sums the product
    over the compositions gamma of g, which is coefficient g of the exact
    integer convolution of the per-part sequences C(beta_j + g, beta_j),
    g = 0..m_max - |beta|: one convolution gives every shell, without
    enumerating compositions.  A bad multi-index, an empty one, or an
    ``m_max`` that is not an integer of at least ``|beta|`` raises
    :class:`InvalidInput`.
    """
    b = _check_multiindex(beta)
    if not b:
        raise InvalidInput("beta needs one part or more")
    m_max = as_integer(m_max, "m_max")
    n, size = len(b), sum(b)
    if m_max < size:
        raise InvalidInput(f"m_max must be at least |beta| = {size}, got {m_max}")
    top = m_max - size
    shells = [1] + [0] * top
    for bj in b:
        part = [math.comb(bj + g, bj) for g in range(top + 1)]
        shells = [sum(map(operator.mul, shells[:g + 1], part[g::-1])) for g in range(top + 1)]
    return {size + g: ((shell, math.comb(size + g + n - 1, size + n - 1)),
                       (running, math.comb(size + g + n, size + n)))
            for g, (shell, running) in enumerate(zip(shells, itertools.accumulate(shells)))}
