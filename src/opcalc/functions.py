"""Holomorphic function handles, domain descriptors, and the named builtins.

A :class:`HoloFunction` bundles a vectorized evaluation handle, the required
:class:`Domain` every contour route checks its circle against, and optionally
a derivative handle ``deriv(k, z)``, the one source of derivatives: a handle
without it refuses each with :class:`opcalc.errors.InvalidInput`.  Builtins
carry closed forms.  A :class:`MultivariateFunction` declares a Domain per variable.

Named builtins accepted everywhere a function name is allowed (CLI included):

* ``exp``, ``log``, ``id``
* ``pow:N``          -- z**N, N any integer (negative N excludes 0)
* ``resolvent:RE,IM``-- z -> 1 / (lambda - z), lambda = RE + i IM (both finite)
* ``rational:K``     -- s -> (1 + s)**-K, K a nonnegative integer
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput

__all__ = [
    "Domain",
    "Disc",
    "Sector",
    "Entire",
    "HoloFunction",
    "MultivariateFunction",
    "exp_function",
    "log_function",
    "power_function",
    "resolvent_function",
    "rational_function",
    "named_function",
]


class Domain:
    """Base descriptor for an open set on which a function is holomorphic."""

    def contains(self, z) -> np.ndarray:
        raise NotImplementedError

    def contains_hull(self, z) -> bool:
        """Whether the convex hull of ``z`` lies in the set (exact for convex sets)."""
        return bool(np.all(self.contains(z)))

    def clearance(self, center: complex) -> float:
        """Exact distance from ``center`` to the complement of the set: every
        circle about ``center`` of a smaller radius lies in it.  0 here, which
        a domain that does not know its distance keeps."""
        return 0.0


@dataclass(frozen=True)
class Disc(Domain):
    center: complex
    radius: float

    def contains(self, z):
        return np.abs(np.asarray(z) - self.center) < self.radius

    def clearance(self, center: complex) -> float:
        return max(0.0, self.radius - abs(center - self.center))


@dataclass(frozen=True)
class Sector(Domain):
    """|arg z| < delta, z != 0."""

    delta: float

    def contains(self, z):
        z = np.asarray(z)
        return (np.abs(np.angle(z)) < self.delta) & (z != 0)

    def contains_hull(self, z) -> bool:
        # The hull's boundary is made of node-to-node segments.  From p to q, arg z
        # sweeps monotonically from angle(p) by angle(q / p), which is pi through 0;
        # the sweep must stay inside the sector (a NaN quotient of extreme nodes fails).
        p = np.ravel(np.asarray(z, dtype=complex))
        if not np.all(self.contains(p)):
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            turn = np.angle(p[None, :] / p[:, None])
        end = np.angle(p)[:, None] + turn
        return bool(np.all((np.abs(turn) < np.pi) & (np.abs(end) < self.delta)))

    def clearance(self, center: complex) -> float:
        # the complement is the closed wedge |arg z| >= delta, with 0; from a
        # point of the sector its nearest point lies on one of the two rays
        if not self.contains(center):
            return 0.0

        def to_ray(angle):  # distance to {t e^(i angle): t >= 0}; hypot, as abs may raise
            along = center * cmath.rect(1.0, -angle)  # center in the ray's frame
            return abs(along.imag) if along.real > 0 else math.hypot(center.real, center.imag)

        return min(to_ray(self.delta), to_ray(-self.delta))


@dataclass(frozen=True)
class Entire(Domain):
    def contains(self, z):
        return np.full(np.shape(z), True)

    def clearance(self, center: complex) -> float:
        return math.inf


ENTIRE = Entire()
SLIT_PLANE = Sector(np.pi * (1 - 1e-12))  # the plane cut along (-inf, 0]


@dataclass(frozen=True)
class HoloFunction:
    """Holomorphic function handle: evaluation, domain, optional derivatives."""

    fn: Callable
    domain: Domain
    deriv: Callable | None = None  # deriv(k, z), vectorized in z
    name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.domain, Domain):
            raise InvalidInput(f"a function declares its Domain, got {self.domain!r}")

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def deriv_function(self, k: int) -> "HoloFunction":
        """The k-th derivative as a new handle on the same domain.

        Raises :class:`InvalidInput` for k > 0 when this handle has no ``deriv``.
        """
        if k == 0:
            return self
        if self.deriv is None:
            raise InvalidInput(f"function {self.name!r} has no derivative handle")
        return HoloFunction(
            fn=lambda z, _k=k: self.deriv(_k, z),
            domain=self.domain,
            deriv=lambda j, z, _k=k: self.deriv(_k + j, z),
            name=f"{self.name}^({k})",
        )


@dataclass(frozen=True)
class MultivariateFunction:
    """Function of several complex variables with per-variable domains.

    ``fn(z1, ..., zn)`` receives sparse, broadcastable axis grids (each array
    varies along its own axis only) and may return any shape that broadcasts
    to them: a variable it ignores need not widen its output.
    """

    fn: Callable
    domains: tuple

    def __post_init__(self):
        if not all(isinstance(d, Domain) for d in self.domains):
            raise InvalidInput(f"a function declares a Domain per variable, got {self.domains!r}")

    def __call__(self, *zs):
        return self.fn(*[np.asarray(z, dtype=complex) for z in zs])


def _handle(f, kind: type):
    """``f`` if it is a ``kind`` handle, else :class:`InvalidInput`: every route
    that takes a handle checks it here before evaluating anything."""
    if not isinstance(f, kind):
        raise InvalidInput(f"f must be a {kind.__name__} function handle, got {type(f).__name__}")
    return f


# ---------------------------------------------------------------------------
# builtins


def exp_function() -> HoloFunction:
    return HoloFunction(np.exp, ENTIRE, deriv=lambda k, z: np.exp(z), name="exp")


def log_function() -> HoloFunction:
    # principal branch, holomorphic off the slit (-inf, 0]
    def dlog(k, z):
        return (-1.0) ** (k - 1) * math.factorial(k - 1) * z ** (-k)

    return HoloFunction(np.log, SLIT_PLANE, deriv=dlog, name="log")


def power_function(n: int) -> HoloFunction:
    """z**n; negative n lives on the slit plane (0 excluded)."""

    def dpow(k, z):
        coeff = 1.0
        for i in range(k):
            coeff *= n - i
        if coeff == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return coeff * z ** (n - k)

    domain = ENTIRE if n >= 0 else SLIT_PLANE
    return HoloFunction(lambda z: z ** n, domain, deriv=dpow, name=f"pow:{n}")


def resolvent_function(lam: complex) -> HoloFunction:
    """z -> (lam - z)^-1 on a disc staying clear of the pole."""
    domain = Disc(0.0, 0.95 * abs(lam)) if lam != 0 else SLIT_PLANE

    def dres(k, z):
        return math.factorial(k) * (lam - z) ** (-(k + 1))

    return HoloFunction(
        lambda z: 1.0 / (lam - z), domain, deriv=dres,
        name=f"resolvent:{lam.real:g},{lam.imag:g}",
    )


def rational_function(k: int) -> HoloFunction:
    """s -> (1 + s)**-k, holomorphic off the slit through -1."""

    def drat(j, z):
        coeff = 1.0
        for i in range(j):
            coeff *= -(k + i)
        return coeff * (1.0 + z) ** (-(k + j))

    return HoloFunction(
        lambda s: (1.0 + s) ** (-k),
        SLIT_PLANE,
        deriv=drat,
        name=f"rational:{k}",
    )


def named_function(name: str) -> HoloFunction:
    """Resolve a CLI-style function name to a handle."""
    name = name.strip()
    if name == "exp":
        return exp_function()
    if name == "log":
        return log_function()
    if name == "id":
        return power_function(1)
    try:
        if name.startswith("pow:"):
            return power_function(int(name.split(":", 1)[1]))
        if name.startswith("resolvent:"):
            lam = [float(p) for p in name.split(":", 1)[1].split(",")]
            if len(lam) > 2 or not all(map(math.isfinite, lam)):
                raise ValueError("a resolvent pole is RE[,IM], both finite")
            return resolvent_function(complex(*lam))
        if name.startswith("rational:"):
            k = int(name.split(":", 1)[1])
            if k < 0:
                raise ValueError("the exponent K of rational:K is nonnegative")
            return rational_function(k)
    except ValueError as exc:
        raise InvalidInput(f"malformed function name {name!r}: {exc}") from None
    raise InvalidInput(f"unknown function name: {name!r}")
