"""Holomorphic function handles, domain descriptors, and the named builtins.

A :class:`HoloFunction` bundles a vectorized evaluation handle with a domain
descriptor and (optionally) a derivative handle ``deriv(k, z)``.  Derivatives
come from that handle alone: a handle without one refuses every derivative
with :class:`opcalc.errors.InvalidInput`.  Every builtin carries its closed
form.  A :class:`MultivariateFunction` takes one domain per variable.

Named builtins accepted everywhere a function name is allowed (CLI included):

* ``exp``, ``log``, ``id``
* ``pow:N``          -- z**N, N any integer (negative N excludes 0)
* ``resolvent:RE,IM``-- z -> 1 / (lambda - z) with lambda = RE + i IM
* ``rational:K``     -- s -> (1 + s)**-K (also accepted: ``rational:(1+s)^-K``)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Disc(Domain):
    center: complex = 0.0
    radius: float = 1.0

    def contains(self, z):
        return np.abs(np.asarray(z) - self.center) < self.radius


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
        # the sweep must stay inside the sector.
        p = np.ravel(np.asarray(z, dtype=complex))
        if not np.all(self.contains(p)):
            return False
        turn = np.angle(p[None, :] / p[:, None])
        end = np.angle(p)[:, None] + turn
        return bool(np.all((np.abs(turn) < np.pi) & (np.abs(end) < self.delta)))


@dataclass(frozen=True)
class Entire(Domain):
    def contains(self, z):
        return np.full(np.shape(z), True)


ENTIRE = Entire()


@dataclass(frozen=True)
class HoloFunction:
    """Holomorphic function handle: evaluation, domain, optional derivatives."""

    fn: Callable
    domain: Domain = ENTIRE
    deriv: Callable | None = None  # deriv(k, z), vectorized in z
    name: str = "custom"

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def derivative(self, k: int, z):
        """f^(k)(z) from the derivative handle."""
        return self.deriv_function(k)(z)

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
            deriv=lambda j, z, _k=k: self.derivative(_k + j, z),
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
    domains: tuple = field(default_factory=tuple)
    name: str = "custom"

    def __call__(self, *zs):
        return self.fn(*[np.asarray(z, dtype=complex) for z in zs])


# ---------------------------------------------------------------------------
# builtins


def exp_function() -> HoloFunction:
    return HoloFunction(np.exp, ENTIRE, deriv=lambda k, z: np.exp(z), name="exp")


def log_function() -> HoloFunction:
    # principal branch, holomorphic off the slit (-inf, 0]
    def dlog(k, z):
        return (-1.0) ** (k - 1) * math.factorial(k - 1) * z ** (-k)

    return HoloFunction(np.log, Sector(np.pi * (1 - 1e-12)), deriv=dlog, name="log")


def power_function(n: int) -> HoloFunction:
    """z**n; negative n lives on the slit plane (0 excluded)."""

    def dpow(k, z):
        coeff = 1.0
        for i in range(k):
            coeff *= n - i
        if coeff == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return coeff * z ** (n - k)

    domain = ENTIRE if n >= 0 else Sector(np.pi * (1 - 1e-12))
    return HoloFunction(lambda z: z ** n, domain, deriv=dpow, name=f"pow:{n}")


def resolvent_function(lam: complex, domain: Domain | None = None) -> HoloFunction:
    """z -> (lam - z)^-1 on a disc staying clear of the pole."""
    if domain is None:
        domain = Disc(0.0, 0.95 * abs(lam)) if lam != 0 else Sector(np.pi * (1 - 1e-12))

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
        Sector(np.pi * (1 - 1e-12)),
        deriv=drat,
        name=f"rational:{k}",
    )


_RATIONAL_RE = re.compile(r"rational:(?:\(1\+s\)\^-)?(\d+)\)?$")


def named_function(name: str) -> HoloFunction:
    """Resolve a CLI-style function name to a handle."""
    name = name.strip()
    if name == "exp":
        return exp_function()
    if name == "log":
        return log_function()
    if name == "id":
        return power_function(1)
    if name.startswith("pow:"):
        return power_function(int(name.split(":", 1)[1]))
    if name.startswith("resolvent:"):
        parts = name.split(":", 1)[1].split(",")
        lam = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
        return resolvent_function(lam)
    m = _RATIONAL_RE.match(name)
    if m:
        return rational_function(int(m.group(1)))
    raise InvalidInput(f"unknown function name: {name!r}")
