"""Quadrature engines shared across modules.

Four families:

* trapezoid sums on circles with nested node doubling: each level reuses
  the integrand values of the one before and evaluates only the new nodes
  (spectrally accurate for integrands holomorphic in an annulus around the
  circle),
* Gauss-Legendre rules on the standard simplex through the map
  ``t_j = u_1 * ... * u_j`` from the unit cube (Duffy): positive weights, so
  the rule of ``divdiff.dd_hermite``, whose integrands f^(n) need only be
  smooth on the simplex; the per-axis order grows by half from level to
  level (8, 12, 18, 27, ...), so a level past the one needed costs about
  1.5^n, not 2^n, times the points,
* Grundmann-Moller rules on the standard simplex: rational, of degree 2s+1
  with C(n+s+1, s) points, but with weights of both signs, so only for
  entire integrands such as the Dyson oracle's
  (``ncseries.dyson_terms_simplex``),
* the 15-point Kronrod rule on 1, 2, 4, ... equal panels, plus the
  substitution ``u = t / (1 - t)`` for integrals over [0, inf).

Every circle of the contour calculus comes from :func:`contour_around`, a
default circle built for a function is sized for it by the one rule of
:func:`_widened` (the tensor grid's torus widens its circles together), and
every refining rule (circle doubling, both simplex rules, Kronrod panel
halving, the tensor grid of ``funcalc.funcalc_n``, the Runge-Kutta reference
of ``magnus`` and the commutator series of ``ncseries``) stops by the one
rule of :func:`_refine`.

All reductions run in a fixed order so repeated runs are bit-identical.  The
unit roots of a circle with m nodes are one read-only table per m, built on
first use and kept for the process (at most ``ROOT_TABLES`` of them, like the
Gauss-Legendre rules); nothing computed from an input outlives its call.  A
doubling level takes its new nodes and weights as the strided slices
``zeta[1::2]`` and ``w[1::2]`` of the level's full arrays, never as contiguous
copies: the values are the same, but numpy takes other paths for contiguous
operands and can round differently.  Contiguous weights change the GEMM of
the level sum (98 of 1092 seeded perfbench reports changed on one AMD EPYC
host); the nodes stay strided too, since numpy's vectorised ufunc loops may
also depend on the layout.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import as_integer
from .errors import ContourViolation, InvalidInput, QuadratureNoConvergence
from .functions import ENTIRE, HoloFunction, _handle

__all__ = [
    "Contour",
    "contour_around",
    "circle_points",
    "contour_quadrature",
    "iter_simplex_rule",
    "simplex_integrate",
    "grundmann_moller_integrate",
    "adaptive_gauss_kronrod",
    "halfline_integrate",
    "gauss_legendre_01",
]

_TINY = 1e-300
MAX_NODES = 8192  # most trapezoid nodes a circle quadrature doubles to
MAX_ORDER = 128  # largest per-axis Gauss-Legendre order a simplex level grows to
POINT_BUDGET = 4_000_000  # most points of one simplex level, for either rule
# Most simplex points one block holds, for either rule.  Sized to the cache,
# not to memory: at n = 3 a block's coordinates are 512 kB, and a whole
# dd_hermite walk traces 2.7 MB at its peak, where 2^18-point blocks held 38 MB.
SIMPLEX_BLOCK = 1 << 14
# Most unit-root tables kept for the process, each of at most MAX_NODES
# points: at most 8 MB.  The doubling ladder 16, 32, ..., MAX_NODES is ten.
ROOT_TABLES = 64
_ROOTS: dict[int, np.ndarray] = {}
_ROOTS_LOCK = threading.Lock()


def _norm(x) -> float:
    """Flat 2-norm, bit for bit ``np.linalg.norm(x)``: for a complex array the
    formula numpy's ``norm`` uses, without its argument handling."""
    x = np.asarray(x)
    if x.ndim == 0:
        return float(abs(x))
    x = x.ravel(order="K")
    if np.iscomplexobj(x):
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return float(np.linalg.norm(x))


def _refine(levels, rtol: float):
    """``(size, value)`` of the first of the ``(size, value, mass)`` levels that
    agrees with the one before within ``rtol`` relative in the flat norm
    :func:`_norm`, or within 2e-15 of the larger mass sum |w| |f| (so exact
    zeros converge).  A level whose difference or floor is not finite (an
    overflow, a NaN) raises :class:`QuadratureNoConvergence` at once.
    The levels are computed and compared with numpy's overflow, divide and
    invalid warnings off: the finiteness check is what reports them.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        size, prev, prev_mass = next(levels)
        err = floor = float("nan")
        for size, value, mass in levels:
            err = _norm(value - prev)
            floor = max(rtol * _norm(value), 2e-15 * max(mass, prev_mass), _TINY)
            if not (math.isfinite(err) and math.isfinite(floor)):
                raise QuadratureNoConvergence(
                    f"non-finite level at size {size}: difference {err:.3e}, floor {floor:.3e}"
                )
            if err <= floor:
                return size, value
            prev, prev_mass = value, mass
    raise QuadratureNoConvergence(
        f"no two levels agreed up to size {size}: "
        f"last difference {err:.3e}, floor {floor:.3e}"
    )


def _weighted_sum(fn, blocks):
    """Sum of ``w * fn(points)`` over ``(points, w)`` blocks, and its mass sum |w| |fn|.

    A block's sum is the one GEMM that ``np.tensordot(w, vals, axes=(0, 0))``
    makes, bit for bit, without its argument handling (``w @ vals`` would be
    a GEMV and may round differently)."""
    value = None
    mass = 0.0
    for pts, w in blocks:
        vals = np.asarray(fn(pts))
        part = np.dot(w.reshape(1, -1), vals.reshape(len(w), -1)).reshape(vals.shape[1:])
        value = part if value is None else value + part
        mass += float(np.sum(np.abs(w) * np.abs(vals).reshape(len(w), -1).sum(axis=1)))
    return value, mass


# ---------------------------------------------------------------------------
# circle trapezoid


def _finite(isfinite, value) -> bool:
    """``isfinite(value)``, and False for a value that is not a number or
    is an integer past the float range."""
    try:
        return isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Contour:
    """Circular integration cycle: center, radius, starting trapezoid count.

    The one check of a circle: every integrator builds its circle here.  The
    count is an integer (numpy's too), a power of two from 16 to
    ``MAX_NODES // 2`` so that a second level can be compared with it.
    """

    center: complex
    radius: float
    nodes: int = 16

    def __post_init__(self):
        if not _finite(cmath.isfinite, self.center):
            raise ContourViolation(f"contour center must be a finite number, got {self.center!r}")
        if not (_finite(math.isfinite, self.radius) and self.radius > 0):
            raise ContourViolation(
                f"contour radius must be a finite positive number, got {self.radius!r}")
        try:
            nodes = operator.index(self.nodes)
        except TypeError:
            raise ContourViolation(f"contour nodes must be an integer, got {self.nodes!r}") from None
        if nodes > MAX_NODES // 2:
            raise ContourViolation(f"contour nodes {nodes} exceed {MAX_NODES // 2}, "
                                   f"half of the {MAX_NODES} a circle refines to")
        if nodes < 16 or nodes & (nodes - 1):
            raise ContourViolation("node count must be a power of two >= 16")

    def points(self, m: int):
        return circle_points(self.center, self.radius, m)


def contour_around(points, f=None, contour=None) -> Contour:
    """``contour``, or by default a circle around ``points`` (eigenvalues or
    nodes) at their centroid.

    ``f`` is the function handle, or None for the tight reference circle.
    The default circle has radius R0 = 1.1 s + 0.1 (1 + s), s the spread of
    the points.  Given a handle, it widens that circle (see :func:`_widened`):
    the trapezoid error falls like (rho / R)^m, rho the points' reach from
    the centre, so a wider circle needs fewer nodes.  ``funcalc.funcalc_n``
    builds its torus the same way, one circle per variable.

    Raises :class:`InvalidInput` for an ``f`` that is not a handle, no points
    or a point that is not finite, and :class:`ContourViolation` unless the
    circle strictly encloses every point and 64 probe points on it lie in
    the handle's declared domain.  A default circle is checked before it
    widens, so widening never changes a refusal.
    """
    if f is not None:
        _handle(f, HoloFunction)
    return _torus_around(f, [points], [ENTIRE if f is None else f.domain], [contour])[0]


def _torus_around(f, point_sets, domains, contours) -> list:
    """One circle per axis, as :func:`contour_around` builds and checks it
    from the axis's points, domain and given circle (or None); the default
    ones are then widened together for ``f``, a callable of one variable per
    axis (none when ``f`` is None)."""
    circles, spreads = [], []
    for points, domain, contour in zip(point_sets, domains, contours):
        pts = np.ravel(np.asarray(points, dtype=complex))
        if pts.size == 0:
            raise InvalidInput("a contour needs at least one point to enclose")
        if not np.all(np.isfinite(pts)):
            raise InvalidInput("contour points must be finite")
        spread = None
        with np.errstate(over="ignore", invalid="ignore"):  # a spread past the float range fails
            if contour is None:
                center = complex(pts.mean())
                spread = float(np.max(np.abs(pts - center)))
                contour = Contour(center, 1.1 * spread + 0.1 * (1.0 + spread))
            if np.any(np.abs(pts - contour.center) >= contour.radius):
                raise ContourViolation("contour does not enclose the spectrum")
            probe, _ = circle_points(contour.center, contour.radius, 64)
            if not np.all(domain.contains(probe)):
                raise ContourViolation("contour exits the declared function domain")
        circles.append(contour)
        spreads.append(spread)
    if f is None:
        return circles
    return _widened(f, circles, spreads, domains)


def _widened(f, cs, spreads, domains) -> list:
    """The circles ``cs`` widened together for ``f`` (one variable per circle).

    A circle with spread s and radius R0 widens at most to
    R_max = min(2 R0, sqrt(s D)), D the clearance of its domain from the
    centre (2 R0 when D is infinite); a given circle (spread None) stays:
    the geometric mean of the spread and D balances the rate rho / R
    against the singularity's own rate R / D.  It takes the first radii
    R0 + (R_max - R0) / 2^k, k = 0..4, whose probe grid has max |f| at most
    10 times that on the grid at the radii R0 (the round-off floor grows
    with max |f|), else ``cs``.  The grid holds min(64, 2^(12 // n)) points
    per circle, n circles: at most 4096.  R_max > R0 only when D > R0, and
    then R_max < D, so every circle stays in its domain exactly.
    """
    widest = []
    for c, spread, domain in zip(cs, spreads, domains):
        r_max = c.radius
        if spread is not None:
            r_max = 2.0 * c.radius
            clearance = domain.clearance(c.center)
            if clearance < math.inf:
                r_max = min(r_max, math.sqrt(spread * clearance))
        widest.append(max(r_max, c.radius))
    if all(r == c.radius for r, c in zip(widest, cs)):
        return cs
    m = min(64, 2 ** (12 // len(cs)))

    def peak(radii):  # max |f| on the probe grid at these radii
        axes = [circle_points(c.center, r, m)[0] for c, r in zip(cs, radii)]
        return np.max(np.abs(f(*np.meshgrid(*axes, indexing="ij", sparse=True))))

    with np.errstate(all="ignore"):  # an overflow on a probe just refuses those radii
        cap = 10.0 * peak([c.radius for c in cs])
        if not math.isfinite(cap):
            return cs
        for k in range(5):
            radii = [c.radius + (r - c.radius) / 2**k for c, r in zip(cs, widest)]
            if peak(radii) <= cap:
                return [Contour(c.center, r, c.nodes) for c, r in zip(cs, radii)]
    return cs


def _unit_roots(m: int) -> np.ndarray:
    """exp(2 pi i k / m), k = 0..m-1, read-only.  The first ``ROOT_TABLES``
    counts asked for keep their table for the process; a later count gets a
    fresh one each time."""
    roots = _ROOTS.get(m)
    if roots is None:
        roots = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        roots.setflags(write=False)
        with _ROOTS_LOCK:
            if len(_ROOTS) < ROOT_TABLES:
                roots = _ROOTS.setdefault(m, roots)
    return roots


def circle_points(center: complex, radius: float, m: int):
    """m equispaced points on the circle and weights for (2 pi i)^-1 * closed integral.

    ``m`` is an integer from 1 to ``MAX_NODES`` (:class:`InvalidInput`
    otherwise).  The points are ``center + radius * roots``, the roots read
    from the process-wide table of :func:`_unit_roots`.
    """
    m = as_integer(m, "node count")
    if not 1 <= m <= MAX_NODES:
        raise InvalidInput(f"node count must be from 1 to {MAX_NODES}, got {m}")
    offset = radius * _unit_roots(m)
    return center + offset, offset / m


def contour_quadrature(
    batch_fn,
    center: complex,
    radius: float,
    *,
    start: int = 16,
    rtol: float = 1e-12,
    chunk: int | None = None,
    stats: dict | None = None,
):
    """Nested node-doubling trapezoid for (2 pi i)^-1 * closed circle integral.

    ``batch_fn(zeta)`` maps an array of contour points to their integrand
    values (any trailing shape).  ``Contour(center, radius, start)`` checks
    the circle first, so a bad one raises :class:`ContourViolation` before
    any level is built.  The m nodes of one level are the even nodes of the
    next, so doubling to 2m evaluates only the m new (odd) nodes of
    ``circle_points(center, radius, 2m)`` and halves the previous sum, whose
    weights ``offset/m`` become ``offset/(2m)``; every node is evaluated once,
    up to ``MAX_NODES`` nodes.  With ``chunk`` set, at most that many integrand
    values are materialized at a time (for bulky tensor-valued integrands);
    a chunk that is not a positive integer is :class:`InvalidInput`.
    """
    c = Contour(center, radius, start)
    step = None if chunk is None else as_integer(chunk, "chunk")
    if step is not None and step < 1:
        raise InvalidInput(f"chunk must be a positive integer, got {step}")
    levels = _circle_levels(lambda zeta, w: _weighted_sum(batch_fn, [(zeta, w)]), c, step)
    m, value = _refine(levels, rtol)
    if stats is not None:
        stats["contour_nodes"] = m
    return value


def _circle_levels(weighted, c: Contour, step):
    """``(m, value, mass)`` levels of nested node doubling on the :class:`Contour`
    ``c``, from ``c.nodes`` up to ``MAX_NODES``; ``weighted(zeta, w)`` returns the
    sum of ``w`` times the integrand over at most ``step`` nodes (all when None),
    and its mass.  A level adds its new (odd) nodes to half the last one."""
    def total(zeta, w):
        size = step or len(zeta)
        value, mass = weighted(zeta[:size], w[:size])
        for lo in range(size, len(zeta), size):
            more, more_mass = weighted(zeta[lo : lo + size], w[lo : lo + size])
            value, mass = value + more, mass + more_mass
        return value, mass

    m = operator.index(c.nodes)
    value, mass = total(*c.points(m))
    yield m, value, mass
    while m < MAX_NODES:
        m *= 2
        zeta, w = c.points(m)
        new, new_mass = total(zeta[1::2], w[1::2])
        value, mass = 0.5 * value + new, 0.5 * mass + new_mass
        yield m, value, mass


# ---------------------------------------------------------------------------
# simplex rules (ordered-coordinates simplex, s-coordinate output)


def gauss_legendre_01(q: int):
    """Gauss-Legendre nodes and weights on [0, 1], for an order ``q`` from 1
    to ``MAX_ORDER`` (:class:`InvalidInput` otherwise): each rule is built
    once, read-only, and kept for the process."""
    q = as_integer(q, "Gauss-Legendre order")
    if not 1 <= q <= MAX_ORDER:
        raise InvalidInput(f"Gauss-Legendre order must be from 1 to {MAX_ORDER}, got {q}")
    return _gauss_legendre_01(q)


@lru_cache(maxsize=None)
def _gauss_legendre_01(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for part in rule:
        part.setflags(write=False)
    return rule


def iter_simplex_rule(n: int, q: int):
    """Yield (S, w) chunks of the Duffy-mapped Gauss-Legendre rule on the simplex.

    S has shape (p, n+1) holding the barycentric coordinates s_0..s_n
    (nonnegative, summing to 1); w are the corresponding weights for the
    measure ds_1...ds_n, which integrate to 1/n! over the whole simplex.
    Points run in C order over the q^n axis nodes (axis 0 slowest), and a
    chunk holds the next at most ``SIMPLEX_BLOCK`` (2^14) of them.

    A chunk is cut from whole rows of the trailing ``k`` axes (q^k <= 4096
    points each) under a short run of leading-axis prefixes.  The factors
    t_j = u_1 ... u_j, the weight product and the Jacobian prod_j u_j^(n-1-j)
    are products of per-axis 1-D factors, broadcast along the trailing axes
    and multiplied left to right: only the prefixes are decoded, not the
    points.
    """
    if n == 0:
        yield np.ones((1, 1)), np.ones(1)
        return
    x, w1 = gauss_legendre_01(q)
    total, chunk = q**n, SIMPLEX_BLOCK
    k = 1
    while k < n and q ** (k + 1) <= 4096:
        k += 1
    lead, row = n - k, q**k
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        first, stop = lo // row, -(-hi // row)
        prefix = np.unravel_index(np.arange(first, stop), (q,) * lead) if lead else ()
        bcast = (stop - first,) + (1,) * k

        def axis(nodes, j):  # axis j's 1-D factor, broadcast against the block
            if j < lead:
                return nodes[prefix[j]].reshape(bcast)
            return nodes.reshape((1,) * (j - lead + 1) + (q,) + (1,) * (n - 1 - j))

        ts, t, wt, jac = [], 1.0, 1.0, 1.0
        for j in range(n):
            t = t * axis(x, j)
            wt = wt * axis(w1, j)
            ts.append(t)
        for j in range(n - 1):  # jacobian of the cube-to-simplex map
            jac = jac * axis(x ** (n - 1 - j), j)
        s = np.empty((stop - first,) + (q,) * k + (n + 1,))
        s[..., 0] = 1.0 - ts[0]
        for j in range(1, n):
            s[..., j] = ts[j - 1] - ts[j]
        s[..., n] = ts[n - 1]
        cut = slice(lo - first * row, hi - first * row)
        yield s.reshape(-1, n + 1)[cut], (wt * jac).reshape(-1)[cut]


def _order_schedule(n: int):
    """Per-axis orders of the simplex levels on the n-simplex: from 8, each
    ``q + q // 2`` of the last, capped by ``MAX_ORDER`` and by the order whose
    q^n points fit ``POINT_BUDGET``.  A single order (n >= 7) means no
    error estimate."""
    budget_q = max(3, int(POINT_BUDGET ** (1.0 / max(n, 1))))
    q = min(8, budget_q)
    schedule = [q]
    while True:
        nxt = min(q + q // 2, MAX_ORDER, budget_q)
        if nxt <= q:
            break
        schedule.append(nxt)
        q = nxt
    return schedule


def simplex_integrate(fn, n: int, *, stats: dict | None = None):
    """Integrate ``fn`` over the standard n-simplex, raising the rule's order
    by half per level.

    ``fn(S)`` maps a (p, n+1) block of barycentric points to p values (any
    trailing shape).  The per-axis Gauss-Legendre order starts at 8 and
    grows to ``q + q // 2`` per level up to ``MAX_ORDER`` (8, 12, 18, 27,
    40, 60, 90, 128), additionally capped so a level never exceeds
    ``POINT_BUDGET`` points (44 at n = 4), until two levels agree to 1e-10
    relative.  From n = 7 on the budget leaves a single order and so no
    error estimate: that raises before ``fn`` is called.
    """
    if n == 0:  # one point; a value that is not finite raises as a level would
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = np.asarray(fn(np.ones((1, 1))))[0]
        if not np.all(np.isfinite(value)):
            raise QuadratureNoConvergence("non-finite value at the one point of the 0-simplex")
        return value
    schedule = _order_schedule(n)
    if len(schedule) == 1:
        raise QuadratureNoConvergence(
            f"point budget {POINT_BUDGET} leaves the single order {schedule[0]} "
            f"on the {n}-simplex, so no error estimate"
        )
    q, value = _refine(((q, *_weighted_sum(fn, iter_simplex_rule(n, q)))
                        for q in schedule), 1e-10)
    if stats is not None:
        stats["simplex_order"] = q
    return value


def _gm_shell(n: int, k: int):
    """``(S, w)`` blocks of at most ``SIMPLEX_BLOCK`` of the points
    (2 beta + 1) / (2k + n + 1), beta in N^(n+1) with |beta| = k, each with
    weight 1.  beta is read off the n bar positions of a stars-and-bars word
    of length n + k."""
    bars = itertools.combinations(range(n + k), n)
    while block := list(itertools.islice(bars, SIMPLEX_BLOCK)):
        gaps = np.diff(np.array(block, dtype=float), axis=1, prepend=-1.0, append=n + k)
        yield (2.0 * gaps - 1.0) / (2 * k + n + 1), np.ones(len(block))


@lru_cache(maxsize=None)
def _gm_weights(n: int, s: int):
    """Weights of the shells k = 0..s in the Grundmann-Moller rule of degree
    2s+1 on the n-simplex: (-1)^(s-k) (2k+n+1)^(2s+1) / (4^s (s-k)! (s+k+n+1)!),
    each rounded once from its exact rational value."""
    return tuple((-1) ** (s - k) * (2 * k + n + 1) ** (2 * s + 1)
                 / (4**s * math.factorial(s - k) * math.factorial(s + k + n + 1))
                 for k in range(s + 1))


def _gm_levels(fn, n: int):
    """``(s, value, mass)`` of the Grundmann-Moller rules of degree 2s+1 on the
    n-simplex, s = 0..12, while a rule has at most ``POINT_BUDGET`` points.

    Rule s weighs the shells k = 0..s of :func:`_gm_shell`, and a shell's
    points do not depend on s, so each shell is evaluated once and its sum
    and mass sum serve every later rule: all of rules 0..s cost the
    C(n+s+1, s) points of rule s alone.
    """
    sums = []
    for s in range(13):
        if math.comb(n + s + 1, s) > POINT_BUDGET:
            return
        sums.append(_weighted_sum(fn, _gm_shell(n, s)))
        weights = _gm_weights(n, s)
        value = sum(w * part for w, (part, _) in zip(weights, sums))
        mass = sum(abs(w) * part_mass for w, (_, part_mass) in zip(weights, sums))
        yield s, value, mass


def grundmann_moller_integrate(fn, n: int):
    """Integrate ``fn`` over the standard n-simplex with Grundmann-Moller rules.

    ``fn(S)`` maps a (p, n+1) block of barycentric points to p values (any
    trailing shape).  The rules s = 2, 3, ..., 12 (Grundmann and Moller 1978,
    SIAM J. Numer. Anal. 15: degree 2s+1, C(n+s+1, s) points, all interior),
    up to ``POINT_BUDGET`` points, are compared by :func:`_refine` at 1e-13
    relative.  The weights alternate in sign, so the rules converge only for
    integrands smooth on a neighbourhood of the simplex, such as entire
    ones; for any other, :class:`QuadratureNoConvergence` is raised.
    """
    _, value = _refine(itertools.islice(_gm_levels(fn, n), 2, None), 1e-13)
    return value


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels

_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
GK_PANELS = 4096  # most equal panels a Gauss-Kronrod level halves to


def _gk_levels(fn, a: float, b: float):
    """``(panels, value, mass)`` of the 15-point Kronrod rule on 1, 2, 4, ...,
    ``GK_PANELS`` equal panels of [a, b], one ``fn`` call per panel."""
    panels = 1
    while panels <= GK_PANELS:
        half = 0.5 * (b - a) / panels
        mids = a + half * (2.0 * np.arange(panels) + 1.0)
        yield panels, *_weighted_sum(fn, ((mid + half * _XGK, half * _WGK) for mid in mids))
        panels *= 2


def adaptive_gauss_kronrod(fn, a: float, b: float, *, stats: dict | None = None):
    """The 15-point Kronrod rule on [a, b] under panel halving.

    ``fn(x)`` maps the 15 nodes of one panel to integrand values (any
    trailing shape).  Level k applies the rule on 2^k equal panels, up to
    ``GK_PANELS``, and :func:`_refine` returns the first level that agrees
    with the one before to 1e-12 relative.
    """
    panels, value = _refine(_gk_levels(fn, a, b), 1e-12)
    if stats is not None:
        stats["gk_panels"] = panels
    return value


def halfline_integrate(fn):
    """Integral of ``fn`` over [0, inf) via u = t / (1 - t) and Kronrod panels."""

    def g(t):
        t = np.asarray(t)
        u = t / (1.0 - t)
        vals = np.asarray(fn(u))
        scale = (1.0 - t) ** -2
        return vals * scale.reshape(scale.shape + (1,) * (vals.ndim - 1))

    return adaptive_gauss_kronrod(g, 0.0, 1.0)
