"""Identity registry: every residual opcalc reports is defined here, once.

Each registry function turns concrete inputs -- the values independent routes
produced for one identity, or the arguments of a scalar identity -- into
:class:`Residual` records.  A record holds the identity name, the residual
value, the tolerance it is held to, and the pass flag.  ``IDENTITIES`` maps
every name to its default tolerance, and :func:`tolerances` applies
``--tol-scale`` to that one table; each function takes the resulting
name-to-tolerance dict as ``tol``.

Three readers call the same functions: the ``check_*`` battery below on its
seeded inputs (``verify-all`` runs ``BATTERY`` and exits 1 if a record
fails), the CLI subcommands on the inputs they parsed, and the acceptance
criteria in ``tests/test_acceptance.py`` on their own seeded inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import divdiff
from .core import matrix_exp, opnorm, pair, rel_err
from .errors import InvalidInput, OpcalcError
from .funcalc import (
    CommutingTuple,
    apply_function,
    apply_via_eig,
    dd_apply,
    dd_tensor,
    funcalc_elementary,
    funcalc_n,
)
from .functions import (
    ENTIRE,
    MultivariateFunction,
    exp_function,
    power_function,
    resolvent_function,
)
from .generate import gen_matrix
from .magnus import magnus_solve, rk_reference, triangular_field
from .ncseries import (
    dyson_exp,
    dyson_terms_simplex,
    newton_interpolate,
    newton_recursion_check,
    taylor_expand,
    taylor_series_ad,
)
from .quadrature import circle_points, contour_around
from .rearrange import (
    eigenbasis,
    kernel_F,
    kernel_G,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
)

__all__ = [
    "IDENTITIES", "tolerances", "Residual", "dd_agreement", "power_closed_form",
    "combinatorics_exactness", "eig_oracle", "homomorphism", "tensor_rule",
    "pairing_consistency", "newton_residual",
    "newton_recursion", "commutator_series", "taylor_decay_bound", "taylor_decay",
    "taylor_remainder", "dyson_defect", "dyson_simplex", "magnus_discrepancy",
    "rearrangement", "kernel_scaling", "contour_refinement", "run_battery", "BATTERY",
]

# The four routes of a divided difference that `dd --method all` runs, in order.
DD_ROUTES = ("recursive", "explicit", "contour", "hermite")

# Every identity name a record can carry, and its default tolerance (relative
# unless noted).  --tol-scale multiplies each through :func:`tolerances`, except
# the Taylor decay ratio; the exact failure counts are held to 0.
IDENTITIES = {
    **{f"divided-difference-agreement:{a}={b}": 1e-8
       for a, b in itertools.combinations(sorted(DD_ROUTES), 2)},
    "divided-difference-four-way-agreement": 1e-8,
    "power-closed-form": 1e-10,
    "simplex-moment-and-multinomial-exactness": 0.0,
    "calculus-eigendecomposition-oracle": 1e-9,
    "calculus-homomorphism": 1e-8,
    "tensor-product-rule": 1e-8,
    "tensor-pairing-consistency": 1e-8,
    "newton-interpolation": 1e-8,
    "newton-recursion": 1e-8,  # absolute
    "commutator-series-coherence": 1e-6,
    "taylor-remainder-geometric-decay": 1.0,
    "taylor-finite-remainder-identity": 1e-7,
    "dyson-finite-remainder-identity": 1e-7,
    "magnus-log-consistency": 1e-6,  # absolute, desk-scale fields
    "rearrangement:lhs=rhs-F": 1e-6,
    "rearrangement:lhs=rhs-G": 1e-6,
    "rearrangement:rhs-F=rhs-G": 1e-6,
    "rearrangement-three-way": 1e-6,
    "kernel-scaling-identity": 1e-9,
    "contour-refinement-monotone": 0.0,
    "contour-refinement-floor": 0.0,
}


def tolerances(scale: float) -> dict:
    """Every tolerance of ``IDENTITIES`` multiplied by ``scale``, the decay
    ratio excepted.  ``scale`` must be finite and positive: zero, a negative,
    infinite or NaN scale would fail or pass every check whatever its residual
    (:class:`InvalidInput`)."""
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidInput(f"tolerance scale must be finite and positive, got {scale!r}")
    return {name: tol if name == "taylor-remainder-geometric-decay" else tol * scale
            for name, tol in IDENTITIES.items()}


@dataclass(frozen=True)
class Residual:
    """One checked identity: residual value, the tolerance it is held to, verdict."""

    identity: str
    value: float
    tolerance: float
    passed: bool


def _record(identity: str, value: float, tol: dict) -> Residual:
    tolerance = tol[identity]
    return Residual(identity, float(value), float(tolerance), bool(value <= tolerance))


def _worst(identity: str, records: list[Residual], tol: dict) -> Residual:
    """The largest value of ``records`` under another name; a NaN wins."""
    return _record(identity, np.max([r.value for r in records], initial=0.0), tol)


# ---------------------------------------------------------------------------
# registry


def dd_agreement(values: dict, tol: dict) -> list[Residual]:
    """Divided differences by named routes, pairwise, relative to the largest.

    A route that refused maps to its :class:`OpcalcError` and is left out; if
    every route refused, an :class:`OpcalcError` names each route's reason.
    """
    refused = {k: v for k, v in values.items() if isinstance(v, OpcalcError)}
    values = {k: v for k, v in values.items() if k not in refused}
    if not values:
        raise OpcalcError("every route refused: " + "; ".join(
            f"{k}: {v}" for k, v in refused.items()))
    scale = max(max(abs(v) for v in values.values()), 1e-300)
    return [
        _record(f"divided-difference-agreement:{a}={b}",
                abs(values[a] - values[b]) / scale, tol)
        for a, b in itertools.combinations(sorted(values), 2)
    ]


def power_closed_form(closed, recursive, tol: dict) -> Residual:
    """Closed form of [x_0..x_n] z^N against the recursion (relative, floor 1)."""
    return _record("power-closed-form", abs(closed - recursive) / max(abs(closed), 1.0), tol)


def _moment_factor(e: int, a: int) -> tuple[int, int]:
    """int_0^1 u^e (1 - u)^a du, exactly, as (numerator, denominator).

    Expanding (1 - u)^a binomially makes it sum_i C(a, i) (-1)^i / (e + i + 1),
    summed in integers over the common denominator lcm(e + 1, ..., e + a + 1).
    """
    lcm = math.lcm(*range(e + 1, e + a + 2))
    return sum((-1) ** i * math.comb(a, i) * (lcm // (e + i + 1)) for i in range(a + 1)), lcm


def _simplex_moment_integral(alpha, factor) -> Fraction:
    """The integral of s^alpha over the n-simplex, exactly, without its closed form.

    The map t_k = u_1 ... u_k of :func:`opcalc.quadrature.iter_simplex_rule`
    turns it into the product over k = 1..n of int_0^1 u^e (1 - u)^a du with
    e = alpha_k + ... + alpha_n + n - k and a = alpha_{k-1}, each given by
    ``factor(e, a)`` as :func:`_moment_factor` gives it (or by a table of its
    values); the product is reduced once at the end.
    """
    n = len(alpha) - 1
    num = den = 1
    for k in range(1, n + 1):
        top, bottom = factor(sum(alpha[k:]) + n - k, alpha[k - 1])
        num *= top
        den *= bottom
    return Fraction(num, den)


def combinatorics_exactness(alphas, multinomials, tol: dict) -> Residual:
    """Count of exact identities that fail.

    ``alphas`` are compositions whose closed-form simplex moment
    :func:`divdiff.simplex_moment_s` must equal the exact iterated integral
    :func:`_simplex_moment_integral`; each of its one-dimensional factors is
    summed once per call, in a table local to the call.  ``multinomials`` are
    ``(beta, m_max)`` pairs: each is one call of
    :func:`divdiff.multinomial_identity`, one convolution, and every "=" and
    "<=" value of its rows m = |beta|..m_max that differs from its closed form
    counts once.  Nothing is kept across calls, so every call does the same
    work.
    """
    factor = functools.cache(_moment_factor)
    bad = sum(divdiff.simplex_moment_s(alpha) != _simplex_moment_integral(alpha, factor)
              for alpha in alphas)
    bad += sum(summed != closed for beta, m_max in multinomials
               for row in divdiff.multinomial_identity(beta, m_max).values()
               for summed, closed in row)
    return _record("simplex-moment-and-multinomial-exactness", float(bad), tol)


def eig_oracle(value, oracle, tol: dict) -> Residual:
    """Contour calculus against the eigendecomposition oracle."""
    return _record("calculus-eigendecomposition-oracle", rel_err(value, oracle), tol)


def homomorphism(of_product, product_of_values, tol: dict) -> Residual:
    """(fg)(a) against f(a) g(a)."""
    return _record("calculus-homomorphism", rel_err(of_product, product_of_values), tol)


def tensor_rule(joint, value, tol: dict) -> Residual:
    """The joint tensor-grid integral of f_1 x ... x f_n at a commuting tuple
    against the product f_1(a_1)...f_n(a_n) of single-variable values: the
    ``(value, joint)`` pair of :func:`funcalc_elementary`."""
    return _record("tensor-product-rule", rel_err(joint, value), tol)


def pairing_consistency(direct, tensored, tol: dict) -> Residual:
    """``dd_apply`` against the pairing of the Kronecker ``dd_tensor``."""
    return _record("tensor-pairing-consistency", rel_err(direct, tensored), tol)


def newton_residual(report, tol: dict) -> Residual:
    """Last interpolation remainder relative to the target."""
    return _record("newton-interpolation",
                   report.final_residual / max(opnorm(report.target), 1e-300), tol)


def newton_recursion(f, mats, bs, tol: dict) -> Residual:
    """Divided-difference recursion under node exchange (absolute)."""
    return _record("newton-recursion", newton_recursion_check(f, mats, bs), tol)


def commutator_series(left, right, direct, tol: dict) -> Residual:
    """Left commutator series against the right one and the direct pairing."""
    scale = max(opnorm(direct), 1e-300)
    return _record("commutator-series-coherence",
                   max(opnorm(left - right) / scale, opnorm(left - direct) / scale), tol)


def taylor_decay_bound(report, b) -> float:
    """c2 |b|: the geometric rate the Taylor remainders must beat."""
    return report.meta["c2"] * opnorm(b)


def taylor_decay(report, b, tol: dict) -> Residual:
    """Largest ratio of successive remainders over c2 |b|, above round-off."""
    c2b = taylor_decay_bound(report, b)
    rems = report.meta["explicit_remainder_norms"]
    floor = 1e-13 * max(opnorm(report.target), 1.0)
    ratio = max(((r1 / r0) / c2b
                 for r0, r1 in zip(rems, rems[1:]) if r0 > floor and r1 > floor),
                default=0.0)
    return _record("taylor-remainder-geometric-decay", ratio, tol)


def taylor_remainder(report, tol: dict) -> Residual:
    """Partial sum plus explicit remainder against f(a + b), worst order."""
    return _record("taylor-finite-remainder-identity",
                   max(report.meta["identity_defects"]) / max(opnorm(report.target), 1e-300),
                   tol)


def dyson_defect(report, tol: dict) -> Residual:
    """Block-exponential terms plus closing remainder against exp(a + b)."""
    return _record("dyson-finite-remainder-identity",
                   report.meta["identity_defect"] / max(opnorm(report.target), 1e-300), tol)


def dyson_simplex(a, report, terms, remainder, tol: dict) -> Residual:
    """Simplex-quadrature terms: their own closure and their distance to ``report``'s."""
    scale = max(opnorm(report.target), 1e-300)
    defect = opnorm(matrix_exp(a) + sum(terms) + remainder - report.target)
    blocks = np.diff(report.partial_sums, axis=0)
    disagreement = max(opnorm(x - y) for x, y in zip(terms, blocks))
    return _record("dyson-finite-remainder-identity",
                   max(defect / scale, disagreement / scale), tol)


def magnus_discrepancy(y, reference, tol: dict) -> Residual:
    """exp(Omega) against the Runge-Kutta reference propagator (absolute)."""
    return _record("magnus-log-consistency", opnorm(y - reference), tol)


def rearrangement(lhs, rhs_F, rhs_G, tol: dict) -> list[Residual]:
    """The three pairwise distances of the half-line rearrangement routes.

    The four operator norms come from one stacked SVD, each bit for bit
    :func:`opnorm` of its matrix."""
    norms = np.linalg.svd(np.stack([lhs, lhs - rhs_F, lhs - rhs_G, rhs_F - rhs_G]),
                          compute_uv=False)[:, 0]
    scale = max(float(norms[0]), 1e-300)
    return [_record(f"rearrangement:{name}", float(norm) / scale, tol) for name, norm in
            zip(("lhs=rhs-F", "lhs=rhs-G", "rhs-F=rhs-G"), norms[1:])]


def kernel_scaling(qs, s, c, tol: dict) -> Residual:
    """F(s) = G(s_1/s_0)/s_0 and F(c s) = F(s)/c for a two-slot family."""
    F = kernel_F(qs, s)
    G = kernel_G(qs, [s[1] / s[0]])
    scale = max(abs(F), 1e-300)
    return _record("kernel-scaling-identity",
                   max(abs(F - G / s[0]) / scale, abs(kernel_F(qs, c * s) - F / c) / scale),
                   tol)


def contour_refinement(approximations, exact, tol: dict) -> tuple[Residual, Residual]:
    """Trapezoid values at doubling node counts against the exact value.

    Returns the number of doublings whose error grows while above the
    round-off floor ``1e-13 max(|exact|, 1)``, and 1 if the last error is
    still above that floor (0 otherwise).
    """
    floor = 1e-13 * max(abs(exact), 1.0)
    errs = [abs(v - exact) for v in approximations]
    growth = sum(not (e1 <= e0 or e1 <= floor) for e0, e1 in zip(errs, errs[1:]))
    return (_record("contour-refinement-monotone", float(growth), tol),
            _record("contour-refinement-floor", float(not errs[-1] <= floor), tol))


# ---------------------------------------------------------------------------
# battery: seeded inputs for every identity


def _disc_nodes(rng, count: int) -> np.ndarray:
    while True:
        pts = 0.8 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
        gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(count, 1)]
        if gaps.size == 0 or gaps.min() > 0.05:
            return pts


def check_dd_four_way(seed: int, tol: dict) -> Residual:
    rng = np.random.default_rng(seed)
    records = []
    for f in (exp_function(), power_function(5), resolvent_function(3.0)):
        for n in (1, 2, 3):
            xs = _disc_nodes(rng, n + 1)
            records += dd_agreement({
                "recursive": divdiff.dd_recursive(f, xs),
                "explicit": divdiff.dd_explicit(f, xs),
                "contour": divdiff.dd_contour(f, xs),
                "hermite": divdiff.dd_hermite(f, xs),
            }, tol)
    return _worst("divided-difference-four-way-agreement", records, tol)


def check_dd_closed_forms(seed: int, tol: dict) -> Residual:
    rng = np.random.default_rng(seed)
    records = []
    for n in (0, 1, 2, 3):
        xs = _disc_nodes(rng, n + 1) + 1.5  # shifted off zero for negative powers
        for N in range(-3, 9):
            records.append(power_closed_form(
                divdiff.dd_power(xs, N), divdiff.dd_recursive(power_function(N), xs), tol))
    return _worst("power-closed-form", records, tol)


def check_combinatorics(seed: int, tol: dict) -> Residual:
    """The 784 simplex moments with n <= 4 and |alpha| <= 6, and the 1492
    binomial-sum cases (beta, m, mode) with n <= 4, |beta| <= 4 and m <= 8,
    read by 125 calls ``multinomial_identity(beta, 8)``; the seed is unused."""
    alphas = [alpha for n in (1, 2, 3, 4) for total in range(0, 7)
              for alpha in divdiff.compositions(total, n + 1)]
    multinomials = [(beta, 8) for n in (1, 2, 3, 4) for btot in range(0, 5)
                    for beta in divdiff.compositions(btot, n)]
    return combinatorics_exactness(alphas, multinomials, tol)


def check_funcalc_oracle(seed: int, tol: dict) -> Residual:
    records = []
    for k in range(8):
        a = gen_matrix("diagonalizable", 2 + k % 3, seed + k)
        for f in (exp_function(), resolvent_function(3.0)):
            records.append(eig_oracle(apply_function(f, a), apply_via_eig(f, a), tol))
    return _worst("calculus-eigendecomposition-oracle", records, tol)


def check_homomorphism(seed: int, tol: dict) -> Residual:
    # entire, as declared, so funcalc_n widens every circle of the torus
    f = MultivariateFunction(lambda z1, z2: np.exp(z1) * z2, (ENTIRE, ENTIRE))
    g = MultivariateFunction(lambda z1, z2: z1 + 0.5 * z2, (ENTIRE, ENTIRE))
    fg = MultivariateFunction(lambda z1, z2: f(z1, z2) * g(z1, z2), (ENTIRE, ENTIRE))
    records = []
    for k in range(3):
        tup = CommutingTuple(gen_matrix("commuting-pair", 2 + k, seed + k))
        lhs = funcalc_n(fg, tup)
        records.append(homomorphism(lhs, funcalc_n(f, tup) @ funcalc_n(g, tup), tol))
    return _worst("calculus-homomorphism", records, tol)


def check_tensor_rule(seed: int, tol: dict) -> Residual:
    records = []
    for k in range(3):
        tup = CommutingTuple(gen_matrix("commuting-pair", 2 + k, seed + 7 * k))
        fs = [exp_function(), resolvent_function(3.0)]
        value, joint = funcalc_elementary(fs, tup, check_tol=tol["tensor-product-rule"])
        records.append(tensor_rule(joint, value, tol))
    return _worst("tensor-product-rule", records, tol)


def check_pair_consistency(seed: int, tol: dict) -> Residual:
    f = exp_function()
    records = []
    for k in range(4):
        d, n = 2 + k % 2, 1 + k % 2
        mats = [gen_matrix("random", d, seed + 13 * k + j) for j in range(n + 1)]
        bs = [gen_matrix("random", d, seed + 13 * k + 50 + j) for j in range(n)]
        direct = dd_apply(f, mats, bs)
        records.append(pairing_consistency(direct, pair(dd_tensor(f, mats), bs), tol))
    return _worst("tensor-pairing-consistency", records, tol)


def check_newton(seed: int, tol: dict) -> Residual:
    f = exp_function()
    records = []
    for k in range(4):
        d, n = 2 + k % 2, 1 + k % 3
        mats = [gen_matrix("random", d, seed + 29 * k + j) for j in range(n + 1)]
        records.append(newton_residual(newton_interpolate(f, mats), tol))
    return _worst("newton-interpolation", records, tol)


def check_newton_recursion(seed: int, tol: dict) -> Residual:
    f = exp_function()
    records = []
    for k in range(3):
        d, n = 2, 1 + k % 2
        mats = [gen_matrix("random", d, seed + 31 * k + j) for j in range(n + 2)]
        bs = [gen_matrix("random", d, seed + 31 * k + 60 + j) for j in range(n)]
        records.append(newton_recursion(f, mats, bs, tol))
    return _worst("newton-recursion", records, tol)


def check_ad_series(seed: int, tol: dict) -> Residual:
    f = exp_function()
    records = []
    for k in range(2):
        d, n = 2, 1 + k
        a = 0.4 * gen_matrix("random", d, seed + k)
        bs = [0.4 * gen_matrix("random", d, seed + 90 + j) for j in range(n)]
        left, right = taylor_series_ad(f, a, bs)
        records.append(commutator_series(left, right, dd_apply(f, [a] * (n + 1), bs), tol))
    return _worst("commutator-series-coherence", records, tol)


def check_taylor_decay(seed: int, tol: dict) -> Residual:
    a = gen_matrix("random", 3, seed)
    b = 0.1 * gen_matrix("random", 3, seed + 1)
    return taylor_decay(taylor_expand(exp_function(), a, b, N=8), b, tol)


def check_dyson(seed: int, tol: dict) -> Residual:
    # the simplex quadrature closes the identity on its own and reproduces
    # every block-exponential term of dyson_exp
    records = []
    for k in range(2):
        a = gen_matrix("random", 2, seed + k)
        b = 0.2 * gen_matrix("random", 2, seed + 40 + k)
        report = dyson_exp(a, b, N=3)
        terms, remainder = dyson_terms_simplex(a, b, N=3)
        records.append(dyson_simplex(a, report, terms, remainder, tol))
    return _worst("dyson-finite-remainder-identity", records, tol)


def check_magnus(seed: int, tol: dict) -> Residual:
    field = triangular_field()
    _, y = magnus_solve(field, 1.0, h=1.0 / 200, order=28)
    return magnus_discrepancy(y, rk_reference(field, 1.0), tol)


def check_rearrange(seed: int, tol: dict) -> Residual:
    qs = [1, 1]
    A = matrix_exp(gen_matrix("hermitian", 2, seed))
    b = gen_matrix("random", 2, seed + 5)
    basis = eigenbasis(qs, A, [b])
    records = rearrangement(rearrange_lhs(basis), rearrange_rhs_F(basis),
                            rearrange_rhs_G(basis), tol)
    return _worst("rearrangement-three-way", records, tol)


def check_kernel_scaling(seed: int, tol: dict) -> Residual:
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(10):
        r = rng.uniform(0.5, 2.0, 2)
        th = rng.uniform(-0.3, 0.3, 2)
        records.append(kernel_scaling([1, 1], r * np.exp(1j * th), rng.uniform(0.5, 2.0), tol))
    return _worst("kernel-scaling-identity", records, tol)


def check_contour_refinement(seed: int, tol: dict) -> Residual:
    rng = np.random.default_rng(seed)
    f = exp_function()
    xs = _disc_nodes(rng, 3)
    exact = divdiff.dd_explicit(f, xs)
    c = contour_around(xs, f, contour_around(xs))  # the tight circle, checked for f
    passes = [circle_points(c.center, c.radius, m) for m in (16, 32, 64, 128, 256)]
    approximations = [complex(np.sum(w * functools.reduce(np.divide, zeta - xs[:, None], f(zeta))))
                      for zeta, w in passes]
    monotone, _ = contour_refinement(approximations, exact, tol)
    return monotone


BATTERY = [
    check_dd_four_way,
    check_dd_closed_forms,
    check_combinatorics,
    check_funcalc_oracle,
    check_homomorphism,
    check_tensor_rule,
    check_pair_consistency,
    check_newton,
    check_newton_recursion,
    check_ad_series,
    check_taylor_decay,
    check_dyson,
    check_magnus,
    check_rearrange,
    check_kernel_scaling,
    check_contour_refinement,
]


def run_battery(seed: int, tol: dict) -> list[Residual]:
    return [check(seed, tol) for check in BATTERY]
