"""Named identity battery: every core identity checked against its oracle.

Each check returns a :class:`CheckResult` whose ``identity`` string names the
equality being verified; the CLI's ``verify-all`` subcommand runs the whole
battery and fails (exit 1) if any residual exceeds its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import divdiff
from .core import matrix_exp, opnorm, pair, rel_err
from .funcalc import (
    CommutingTuple,
    Contour,
    apply_via_eig,
    dd_apply,
    dd_tensor,
    funcalc_elementary,
    funcalc_n,
)
from .functions import (
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
from .rearrange import (
    family_from_exponents,
    kernel_F,
    kernel_G,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
)
from .tolerances import DEFAULTS, Tolerances

__all__ = ["CheckResult", "run_battery", "BATTERY"]


@dataclass
class CheckResult:
    identity: str
    residual: float
    tolerance: float
    passed: bool
    details: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _result(identity: str, residual: float, tolerance: float, details: str = "") -> CheckResult:
    return CheckResult(identity, float(residual), float(tolerance),
                       bool(residual <= tolerance), details)


def _disc_nodes(rng, count: int) -> np.ndarray:
    while True:
        pts = 0.8 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
        gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(count, 1)]
        if gaps.size == 0 or gaps.min() > 0.05:
            return pts


def check_dd_four_way(seed: int, tol: Tolerances) -> CheckResult:
    rng = np.random.default_rng(seed)
    fns = [exp_function(), power_function(5), resolvent_function(3.0)]
    worst = 0.0
    for f in fns:
        for n in (1, 2, 3):
            xs = _disc_nodes(rng, n + 1)
            values = [
                divdiff.dd_recursive(f, xs),
                divdiff.dd_explicit(f, xs),
                divdiff.dd_contour(f, xs),
                divdiff.dd_hermite(f, xs),
            ]
            scale = max(max(abs(v) for v in values), 1e-300)
            for i in range(4):
                for j in range(i + 1, 4):
                    worst = max(worst, abs(values[i] - values[j]) / scale)
    return _result("divided-difference-four-way-agreement", worst, tol.dd_four_way)


def check_dd_closed_forms(seed: int, tol: Tolerances) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (0, 1, 2, 3):
        xs = _disc_nodes(rng, n + 1) + 1.5  # shifted off zero for negative powers
        for N in range(-3, 9):
            closed = divdiff.dd_power(xs, N)
            via_recursion = divdiff.dd_recursive(power_function(N), xs)
            worst = max(worst, abs(closed - via_recursion) / max(abs(closed), 1.0))
    return _result("power-closed-form", worst, tol.dd_power_vs_recursive)


def check_combinatorics(seed: int, tol: Tolerances) -> CheckResult:
    bad = 0
    for n in (1, 2, 3, 4):
        for total in range(0, 7):
            for alpha in divdiff.compositions(total, n + 1):
                moment = divdiff.simplex_moment_s(alpha, exact=True)
                num = 1
                for part in alpha:
                    num *= math.factorial(part)
                bad += moment * math.factorial(sum(alpha) + n) != num
    for n in (1, 2, 3, 4):
        for btot in range(0, 5):
            for beta in divdiff.compositions(btot, n):
                for m in range(btot, 9):
                    for mode in ("<=", "="):
                        brute, closed = divdiff.multinomial_identity(beta, m, mode)
                        bad += brute != closed
    return _result("simplex-moment-and-multinomial-exactness", float(bad), 0.0)


def check_funcalc_oracle(seed: int, tol: Tolerances) -> CheckResult:
    worst = 0.0
    for k in range(8):
        d = 2 + k % 3
        a = gen_matrix("diagonalizable", d, seed + k)
        for f in (exp_function(), resolvent_function(3.0)):
            via_contour = funcalc_n(f, (a,))
            worst = max(worst, rel_err(via_contour, apply_via_eig(f, a)))
    return _result("calculus-eigendecomposition-oracle", worst, tol.funcalc_eig_oracle)


def check_homomorphism(seed: int, tol: Tolerances) -> CheckResult:
    worst = 0.0
    f = MultivariateFunction(lambda z1, z2: np.exp(z1) * z2, (None, None))
    g = MultivariateFunction(lambda z1, z2: z1 + 0.5 * z2, (None, None))
    fg = MultivariateFunction(lambda z1, z2: f(z1, z2) * g(z1, z2), (None, None))
    for k in range(3):
        pair_ = gen_matrix("commuting-pair", 2 + k, seed + k)
        tup = CommutingTuple(pair_)
        lhs = funcalc_n(fg, tup)
        rhs = funcalc_n(f, tup) @ funcalc_n(g, tup)
        worst = max(worst, rel_err(lhs, rhs))
    return _result("calculus-homomorphism", worst, tol.funcalc_homomorphism)


def check_tensor_rule(seed: int, tol: Tolerances) -> CheckResult:
    worst = 0.0
    for k in range(3):
        mats = gen_matrix("commuting-pair", 2 + k, seed + 7 * k)
        tup = CommutingTuple(mats)
        fs = [exp_function(), resolvent_function(3.0)]
        value = funcalc_elementary(fs, tup, check_tol=tol.tensor_rule)
        direct = apply_via_eig(fs[0], tup[0]) @ apply_via_eig(fs[1], tup[1])
        worst = max(worst, rel_err(value, direct))
    return _result("tensor-product-rule", worst, tol.tensor_rule)


def check_pair_consistency(seed: int, tol: Tolerances) -> CheckResult:
    worst = 0.0
    f = exp_function()
    for k in range(4):
        d = 2 + k % 2
        n = 1 + k % 2
        mats = [gen_matrix("random", d, seed + 13 * k + j) for j in range(n + 1)]
        bs = [gen_matrix("random", d, seed + 13 * k + 50 + j) for j in range(n)]
        direct = dd_apply(f, mats, bs)
        tensored = pair(dd_tensor(f, mats), bs)
        worst = max(worst, rel_err(direct, tensored))
    return _result("tensor-pairing-consistency", worst, tol.pair_consistency)


def check_newton(seed: int, tol: Tolerances) -> CheckResult:
    f = exp_function()
    worst = 0.0
    for k in range(4):
        d, n = 2 + k % 2, 1 + k % 3
        mats = [gen_matrix("random", d, seed + 29 * k + j) for j in range(n + 1)]
        report = newton_interpolate(f, mats)
        worst = max(worst, report.final_residual / max(opnorm(report.target), 1e-300))
    return _result("newton-interpolation", worst, tol.newton_residual)


def check_newton_recursion(seed: int, tol: Tolerances) -> CheckResult:
    f = exp_function()
    worst = 0.0
    for k in range(3):
        d, n = 2, 1 + k % 2
        mats = [gen_matrix("random", d, seed + 31 * k + j) for j in range(n + 2)]
        bs = [gen_matrix("random", d, seed + 31 * k + 60 + j) for j in range(n)]
        worst = max(worst, newton_recursion_check(f, mats, bs))
    return _result("newton-recursion", worst, tol.recursion_residual)


def check_ad_series(seed: int, tol: Tolerances) -> CheckResult:
    f = exp_function()
    worst = 0.0
    for k in range(2):
        d, n = 2, 1 + k
        a = 0.4 * gen_matrix("random", d, seed + k)
        bs = [0.4 * gen_matrix("random", d, seed + 90 + j) for j in range(n)]
        left = taylor_series_ad(f, a, bs, order_cap=40, side="left-f")
        right = taylor_series_ad(f, a, bs, order_cap=40, side="right-f")
        direct = dd_apply(f, [a] * (n + 1), bs)
        scale = max(opnorm(direct), 1e-300)
        worst = max(worst, opnorm(left - right) / scale, opnorm(left - direct) / scale)
    return _result("commutator-series-coherence", worst, tol.ad_series)


def check_taylor_decay(seed: int, tol: Tolerances) -> CheckResult:
    f = exp_function()
    a = gen_matrix("random", 3, seed)
    b = 0.1 * gen_matrix("random", 3, seed + 1)
    report = taylor_expand(f, a, b, N=8)
    c2b = report.meta["c2"] * opnorm(b)
    worst = 0.0
    rems = report.meta["explicit_remainder_norms"]
    floor = 1e-13 * max(opnorm(report.target), 1.0)
    for r0, r1 in zip(rems, rems[1:]):
        if r0 > floor and r1 > floor:
            worst = max(worst, (r1 / r0) / c2b)
    return _result("taylor-remainder-geometric-decay", worst, 1.0,
                   details=f"c2*|b| = {c2b:.3g}")


def check_dyson(seed: int, tol: Tolerances) -> CheckResult:
    # the simplex quadrature closes the identity on its own and reproduces
    # every block-exponential term of dyson_exp
    worst = 0.0
    for k in range(2):
        a = gen_matrix("random", 2, seed + k)
        b = 0.2 * gen_matrix("random", 2, seed + 40 + k)
        report = dyson_exp(a, b, N=3)
        terms, remainder = dyson_terms_simplex(a, b, N=3)
        scale = max(opnorm(report.target), 1e-300)
        defect = opnorm(matrix_exp(a) + sum(terms) + remainder - report.target)
        blocks = np.diff(report.partial_sums, axis=0)
        disagreement = max(opnorm(x - y) for x, y in zip(terms, blocks))
        worst = max(worst, defect / scale, disagreement / scale)
    return _result("dyson-finite-remainder-identity", worst, tol.dyson_identity)


def check_magnus(seed: int, tol: Tolerances) -> CheckResult:
    field = triangular_field()
    _, y = magnus_solve(field, 1.0, h=1.0 / 200, order=28)
    reference = rk_reference(field, 1.0)
    return _result("magnus-log-consistency", opnorm(y - reference), tol.magnus_vs_rk)


def check_rearrange(seed: int, tol: Tolerances) -> CheckResult:
    fs = family_from_exponents([1, 1])
    a = gen_matrix("hermitian", 2, seed)
    A = matrix_exp(a)
    b = gen_matrix("random", 2, seed + 5)
    lhs = rearrange_lhs(fs, A, [b])
    rf = rearrange_rhs_F(fs, A, [b])
    rg = rearrange_rhs_G(fs, A, [b])
    scale = max(opnorm(lhs), 1e-300)
    worst = max(opnorm(lhs - rf), opnorm(lhs - rg), opnorm(rf - rg)) / scale
    return _result("rearrangement-three-way", worst, tol.rearrange_three_way)


def check_kernel_scaling(seed: int, tol: Tolerances) -> CheckResult:
    rng = np.random.default_rng(seed)
    fs = family_from_exponents([1, 1])
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.5, 2.0, 2)
        th = rng.uniform(-0.3, 0.3, 2)
        s = r * np.exp(1j * th)
        F = kernel_F(fs, s)
        G = kernel_G(fs, [s[1] / s[0]])
        worst = max(worst, abs(F - G / s[0]) / max(abs(F), 1e-300))
        c = rng.uniform(0.5, 2.0)
        worst = max(worst, abs(kernel_F(fs, c * s) - F / c) / max(abs(F), 1e-300))
    return _result("kernel-scaling-identity", worst, tol.kernel_scaling)


def check_contour_refinement(seed: int, tol: Tolerances) -> CheckResult:
    rng = np.random.default_rng(seed)
    f = exp_function()
    xs = _disc_nodes(rng, 3)
    exact = divdiff.dd_explicit(f, xs)
    center, radius = divdiff.circle_around(xs)
    violations = 0
    prev_err = None
    for m in (16, 32, 64, 128, 256):
        approx = divdiff.dd_contour(f, xs, Contour(center, radius, m), refine=False)
        err = abs(approx - exact)
        if prev_err is not None and err > prev_err and err > 1e-13 * max(abs(exact), 1.0):
            violations += 1
        prev_err = err
    return _result("contour-refinement-monotone", float(violations), 0.0)


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


def run_battery(seed: int = 42, tol: Tolerances = DEFAULTS) -> list[CheckResult]:
    return [check(seed, tol) for check in BATTERY]
