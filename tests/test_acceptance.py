"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the worst observed residual,
its tolerance, and the runtime against the budget.  Run with ``-s`` to see
the lines as they appear (pytest captures them otherwise).  Residuals come
from the identity registry in ``opcalc.verify``; each criterion supplies its
own seeded inputs and holds the values to its own tolerances.
"""

import time

import numpy as np

from opcalc import (
    CommutingTuple,
    Entire,
    MultivariateFunction,
    apply_function,
    apply_via_eig,
    compositions,
    dd_apply,
    dd_contour,
    dd_explicit,
    dd_hermite,
    dd_power,
    dd_recursive,
    dd_tensor,
    dyson_exp,
    exp_function,
    funcalc_elementary,
    funcalc_n,
    gen_matrix,
    magnus_solve,
    matrix_exp,
    newton_interpolate,
    pair,
    power_function,
    resolvent_function,
    rk_reference,
    taylor_expand,
    taylor_series_ad,
)
from opcalc.quadrature import circle_points, contour_around
from opcalc.magnus import perturbed_triangular_field, triangular_field
from opcalc.rearrange import eigenbasis, rearrange_lhs, rearrange_rhs_F, rearrange_rhs_G
from opcalc.verify import IDENTITIES as TOL
from opcalc.verify import (
    combinatorics_exactness,
    commutator_series,
    contour_refinement,
    dd_agreement,
    dyson_defect,
    eig_oracle,
    homomorphism,
    kernel_scaling,
    magnus_discrepancy,
    newton_recursion,
    newton_residual,
    pairing_consistency,
    power_closed_form,
    rearrangement,
    taylor_decay,
    taylor_decay_bound,
    tensor_rule,
)

EXP = exp_function()


def finish(num: int, name: str, worst: float, tol: float, t0: float, budget: float,
           extra: str = "") -> None:
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): "
        f"worst {worst:.3e} vs tol {tol:.0e}"
        f"{'; ' + extra if extra else ''} [{elapsed:.2f}s / {budget:.0f}s]"
    )
    print(line)
    assert worst <= tol, line
    assert elapsed < budget, line


def seeded_disc_nodes(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        pts = 0.85 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))
        gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(count, 1)]
        if gaps.size == 0 or gaps.min() > 0.05:
            return pts


def test_criterion_1_four_way_divided_differences():
    t0 = time.perf_counter()
    fns = [EXP, power_function(5), resolvent_function(3.0)]
    worst = 0.0
    for seed in range(50):
        n = 1 + seed % 4
        xs = seeded_disc_nodes(seed, n + 1)
        for f in fns:
            values = {
                "recursive": dd_recursive(f, xs),
                "explicit": dd_explicit(f, xs),
                "contour": dd_contour(f, xs),
                "hermite": dd_hermite(f, xs),
            }
            worst = max(worst, *(r.value for r in dd_agreement(values, TOL)))
    finish(1, "four-way divided differences", worst, 1e-8, t0, 5.0)


def test_criterion_2_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(0, 4):
        xs = seeded_disc_nodes(100 + n, n + 1) + 1.5
        for N in range(-3, 9):
            closed = dd_power(xs, N)
            via = dd_recursive(power_function(N), xs)
            worst = max(worst, power_closed_form(closed, via, TOL).value)
    alphas = [alpha for n in range(1, 5) for total in range(0, 7)
              for alpha in compositions(total, n + 1)]
    # every m and both modes of a beta, up to m = 8, from one call
    multinomials = [(beta, 8) for n in range(1, 5) for btot in range(0, 5)
                    for beta in compositions(btot, n)]
    exact_failures = int(combinatorics_exactness(alphas, multinomials, TOL).value)
    worst = max(worst, float(exact_failures))
    finish(2, "closed forms and combinatorics", worst, 1e-10, t0, 2.0,
           extra=f"{exact_failures} exact failures")


def test_criterion_3_functional_calculus_oracle():
    t0 = time.perf_counter()
    worst_eig = 0.0
    for k in range(100):
        d = 2 + k % 3
        a = gen_matrix("diagonalizable", d, 1000 + k)
        for f in (EXP, resolvent_function(3.0)):
            worst_eig = max(worst_eig,
                            eig_oracle(apply_function(f, a), apply_via_eig(f, a), TOL).value)
    assert worst_eig <= 1e-9

    worst_alg = 0.0
    f2 = MultivariateFunction(lambda z1, z2: np.exp(z1) * z2, (Entire(), Entire()))
    g2 = MultivariateFunction(lambda z1, z2: z1 + 0.5 * z2, (Entire(), Entire()))
    fg = MultivariateFunction(lambda z1, z2: f2(z1, z2) * g2(z1, z2), (Entire(), Entire()))
    for k in range(5):
        tup = CommutingTuple(gen_matrix("commuting-pair", 2 + k % 3, 2000 + k))
        lhs = funcalc_n(fg, tup)
        rhs = funcalc_n(f2, tup) @ funcalc_n(g2, tup)
        worst_alg = max(worst_alg, homomorphism(lhs, rhs, TOL).value)
        value, joint = funcalc_elementary([EXP, resolvent_function(3.0)], tup,
                                          check_tol=TOL["tensor-product-rule"])
        want = apply_via_eig(EXP, tup[0]) @ apply_via_eig(resolvent_function(3.0), tup[1])
        worst_alg = max(worst_alg, tensor_rule(joint, value, TOL).value,
                        eig_oracle(value, want, TOL).value)
    finish(3, "functional-calculus oracle", max(worst_eig, worst_alg * 0.1), 1e-9,
           t0, 10.0, extra=f"homomorphism/product-rule worst {worst_alg:.2e} vs 1e-8")


def test_criterion_4_tensor_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        d = 2 + k % 2
        n = 1 + k % 2
        mats = [gen_matrix("random", d, 3000 + 17 * k + j) for j in range(n + 1)]
        bs = [gen_matrix("random", d, 3500 + 17 * k + j) for j in range(n)]
        direct = dd_apply(EXP, mats, bs)
        tensored = pair(dd_tensor(EXP, mats), bs)
        worst = max(worst, pairing_consistency(direct, tensored, TOL).value)
    finish(4, "pairing of tensor divided differences", worst, 1e-8, t0, 10.0)


def test_criterion_5_newton():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        d = 2 + k % 3
        n = 1 + k % 4
        mats = [gen_matrix("random", d, 4000 + 31 * k + j) for j in range(n + 1)]
        worst = max(worst, newton_residual(newton_interpolate(EXP, mats), TOL).value)
    worst_rec = 0.0
    for k in range(6):
        d = 2 + k % 2
        n = 1 + k % 3
        mats = [gen_matrix("random", d, 5000 + 37 * k + j) for j in range(n + 2)]
        bs = [gen_matrix("random", d, 5500 + 37 * k + j) for j in range(n)]
        worst_rec = max(worst_rec, newton_recursion(EXP, mats, bs, TOL).value)
    finish(5, "interpolation through matrix nodes", max(worst, worst_rec), 1e-8,
           t0, 30.0)


def test_criterion_6_taylor_and_commutator_series():
    t0 = time.perf_counter()
    worst = 0.0
    for f in (EXP, power_function(5)):
        for n in (1, 2, 3):
            a = 0.4 * gen_matrix("random", 2, 6000 + n)
            bs = [0.4 * gen_matrix("random", 2, 6100 + n + j) for j in range(n)]
            left, right = taylor_series_ad(f, a, bs)
            direct = dd_apply(f, [a] * (n + 1), bs)
            # each orientation against the other and the direct pairing
            worst = max(worst, commutator_series(left, right, direct, TOL).value,
                        commutator_series(right, left, direct, TOL).value)
    assert worst <= 1e-6

    a = gen_matrix("random", 3, 6200)
    b = 0.1 * gen_matrix("random", 3, 6201)
    report = taylor_expand(EXP, a, b, N=8)
    bound = taylor_decay_bound(report, b)
    decay_ok = taylor_decay(report, b, TOL).passed
    finish(6, "perturbation series coherence", worst if decay_ok else 1.0, 1e-6,
           t0, 30.0, extra=f"decay bound c2|b| = {bound:.3f}")


def test_criterion_7_dyson_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        d = 2 + k % 2
        order = k % 6
        a = gen_matrix("random", d, 7000 + k)
        b = 0.25 * gen_matrix("random", d, 7100 + k)
        worst = max(worst, dyson_defect(dyson_exp(a, b, N=order), TOL).value)
    finish(7, "closed perturbation expansion of exp", worst, 1e-7, t0, 30.0)


def test_criterion_8_magnus():
    t0 = time.perf_counter()
    fields = [triangular_field()] + [perturbed_triangular_field(s) for s in range(5)]
    worst = 0.0
    for field in fields:
        _, y = magnus_solve(field, 1.0, h=1.0 / 200, order=28)
        worst = max(worst, magnus_discrepancy(y, rk_reference(field, 1.0), TOL).value)
    assert worst <= 1e-6

    field = triangular_field()
    ref = rk_reference(field, 1.0)
    d1, d2 = (magnus_discrepancy(magnus_solve(field, 1.0, h=h, order=28)[1], ref, TOL).value
              for h in (0.1, 0.05))
    ratio = d1 / d2 if d2 > 1e-11 else np.inf
    finish(8, "log-propagator vs Runge-Kutta", worst if ratio >= 8.0 else 1.0,
           1e-6, t0, 10.0, extra=f"step-halving ratio {ratio:.1f} >= 8")


def test_criterion_9_rearrangement():
    t0 = time.perf_counter()
    families = {1: {2: [1, 1], 3: [2, 1]}, 2: {2: [1, 1, 0], 3: [1, 1, 1]}}
    worst = 0.0
    for p in (1, 2):
        for d in (2, 3):
            for ksum in (2, 3):
                fam = families[p][ksum]
                for seed in range(10):
                    base = 8000 + 1000 * p + 100 * d + 10 * ksum + seed
                    a = gen_matrix("hermitian", d, base)
                    A = matrix_exp(a)
                    bs = [gen_matrix("random", d, base + 50 + j) for j in range(p)]
                    basis = eigenbasis(fam, A, bs, delta=0.4)
                    lhs = rearrange_lhs(basis)
                    rf = rearrange_rhs_F(basis)
                    rg = rearrange_rhs_G(basis)
                    worst = max(worst, *(r.value for r in rearrangement(lhs, rf, rg, TOL)))
    assert worst <= 1e-6

    rng = np.random.default_rng(9000)
    fam = [1, 1]
    worst_scalar = 0.0
    for _ in range(100):
        s = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(-0.35, 0.35, 2))
        c = rng.uniform(0.4, 2.5)
        worst_scalar = max(worst_scalar, kernel_scaling(fam, s, c, TOL).value)
    finish(9, "half-line rearrangement three ways", max(worst, worst_scalar * 1e3),
           1e-6, t0, 120.0, extra=f"scalar identities worst {worst_scalar:.2e} vs 1e-9")


def test_criterion_10_contour_refinement():
    t0 = time.perf_counter()
    worst = 0.0  # doublings that grow above the floor, plus cases that miss it
    cases = 0
    for seed in range(5):
        n = 1 + seed % 3
        xs = seeded_disc_nodes(10_000 + seed, n + 1)
        for f in (EXP, power_function(5), resolvent_function(3.0)):
            exact = dd_explicit(f, xs)
            c = contour_around(xs, f, contour_around(xs))  # the tight circle, checked for f
            approximations = []
            for m in (16, 32, 64, 128, 256):  # one trapezoid pass of m nodes each
                zeta, w = circle_points(c.center, c.radius, m)
                vals = f(zeta)
                for x in xs:
                    vals = vals / (zeta - x)
                approximations.append(complex(np.sum(w * vals)))
            monotone, floor = contour_refinement(approximations, exact, TOL)
            worst += monotone.value + floor.value
            cases += 1
    finish(10, "circle-quadrature refinement", worst, 0.0, t0, 5.0,
           extra=f"{cases} cases, all reached the 1e-13 floor")
