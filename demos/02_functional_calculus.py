"""Matrix functions by circle quadrature against resolvents.

A single matrix needs one circle around its spectrum (``apply_function``); a
commuting tuple gets one circle per variable and a tensor-grid quadrature
(``funcalc_n``).  Every circle comes from
``contour_around``, which builds it around the eigenvalues and refuses one
that misses the spectrum or leaves the function's domain, so every function
declares its domain: a product of entire factors declares ``Entire()`` per
variable.  The eigendecomposition route is kept strictly separate and serves
as the oracle.
"""

import numpy as np

from opcalc import (
    CommutingTuple,
    MultivariateFunction,
    apply_function,
    apply_via_eig,
    Contour,
    Entire,
    contour_around,
    exp_function,
    funcalc_elementary,
    funcalc_n,
    gen_matrix,
    opnorm,
    rel_err,
    resolvent_function,
)
from opcalc.errors import ContourViolation
from opcalc.verify import IDENTITIES

exp = exp_function()

print("=" * 70)
print("1. one matrix, two routes")
print("=" * 70)

a = gen_matrix("diagonalizable", 3, 7)
c = contour_around(np.linalg.eigvals(a))
print(f"  auto contour: center {c.center:.3f}, radius {c.radius:.3f}")
try:
    contour_around(np.linalg.eigvals(a), contour=Contour(c.center, 0.5 * c.radius))
except ContourViolation as exc:
    print(f"  half that radius is refused: {exc}")
via_contour = apply_function(exp, a)
via_eig = apply_via_eig(exp, a)
print(f"  |contour - eigen| / |eigen| = {rel_err(via_contour, via_eig):.2e}")

res = resolvent_function(3.0)
print(f"  same for (3 - z)^-1:          {rel_err(apply_function(res, a), apply_via_eig(res, a)):.2e}")

print()
print("=" * 70)
print("2. commuting pairs: product functions and product rules")
print("=" * 70)

mats = gen_matrix("commuting-pair", 3, 11)
tup = CommutingTuple(mats)
print(f"  commutator norm of the pair: {opnorm(mats[0] @ mats[1] - mats[1] @ mats[0]):.2e}")

mono = MultivariateFunction(lambda z1, z2: z1 * z2, (Entire(), Entire()))
print(f"  (z1 z2)(a1, a2) vs a1 a2:    {rel_err(funcalc_n(mono, tup), mats[0] @ mats[1]):.2e}")

f = MultivariateFunction(lambda z1, z2: np.exp(z1) * z2, (Entire(), Entire()))
g = MultivariateFunction(lambda z1, z2: z1 + 0.5 * z2, (Entire(), Entire()))
fg = MultivariateFunction(lambda z1, z2: f(z1, z2) * g(z1, z2), (Entire(), Entire()))
lhs = funcalc_n(fg, tup)
rhs = funcalc_n(f, tup) @ funcalc_n(g, tup)
print(f"  homomorphism (fg) = f g:     {rel_err(lhs, rhs):.2e}")

value, joint = funcalc_elementary([exp, res], tup, check_tol=IDENTITIES["tensor-product-rule"])
split = apply_via_eig(exp, mats[0]) @ apply_via_eig(res, mats[1])
print(f"  elementary-tensor rule:      {rel_err(joint, value):.2e}  (joint grid vs f(a1) g(a2))")
print(f"  f(a1) g(a2) vs eigenbasis:   {rel_err(value, split):.2e}")

print()
print("=" * 70)
print("3. continuity under perturbation (resolvent-identity bound)")
print("=" * 70)

eps = 1e-5
da = gen_matrix("random", 3, 13)
a2 = a + eps * da
got = opnorm(apply_function(exp, a) - apply_function(exp, a2))
print(f"  |f(a) - f(a')| = {got:.3e} for |a - a'| = {eps * opnorm(da):.1e}")
print(f"  empirical Lipschitz constant ~ {got / (eps * opnorm(da)):.2f}")
