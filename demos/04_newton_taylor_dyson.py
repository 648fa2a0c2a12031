"""Expansions with tracked remainders: interpolation, perturbation, exponential.

Matrix nodes do not commute, so the order of the increment factors matters
and is preserved.  Every expansion is closed by an explicit remainder term,
and partial sum + remainder must reproduce the target to quadrature accuracy.
"""

from opcalc import (
    dd_apply,
    dyson_exp,
    exp_function,
    gen_matrix,
    newton_interpolate,
    opnorm,
    taylor_expand,
    taylor_series_ad,
)

exp = exp_function()

print("=" * 70)
print("1. interpolation through four random matrix nodes")
print("=" * 70)
mats = [gen_matrix("random", 3, j) for j in range(4)]
report = newton_interpolate(exp, mats)
for order, rem in enumerate(report.remainder_norms):
    print(f"  after order {order}: |sum - exp(a_3)| = {rem:.3e}")

print()
print("=" * 70)
print("2. perturbation expansion with two remainder book-keepings")
print("=" * 70)
a = gen_matrix("random", 3, 10)
b = 0.1 * gen_matrix("random", 3, 11)
rep = taylor_expand(exp, a, b, N=8)
bound = rep.meta["c2"] * opnorm(b)
print(f"  guaranteed geometric ratio c2 |b| = {bound:.3f}")
print("  order   |target - partial|   explicit remainder   partial+rem defect")
for n in range(9):
    print(f"    {n}       {rep.remainder_norms[n]:.3e}          "
          f"{rep.meta['explicit_remainder_norms'][n]:.3e}         "
          f"{rep.meta['identity_defects'][n]:.3e}")

print()
print("=" * 70)
print("3. the same pairing as a nested-commutator series")
print("=" * 70)
aa = 0.4 * gen_matrix("random", 2, 20)
bs = [0.4 * gen_matrix("random", 2, 21), 0.4 * gen_matrix("random", 2, 22)]
left, right = taylor_series_ad(exp, aa, bs)  # both forms, one pass
direct = dd_apply(exp, [aa] * 3, bs)
print(f"  derivative-left form  vs direct: {opnorm(left - direct):.2e}")
print(f"  derivative-right form vs direct: {opnorm(right - direct):.2e}")

print()
print("=" * 70)
print("4. simplex-integral expansion of exp(a + b)")
print("=" * 70)
a2 = gen_matrix("random", 2, 30)
b2 = 0.2 * gen_matrix("random", 2, 31)
rep = dyson_exp(a2, b2, N=4)
for n, rem in enumerate(rep.remainder_norms):
    print(f"  after order {n}: |exp(a+b) - partial| = {rem:.3e}")
print(f"  exact closing remainder: {rep.meta['exact_remainder_norm']:.3e}")
print(f"  partial + remainder - target: {rep.meta['identity_defect']:.3e}")
