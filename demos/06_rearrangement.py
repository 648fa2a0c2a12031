"""Half-line operator integrals rearranged into modular form, three ways.

The integral of f_0(uA) b_1 f_1(uA) ... b_p f_p(uA) over u in (0, inf) equals
the kernel F applied to the slot lifts of A, and equals A^-1 times the kernel
G applied to cumulative products of the modular operators exp(-nabla_a),
nabla_a = a^(j-1) - a^(j) the difference of adjacent slot lifts of a = log A.
The essence is the substitution u -> u/s that turns F into G.  The family
f_j(s) = (1 + s)^-q_j is passed as its exponent list [q_0, ..., q_p].  The
three routes take one record, ``eigenbasis(qs, A, bs, delta=...)``, which
checks the input and diagonalizes A once for all of them.
"""

import numpy as np

from opcalc import (
    eigenbasis,
    gen_matrix,
    kernel_F,
    kernel_G,
    matrix_exp,
    opnorm,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
    rel_err,
)

fam = [1, 1]  # f_0(s) = f_1(s) = (1 + s)^-1

print("=" * 70)
print("1. the scalar kernels and the scaling identity")
print("=" * 70)
print(f"  F(1, 1) = {kernel_F(fam, [1.0, 1.0]):.12f}   (= integral of (1+u)^-2 = 1)")
print(f"  G(2)    = {kernel_G(fam, [2.0]):.12f}   (= ln 2)")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    s = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(-0.3, 0.3, 2))
    F = kernel_F(fam, s)
    worst = max(worst, abs(F - kernel_G(fam, [s[1] / s[0]]) / s[0]) / abs(F))
print(f"  F(s0, s1) = G(s1/s0)/s0 on 50 sector points, worst: {worst:.2e}")

print()
print("=" * 70)
print("2. modular operators of a Hermitian log")
print("=" * 70)
a = gen_matrix("hermitian", 2, 3)
print(f"  spectrum in the strip of half-width 0.3: "
      f"{bool(np.all(np.abs(np.linalg.eigvals(a).imag) < 0.3))}")
eye = np.eye(2)
modular = matrix_exp(np.kron(eye, a) - np.kron(a, eye))  # exp(-nabla_a), two slots
A = matrix_exp(a)
print(f"  slot-lift factorization A^(0) exp(-nabla_a) vs A^(1): "
      f"{rel_err(np.kron(A, eye) @ modular, np.kron(eye, A)):.2e}")
mu = np.linalg.eigvals(modular)
print(f"  modular spectrum args within double sector: max |arg| = "
      f"{np.max(np.abs(np.angle(mu))):.3f} < 0.6")

print()
print("=" * 70)
print("3. the three-way identity on random data")
print("=" * 70)
A = matrix_exp(a)
b = gen_matrix("random", 2, 9)
basis = eigenbasis(fam, A, [b], delta=0.3)
lhs = rearrange_lhs(basis)
rf = rearrange_rhs_F(basis)
rg = rearrange_rhs_G(basis)
scale = opnorm(lhs)
print(f"  direct integral vs kernel-F route: {opnorm(lhs - rf) / scale:.2e}")
print(f"  direct integral vs kernel-G route: {opnorm(lhs - rg) / scale:.2e}")
print(f"  kernel-F route vs kernel-G route:  {opnorm(rf - rg) / scale:.2e}")

print()
print("=" * 70)
print("4. higher arity: p = 2 insertions, dimension 3")
print("=" * 70)
fam3 = [1, 1, 1]
a3 = gen_matrix("hermitian", 3, 4)
A3 = matrix_exp(a3)
bs = [gen_matrix("random", 3, 10), gen_matrix("random", 3, 11)]
basis = eigenbasis(fam3, A3, bs, delta=0.3)
lhs = rearrange_lhs(basis)
rf = rearrange_rhs_F(basis)
rg = rearrange_rhs_G(basis)
scale = opnorm(lhs)
print(f"  lhs vs F route: {opnorm(lhs - rf) / scale:.2e}")
print(f"  lhs vs G route: {opnorm(lhs - rg) / scale:.2e}")
