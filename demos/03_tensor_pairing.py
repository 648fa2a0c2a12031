"""Slot lifts, commutator actions, and tensor divided differences.

A matrix lifted into slot j of an (n+1)-fold Kronecker product, paired with
n matrices, lands between the j-th and (j+1)-th factor.  Differences of
adjacent lifts implement the commutator action, and a single circle integral
produces the divided difference of a tuple that need not commute at all.
"""

import numpy as np

from opcalc import (
    TensorOperator,
    dd_apply,
    dd_tensor,
    exp_function,
    gen_matrix,
    opnorm,
    pair,
    power_function,
    rel_err,
)

exp = exp_function()
a = gen_matrix("random", 2, 0)
b1 = gen_matrix("random", 2, 1)
b2 = gen_matrix("random", 2, 2)
eye = np.eye(2)

print("=" * 70)
print("1. slot lifts interleave")
print("=" * 70)
lift = np.kron(np.kron(eye, a), eye)  # 1 (x) a (x) 1: a in slot 1 of 3
got = pair(TensorOperator(lift, 2, 3), [b1, b2])
print(f"  slot-1 lift of a on (b1, b2) vs b1 a b2: {rel_err(got, b1 @ a @ b2):.2e}")

x = np.kron(a, eye)
y = np.kron(eye, b1)
print(f"  distinct slots commute: |[a^(0), b^(1)]| = {opnorm(x @ y - y @ x):.2e}")

print()
print("=" * 70)
print("2. adjacent-slot differences act as commutators")
print("=" * 70)
nab = np.kron(a, eye) - np.kron(eye, a)  # a^(0) - a^(1)
ad = b1.copy()
for n in range(1, 5):
    ad = a @ ad - ad @ a
    via_pairing = pair(TensorOperator(np.linalg.matrix_power(nab, n), 2, 2), [b1])
    print(f"  n = {n}: |pairing - nested commutator| = {opnorm(via_pairing - ad):.2e}")

print()
print("=" * 70)
print("3. tensor divided differences and their pairing")
print("=" * 70)
mats = [gen_matrix("random", 2, 10 + j) for j in range(3)]
op = dd_tensor(exp, mats)
print(f"  operator lives on {op.slots} slots, dimension {op.matrix.shape[0]}")
direct = dd_apply(exp, mats, [b1, b2])
tensored = pair(op, [b1, b2])
print(f"  direct d x d route vs pair of the tensor: {rel_err(direct, tensored):.2e}")

low = dd_apply(power_function(1), [a, a, a], [b1, b2])
print(f"  degree below the slot count vanishes: |[a,a,a] z (b1 b2)| = {opnorm(low):.2e}")
