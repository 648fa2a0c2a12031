"""The log of a propagator solves a nonlinear commutator-series ODE.

Instead of integrating Y' = A(t) Y directly, integrate the equation for
Omega = log Y, whose right-hand side is a Bernoulli-weighted sum of nested
commutators of Omega with A(t).  exp(Omega) must then match the plain
Runge-Kutta propagator; the fixed-step discrepancy shrinks at fourth order.
"""

import numpy as np

from opcalc import bernoulli, magnus_solve, opnorm, rk_reference
from opcalc.magnus import triangular_field

print("=" * 70)
print("1. Bernoulli coefficients of the series")
print("=" * 70)
for n, frac in enumerate(bernoulli(10)):
    print(f"  B_{n:<2d} = {frac}")

print()
print("=" * 70)
print("2. upper-triangular test field A(t) = [[2, t], [0, -1]]")
print("=" * 70)
field = triangular_field()
trace = []
omega, y = magnus_solve(field, 1.0, h=1 / 200, order=28, trace=trace)
reference = rk_reference(field, 1.0)
print(f"  |Omega(1)| = {opnorm(omega):.4f}  (branch safety: below pi)")
print(f"  |exp(Omega) - Y_RK| = {opnorm(y - reference):.3e}")
print("  growth of the log along the way:")
for t, nrm in trace[::40] + [trace[-1]]:
    print(f"    t = {t:.2f}   |Omega| = {nrm:.4f}")

print()
print("=" * 70)
print("3. fourth-order stepping: halving h divides the error by ~16")
print("=" * 70)
for h in (0.2, 0.1, 0.05, 0.025):
    _, yh = magnus_solve(field, 1.0, h=h, order=28)
    print(f"  h = {h:<6} discrepancy = {opnorm(yh - reference):.3e}")

print()
print("=" * 70)
print("4. commuting fields integrate exactly")
print("=" * 70)
c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
omega, _ = magnus_solve(lambda t: np.cos(t) * c, 1.0, h=1 / 200, order=8)
print(f"  A(t) = cos(t) C: |Omega(1) - sin(1) C| = {opnorm(omega - np.sin(1.0) * c):.3e}")
